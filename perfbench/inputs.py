"""Seeded inputs of the benchmark workloads.

Everything the server receives is generated here: XML documents from the
``repro.datasets`` generators (fixed per workload), and from
``(workload, seed)`` per-document query pools from
``repro.eval.workload.WorkloadGenerator`` and request plans whose update
bodies carry seeded edits to the documents' own text values.
The same pair always yields the same documents, pools and plans; a plan's
``signature`` is the sha256 of its canonical JSON, so two runs can show
they replayed identical traffic.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from repro.api.protocol import BatchRequest, SearchRequest, UpdateRequest
from repro.datasets import (
    AuctionConfig,
    BibliographyConfig,
    MoviesConfig,
    RetailConfig,
    generate_auction_document,
    generate_bibliography_document,
    generate_movies_document,
    generate_retail_document,
)
from repro.datasets.base import DatasetRandom
from repro.eval.workload import WorkloadGenerator
from repro.search.query import KeywordQuery
from repro.xmltree.diff import clone_tree
from repro.xmltree.serialize import to_xml_string

#: page size of every search request
PAGE_SIZE = 10
#: Zipf exponent of document and query popularity
ZIPF_SKEW = 1.1
#: queries per batch request, and the per-document result limit of a batch
BATCH_QUERIES = 3
BATCH_LIMIT = 10
#: text values changed by one update request
EDITS_PER_UPDATE = 3

#: mixed_writes: offered rate (a sixth of the ~96 req/s closed-loop
#: capacity of this mix on a 2-core x86 box: from a quarter of it up,
#: bursts queue behind the two client connections and the run-to-run
#: spread of the medians exceeds their bounds) and request mix
MIXED_RATE_RPS = 16.0
MIXED_MIX = (("search", 0.67), ("batch", 0.20), ("update", 0.13))
#: the one document mixed_writes edits (third in read popularity)
EDITED_DOCUMENT = "movies"

#: batch/update pairs of the write probe that precedes the timed loop of
#: the search-only workloads (batch and update latency on that corpus)
PROBE_PAIRS = 16


@dataclass(frozen=True)
class Request:
    """One planned request: ``due`` is its send time in seconds from the
    start of the run (open loop) or None (closed loop)."""

    kind: str
    payload: dict
    due: float | None = None

    @property
    def path(self) -> str:
        return f"/v1/{self.kind}"


@dataclass
class Plan:
    """A request sequence plus its canonical signature."""

    name: str
    requests: list[Request] = field(default_factory=list)

    def signature(self) -> str:
        canonical = json.dumps(
            [[request.due, request.kind, request.payload] for request in self.requests],
            sort_keys=True,
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _document_specs(workload: str):
    """(name, generator, config factory) per document of a workload.

    hot_search and mixed_writes use the built-in dataset sizes (753 to
    2,676 nodes); cold_search uses larger configurations (3.4k to 7k
    nodes) so a long tail of queries returns hundreds of results.
    """
    if workload == "cold_search":
        return (
            ("retail", generate_retail_document,
             lambda seed: RetailConfig(retailers=8, stores_per_retailer=8, clothes_per_store=12, seed=seed)),
            ("movies", generate_movies_document, lambda seed: MoviesConfig(movies=200, seed=seed)),
            ("bibliography", generate_bibliography_document,
             lambda seed: BibliographyConfig(conferences=10, papers_per_conference=60, seed=seed)),
            ("auctions", generate_auction_document, lambda seed: AuctionConfig(scale=25, seed=seed)),
        )
    return (
        ("retail", generate_retail_document, lambda seed: RetailConfig(seed=seed)),
        ("movies", generate_movies_document, lambda seed: MoviesConfig(seed=seed)),
        ("bibliography", generate_bibliography_document, lambda seed: BibliographyConfig(seed=seed)),
        ("auctions", generate_auction_document, lambda seed: AuctionConfig(seed=seed)),
    )


def generate_documents(workload: str) -> dict[str, str]:
    """Document name → XML text, generated from the workload's configs.

    The documents are the same for every seed, like a fixed dataset; the
    seed varies the traffic (query pools, plans and edits).  Per-query cost
    spans two orders of magnitude, so documents that changed with the seed
    would add their own spread to every latency.
    """
    rng = random.Random(f"documents:{workload}")
    documents = {}
    for name, generate, config in _document_specs(workload):
        documents[name] = to_xml_string(generate(config(rng.randrange(1 << 30)), name=name))
    return documents


def query_pools(corpus, workload: str, seed: int) -> dict[str, list[str]]:
    """Document name → distinct keyword queries drawn by WorkloadGenerator.

    cold_search draws every two- and three-keyword query the generator
    finds (thousands in all).  hot_search keeps 12 queries per document
    (the whole working set fits the 256-entry serving caches) and
    mixed_writes 16, each chosen among queries with at least a page of
    results, so every answer renders a full page of snippets.
    """
    pools: dict[str, list[str]] = {}
    for entry in corpus.entries_snapshot():
        generator = WorkloadGenerator(entry.system.index, seed=seed)
        if workload == "cold_search":
            texts: list[str] = []
            for keywords, count in ((2, 700), (3, 500)):
                texts.extend(
                    generator.generate(query_count=count, keywords_per_query=keywords).texts()
                )
            pools[entry.name] = sorted(set(texts))
        else:
            count = 12 if workload == "hot_search" else 16
            pools[entry.name] = full_pages(entry.system, generator.generate(query_count=8 * count).texts(), count)
    return pools


def full_pages(system, queries: list[str], count: int, most: int | None = None) -> list[str]:
    """The first ``count`` queries with at least ``PAGE_SIZE`` results (and
    at most ``most``), topped up in order by the others when too few have."""
    def fits(query: str) -> bool:
        results = len(system.engine.search(KeywordQuery.parse(query)))
        return results >= PAGE_SIZE and (most is None or results <= most)

    full = [q for q in queries if fits(q)]
    return (full + [q for q in queries if q not in full])[:count]


def search(query: str, document: str) -> Request:
    return Request("search", SearchRequest(query=query, document=document, page_size=PAGE_SIZE).to_dict())


def batch(queries: list[str]) -> Request:
    return Request("batch", BatchRequest(queries=tuple(queries), limit=BATCH_LIMIT).to_dict())


class DocumentVersions:
    """The chain of versions of each document that seeded edits create.

    Version 0 is the generated document; every :meth:`next_update` clones
    the newest version, replaces ``EDITS_PER_UPDATE`` leaf text values with
    other values the same tag carries elsewhere in the document (a text-only
    change, so the server takes the incremental posting-delta path) and
    returns the update request carrying the edited XML.
    """

    def __init__(self, corpus, rng: random.Random):
        self.rng = rng
        self.trees = {entry.name: [clone_tree(entry.system.index.tree)] for entry in corpus.entries_snapshot()}
        self.values: dict[str, dict[str, list[str]]] = {}
        for name, (tree,) in self.trees.items():
            by_tag: dict[str, set[str]] = {}
            for node in tree.iter_leaves():
                if node.text and node.text.strip():
                    by_tag.setdefault(node.tag, set()).add(node.text)
            self.values[name] = {tag: sorted(texts) for tag, texts in by_tag.items() if len(texts) > 1}

    def next_update(self, document: str) -> Request:
        versions = self.trees[document]
        tree = clone_tree(versions[-1])
        values = self.values[document]
        leaves = [node for node in tree.iter_leaves() if node.tag in values and node.text]
        for node in self.rng.sample(leaves, EDITS_PER_UPDATE):
            node.text = self.rng.choice([text for text in values[node.tag] if text != node.text])
        versions.append(tree)
        return Request("update", UpdateRequest(document=document, xml=to_xml_string(tree)).to_dict())


def _zipf_order(rng: DatasetRandom, items: list[str]) -> list[str]:
    """A seeded popularity order: rank 0 is drawn most often."""
    ordered = list(items)
    rng.shuffle(ordered)
    return ordered


def closed_plan(workload: str, seed: int, corpus, pools: dict[str, list[str]], length: int) -> Plan:
    """The request sequence of a closed-loop search workload.

    hot_search draws document (in a fixed popularity order) and query by
    Zipf rank.  cold_search draws
    uniformly from the union of all pools, but in rounds with a fixed
    number of queries per cost class (:data:`COLD_ROUND`), so every run
    sends the same mix of cheap and expensive queries whatever the seed.
    Queries whose only answer is the whole document are left out.
    """
    rng = DatasetRandom(f"plan:{workload}:{seed}")
    plan = Plan(workload)
    if workload == "hot_search":
        documents = sorted(pools)
        ranked = {name: _zipf_order(rng, pools[name]) for name in documents}
        for _ in range(length):
            document = rng.skewed_pick(documents, ZIPF_SKEW)
            plan.requests.append(search(rng.skewed_pick(ranked[document], ZIPF_SKEW), document))
        return plan
    pairs = [(document, query) for document in sorted(pools) for query in pools[document]]
    rng.shuffle(pairs)
    rounds = -(-length // sum(COLD_ROUND))
    classes: list[list[tuple[str, str]]] = [[] for _ in COLD_ROUND]
    for document, query in pairs:
        cost_class = _cost_class(corpus, document, query)
        if cost_class is not None and len(classes[cost_class]) < rounds * COLD_ROUND[cost_class]:
            classes[cost_class].append((document, query))
        if all(len(found) == rounds * quota for found, quota in zip(classes, COLD_ROUND)):
            break
    for round_index in range(rounds):
        picks = [
            pair
            for found, quota in zip(classes, COLD_ROUND)
            for pair in found[round_index * quota:(round_index + 1) * quota]
        ]
        rng.shuffle(picks)
        plan.requests.extend(search(query, document) for document, query in picks)
    del plan.requests[length:]
    return plan


#: cold_search cost classes: upper bounds on the edges of all a query's
#: results together (the work snippet generation scales with), and the
#: queries of each class in one round of the plan (about their share of
#: the pooled queries, with the median's class three times as large so
#: the median is taken inside it)
COLD_CLASS_EDGES = (64, 128, 256, 512, 1024, 2048, 4096, 6000)
COLD_ROUND = (1, 1, 1, 1, 3, 1, 1, 1, 1)


def _cost_class(corpus, document: str, query: str) -> int | None:
    """The cost class of a query, or None when a result is the whole
    document (no element below the root holds all its keywords)."""
    results = corpus.system(document).engine.search(KeywordQuery.parse(query))
    if any(result.root_node.is_root for result in results):
        return None
    edges = sum(result.size_edges for result in results)
    return next((i for i, bound in enumerate(COLD_CLASS_EDGES) if edges <= bound), len(COLD_CLASS_EDGES))


def mixed_plan(seed: int, corpus, pools: dict[str, list[str]], versions: DocumentVersions,
               seconds: float) -> Plan:
    """Poisson arrivals at ``MIXED_RATE_RPS`` for ``seconds``.

    The arrival count is fixed at rate × seconds and the arrival times are
    its uniform order statistics — a Poisson process conditioned on its
    count.  Reads are Zipf searches (page_size 10) over documents in a
    fixed popularity order, and batches over every document of one query
    of :data:`EDITED_DOCUMENT` not asked before (with one to four pages of
    results, so each costs about the same) plus ``BATCH_QUERIES - 1``
    Zipf queries of the other documents.  Updates carry seeded edits to
    :data:`EDITED_DOCUMENT` only, and are sent in plan order.
    """
    rng = DatasetRandom(f"plan:mixed_writes:{seed}")
    documents = sorted(pools)
    others = [name for name in documents if name != EDITED_DOCUMENT]
    ranked = {name: _zipf_order(rng, pools[name]) for name in documents}
    system = corpus.system(EDITED_DOCUMENT)
    generated = WorkloadGenerator(system.index, seed=seed).generate(query_count=256, name="fresh").texts()
    fresh = full_pages(system, [q for q in generated if q not in pools[EDITED_DOCUMENT]], 64, most=4 * PAGE_SIZE)
    plan = Plan("mixed_writes")
    batches = 0
    count = int(MIXED_RATE_RPS * seconds)
    for due in sorted(rng.uniform(0.0, seconds) for _ in range(count)):
        draw = rng.random()
        if draw < MIXED_MIX[0][1]:
            document = rng.skewed_pick(documents, ZIPF_SKEW)
            request = search(rng.skewed_pick(ranked[document], ZIPF_SKEW), document)
        elif draw < MIXED_MIX[0][1] + MIXED_MIX[1][1]:
            queries = [fresh[batches % len(fresh)]]
            batches += 1
            while len(queries) < BATCH_QUERIES:
                query = rng.skewed_pick(ranked[rng.skewed_pick(others, ZIPF_SKEW)], ZIPF_SKEW)
                if query not in queries:
                    queries.append(query)
            request = batch(queries)
        else:
            request = versions.next_update(EDITED_DOCUMENT)
        plan.requests.append(Request(request.kind, request.payload, due=due))
    return plan


def mixed_warmup(plan: Plan, pools: dict[str, list[str]]) -> list[Request]:
    """Every distinct search of the plan, and one batch per document other
    than :data:`EDITED_DOCUMENT` asking its whole pool, so the timed run
    starts with warm caches except for the queries no one asked yet."""
    searches = {json.dumps(r.payload, sort_keys=True): r for r in plan.requests if r.kind == "search"}
    batches = [batch(pools[name]) for name in sorted(pools) if name != EDITED_DOCUMENT]
    return list(searches.values()) + batches


#: the document the write probe edits and batches over
PROBE_DOCUMENT = "retail"


def probe_plan(workload: str, corpus, versions: DocumentVersions) -> Plan:
    """The write probe of the search-only workloads: ``PROBE_PAIRS``
    batches alternating with updates of :data:`PROBE_DOCUMENT`, sent one at
    a time by a single client.  Each batch asks ``BATCH_QUERIES``
    generated queries with at least a page of results over that document
    with ``use_cache`` off, so every batch does the same amount of
    evaluation whatever ran before it.  The probe does not depend on the
    seed (``versions`` carries fixed edits): it is one yardstick for batch
    and update latency on the workload's documents."""
    system = corpus.system(PROBE_DOCUMENT)
    generated = WorkloadGenerator(system.index, seed=0).generate(query_count=64, name="probe").texts()
    queries = full_pages(system, generated, PROBE_PAIRS)
    rng = DatasetRandom(f"probe:{workload}")
    plan = Plan(f"{workload}-probe")
    for _ in range(PROBE_PAIRS):
        chosen = rng.sample(queries, BATCH_QUERIES)
        plan.requests.append(Request("batch", BatchRequest(
            queries=tuple(chosen), documents=(PROBE_DOCUMENT,), limit=BATCH_LIMIT, use_cache=False
        ).to_dict()))
        plan.requests.append(versions.next_update(PROBE_DOCUMENT))
    return plan


def final_probe(pools: dict[str, list[str]], edited: str) -> Plan:
    """Reads checking the final state against a corpus built from scratch:
    up to 16 pool queries of the ``edited`` document (the ones most likely
    to have been cached before an edit), two of every other document, and
    one batch of the first pool query of every document."""
    documents = sorted(pools)
    plan = Plan("final")
    for document in documents:
        plan.requests.extend(search(query, document) for query in pools[document][:16 if document == edited else 2])
    plan.requests.append(batch(sorted({pools[document][0] for document in documents})[:BATCH_QUERIES]))
    return plan


def final_documents(versions: DocumentVersions) -> dict[str, str]:
    """The XML of every document's newest version."""
    return {name: to_xml_string(trees[-1]) for name, trees in versions.trees.items()}
