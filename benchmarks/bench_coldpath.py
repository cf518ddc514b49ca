"""Serving benchmark — a cold first page builds only its own snippets.

Ranking never looks at snippets and each snippet reads only its own
result, so the service builds the snippets of the requested page and no
others.  On a query with hundreds of results, a cold ``page_size=10``
request through :class:`SnippetService` must be at least **4× faster**
end to end than the eager pipeline — ``run_query`` followed by
``generate_all`` over every result — and exactly 10 snippet builds may
miss the snippet cache.

The document is the ``retail`` document of the repository benchmark's
``cold_search`` workload (8 retailers × 8 stores × 12 clothes, ~7k nodes);
"clothes casual" returns over 500 results there.  Both paths start every
round with empty query and snippet caches; they share the posting-list
memo, so neither pays keyword lookups the other skips.  The gate reads
the median of per-round ratios; rows land in ``BENCH_coldpath.json``.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro.api import SearchRequest, SnippetService
from repro.corpus import Corpus
from repro.datasets.retail import RetailConfig, generate_retail_document

from reporting import bench_row, record_benchmark

QUERY = "clothes casual"
SIZE_BOUND = 6
PAGE_SIZE = 10
ROUNDS = 7
_CONFIG = RetailConfig(retailers=8, stores_per_retailer=8, clothes_per_store=12)


def _timed(fn):
    """(seconds, result) of one call, with the cyclic collector paused as
    ``timeit`` does: a collection triggered inside the call would walk the
    whole heap of the test process, which neither path owns."""
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        value = fn()
        return time.perf_counter() - started, value
    finally:
        gc.enable()


def test_cold_page_at_least_4x_faster_than_eager_snippets():
    corpus = Corpus()
    corpus.add_tree("retail", generate_retail_document(_CONFIG, name="retail"))
    service = SnippetService(corpus)
    entry = corpus.entry("retail")
    system = entry.system
    request = SearchRequest(
        query=QUERY, document="retail", size_bound=SIZE_BOUND, page_size=PAGE_SIZE
    )

    def cold_page() -> tuple[float, int]:
        system.invalidate_cache()
        misses = system.generator.cache.stats_snapshot().misses
        seconds, response = _timed(lambda: service.run(request))
        assert len(response.results) == PAGE_SIZE
        return seconds, system.generator.cache.stats_snapshot().misses - misses

    def eager_pipeline() -> int:
        outcome = system.run_query(
            QUERY, size_bound=SIZE_BOUND, use_cache=False, postings=entry.postings
        )
        return len(system.generator.generate_all(outcome.results, size_bound=SIZE_BOUND))

    def cold_eager() -> float:
        system.invalidate_cache()
        seconds, built = _timed(eager_pipeline)
        assert built == results
        return seconds

    results = len(system.run_search(QUERY, use_cache=False))
    assert results >= 500, results
    cold_page()  # fill the posting-list memo both paths share
    # Each round times both paths back to back, alternating which goes
    # first, and the gate reads the median of the per-round ratios: a slow
    # phase of the machine then slows both sides of the ratio it lands in.
    lazy, eager, ratios, builds = [], [], [], set()
    for round_number in range(ROUNDS):
        if round_number % 2:
            eager.append(cold_eager())
        seconds, built = cold_page()
        if not round_number % 2:
            eager.append(cold_eager())
        lazy.append(seconds)
        builds.add(built)
        ratios.append(eager[-1] / max(seconds, 1e-9))
    lazy_seconds = statistics.median(lazy)
    eager_seconds = statistics.median(eager)
    ratio = statistics.median(ratios)

    record_benchmark(
        "coldpath",
        [
            {**bench_row("eager_run_query_generate_all", eager_seconds), "results": results},
            {
                **bench_row(
                    "cold_page_service",
                    lazy_seconds,
                    baseline_op="eager_run_query_generate_all",
                    baseline_seconds=eager_seconds,
                ),
                "page_size": PAGE_SIZE,
                "round_ratio_median": ratio,
                "snippet_builds": max(builds),
            },
        ],
    )
    assert builds == {PAGE_SIZE}, f"snippet builds per cold page: {sorted(builds)}"
    assert ratio >= 4.0, (
        f"cold page only {ratio:.1f}x faster than eager snippets "
        f"({lazy_seconds * 1000:.1f} ms vs {eager_seconds * 1000:.1f} ms)"
    )
