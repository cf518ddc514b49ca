"""Per-layer spans of an in-process replay, recorded from outside the program.

:class:`Recorder` replaces a layer's public entry point — a class method, a
static method or a module function — at the attribute its caller looks up,
with a wrapper that records a span: layer, name, start, end and the span
that caused it.  Spans live in memory until the run ends.  A span's self
time is its duration minus the part of it that its child spans cover, so
a request's client-observed latency splits into the self time of each
layer it passed through.

Work handed to a thread pool (``ConcurrentExecutor.submit`` and the
fan-out ``_submit_all``) becomes an ``executors`` span from submission to
the end of the task, parented to the submitting span; the task's own spans
are its children, so the executor's self time is the queue wait.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float = 0.0
    info: Any = None


class Recorder:
    """Installs timing wrappers and collects their spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any, bool]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, layer: str, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """``fn`` wrapped to record a span; ``observe(args, result)`` fills
        the span's ``info``."""
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack()
            span = Span(next(recorder._ids), stack[-1] if stack else None, layer, name, time.perf_counter())
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    span.info = observe(args, result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                recorder.spans.append(span)

        return wrapper

    def patch(self, owner: Any, attribute: str, layer: str, name: str | None = None,
              observe: Callable | None = None) -> None:
        """Replace ``owner.attribute`` with a timed wrapper (undone by :meth:`restore`)."""
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        static = isinstance(original, staticmethod)
        fn = original.__func__ if static else original
        wrapped = self.timed(layer, name or attribute, fn, observe)
        setattr(owner, attribute, staticmethod(wrapped) if static else wrapped)
        self._patches.append((owner, attribute, original, not isinstance(owner, (type, ModuleType))))

    def patch_pool(self, executor_class: Any) -> None:
        """Time the queue wait of work submitted to ``executor_class`` pools."""
        recorder = self

        def handoff(fn: Callable) -> Callable:
            stack = recorder._stack()
            parent, submitted = (stack[-1] if stack else None), time.perf_counter()

            def task(*args: Any) -> Any:
                span = Span(next(recorder._ids), parent, "executors", "task", submitted)
                inner = recorder._stack()
                inner.append(span.id)
                try:
                    return fn(*args)
                finally:
                    inner.pop()
                    span.end = time.perf_counter()
                    recorder.spans.append(span)

            return task

        submit = executor_class.__dict__["submit"]
        submit_all = executor_class.__dict__["_submit_all"]
        executor_class.submit = lambda executor, fn, *args: submit(executor, handoff(fn), *args)
        executor_class._submit_all = lambda executor, fn, items: submit_all(executor, handoff(fn), items)
        self._patches += [(executor_class, "submit", submit, False),
                          (executor_class, "_submit_all", submit_all, False)]

    def restore(self) -> None:
        for owner, attribute, original, on_instance in reversed(self._patches):
            if on_instance:
                delattr(owner, attribute)  # uncovers the class attribute again
            else:
                setattr(owner, attribute, original)
        self._patches.clear()


def install(recorder: Recorder, stack: Any) -> None:
    """Wrap the entry points of every layer of the serving stack."""
    import repro.api.service as service_module
    import repro.corpus as corpus_module
    import repro.index.incremental as incremental_module
    import repro.xmltree.parser as parser_module
    from repro.api.executors import ConcurrentExecutor
    from repro.api.http import HttpServer
    from repro.api.service import SnippetService
    from repro.cluster.router import ClusterService
    from repro.corpus import Corpus
    from repro.search.engine import SearchEngine
    from repro.snippet.generator import SnippetGenerator
    from repro.snippet.ilist import IListBuilder
    from repro.snippet.instance_selector import GreedyInstanceSelector
    from repro.system import ExtractSystem

    patch = recorder.patch
    recorder.patch_pool(ConcurrentExecutor)
    patch(HttpServer, "_serve_payload", "http", "serve_payload", observe=lambda args, _: args[3])
    patch(stack, "handle_dict", "gateway")
    patch(ClusterService, "run", "cluster")
    patch(ClusterService, "run_batch", "cluster")
    patch(ClusterService, "run_update_with_delta", "cluster")
    patch(SnippetService, "run", "service")
    patch(SnippetService, "run_batch", "service")
    patch(SnippetService, "run_update_with_report", "service")
    patch(SnippetService, "_snippet_payload", "service", "payload")
    patch(ExtractSystem, "run_query", "system")
    patch(SearchEngine, "search", "search", observe=lambda _, result: len(result))
    patch(SnippetGenerator, "generate", "snippet")
    patch(IListBuilder, "build", "snippet", "ilist")
    patch(GreedyInstanceSelector, "select", "snippet", "select")
    patch(service_module, "render_snippet_text", "snippet", "render")
    patch(Corpus, "update_document", "corpus", observe=lambda _, report: report)
    patch(parser_module, "parse_xml", "xmltree", "parse")
    patch(corpus_module, "diff_trees", "xmltree", "diff")
    patch(incremental_module, "apply_text_update", "index", "delta")


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #
def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


class Analysis:
    """Self times per span and per request, and the per-layer metrics."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {span.id: span for span in spans}
        self.children: dict[int, list[Span]] = {}
        for span in spans:
            if span.parent is not None:
                self.children.setdefault(span.parent, []).append(span)
        self.self_time = {
            span.id: (span.end - span.start)
            - _covered(span.start, span.end, [(c.start, c.end) for c in self.children.get(span.id, ())])
            for span in spans
        }

    def named(self, layer: str, name: str | None = None) -> list[Span]:
        return [s for s in self.spans if s.layer == layer and (name is None or s.name == name)]

    def critical_path(self, root: Span) -> list[Span]:
        """``root`` and its descendants, where of tasks fanned out in
        parallel only the one that finished last (the one the caller waited
        for) is followed."""
        found, todo = [], [root]
        while todo:
            span = todo.pop()
            found.append(span)
            children = self.children.get(span.id, [])
            tasks = [child for child in children if child.layer == "executors"]
            if len(tasks) > 1:
                last = max(tasks, key=lambda task: task.end)
                children = [child for child in children if child.layer != "executors" or child is last]
            todo.extend(children)
        return found

    def requests(self, outcomes, keys: list[str]) -> list[tuple[Any, dict[str, float], float]]:
        """Match each client request to its server-side span tree and split
        its latency (send to answer) into per-layer self times.

        A tree's root is the executor task that ran ``_serve_payload``; it
        belongs to the client request with the same body whose send/answer
        interval contains it.  Client time outside the tree (socket, event
        loop, client library) is the ``http`` layer's; inside it, self times
        are summed along the critical path.  Each item is (outcome, seconds
        per layer, seconds inside the gateway).
        """
        roots: dict[str, list[Span]] = {}
        for span in self.named("http", "serve_payload"):
            root = self.by_id.get(span.parent)
            if root is not None and root.parent is None:
                roots.setdefault(span.info, []).append(root)
        for spans in roots.values():
            spans.sort(key=lambda s: s.start)
        budgets = []
        for outcome in outcomes:
            sent, done = outcome.origin + outcome.sent, outcome.origin + outcome.done
            candidates = roots.get(keys[outcome.index], [])
            root = next((s for s in candidates if sent <= s.start and s.end <= done), None)
            if root is None:
                continue
            candidates.remove(root)
            layers = {"http": (done - sent) - (root.end - root.start)}
            handled = 0.0
            for span in self.critical_path(root):
                layers[span.layer] = layers.get(span.layer, 0.0) + self.self_time[span.id]
                if span.layer == "gateway":
                    handled += span.end - span.start
            budgets.append((outcome, layers, handled))
        return budgets


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, int(-(-len(ordered) * p // 100)) - 1))]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(analysis: Analysis, budgets, outcomes) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, name → (value, unit)."""
    ms = 1000.0

    def total(layer: str, name: str | None = None) -> float:
        return sum(s.end - s.start for s in analysis.named(layer, name)) * ms

    def per_request(layer: str) -> list[float]:
        return [layers[layer] * ms for _, layers, _ in budgets if layer in layers]

    wire = [(outcome.done - outcome.sent - handled) * ms for outcome, _, handled in budgets]
    queue = [analysis.self_time[s.id] * ms for s in analysis.named("executors")]
    run_query = analysis.named("system", "run_query")
    misses = sum(1 for s in run_query if any(c.layer == "search" for c in analysis.children.get(s.id, ())))
    generate = analysis.named("snippet", "generate")
    built = len(analysis.named("snippet", "ilist"))
    payloads = len(analysis.named("service", "payload"))
    updates = analysis.named("corpus", "update_document")
    reports = [s.info for s in updates if s.info is not None]
    kept = sum(r.cache_entries_kept for r in reports)
    dropped = sum(r.cache_entries_invalidated for r in reports)
    return {
        "http.wire_ms_p50": (percentile(wire, 50), "ms"),
        "http.resp_bytes_mean": (ratio(sum(o.size for o in outcomes), len(outcomes)), "B"),
        "gateway.self_ms_p50": (percentile(per_request("gateway"), 50), "ms"),
        "gateway.refused": (float(sum(1 for o in outcomes if o.status == 503)), "count"),
        "executors.queue_wait_ms_p50": (percentile(queue, 50), "ms"),
        "executors.queue_wait_ms_p99": (percentile(queue, 99), "ms"),
        "service.self_ms_p50": (percentile(per_request("service"), 50), "ms"),
        "service.payload_ms_total": (total("service", "payload"), "ms"),
        "service.payloads_built": (float(payloads), "count"),
        "system.query_cache.hit_ratio": (ratio(len(run_query) - misses, len(run_query)), "ratio"),
        "system.run_query_ms_p50": (percentile([(s.end - s.start) * ms for s in run_query], 50), "ms"),
        "search.calls": (float(len(analysis.named("search"))), "count"),
        "search.engine_ms_total": (total("search"), "ms"),
        "search.results_per_query_p50": (percentile([s.info for s in analysis.named("search")], 50), "count"),
        "snippet.generate_calls": (float(len(generate)), "count"),
        "snippet.cache.hit_ratio": (ratio(len(generate) - built, len(generate)), "ratio"),
        "snippet.ilist_ms_total": (total("snippet", "ilist"), "ms"),
        "snippet.select_ms_total": (total("snippet", "select"), "ms"),
        "snippet.render_ms_total": (total("snippet", "render"), "ms"),
        "snippet.built_per_shown": (ratio(built, payloads), "ratio"),
        "corpus.update_calls": (float(len(updates)), "count"),
        "corpus.update_ms_p50": (percentile([(s.end - s.start) * ms for s in updates], 50), "ms"),
        "corpus.cache_kept_ratio": (ratio(kept, kept + dropped), "ratio"),
        "corpus.incremental_ratio": (ratio(sum(1 for r in reports if r.incremental), len(reports)), "ratio"),
        "xmltree.parse_ms_total": (total("xmltree", "parse"), "ms"),
        "xmltree.diff_ms_total": (total("xmltree", "diff"), "ms"),
        "index.delta_ms_total": (total("index", "delta"), "ms"),
    }


def cluster_metrics(analysis: Analysis, budgets) -> dict[str, tuple[float, str]]:
    """Router self time per request and shard imbalance per fan-out."""
    imbalance = []
    for span in analysis.named("cluster", "run_batch"):
        shard_times = [
            s.end - s.start
            for task in analysis.children.get(span.id, ())
            for s in analysis.children.get(task.id, ())
            if s.layer == "service"
        ]
        if len(shard_times) > 1:
            imbalance.append(max(shard_times) / (sum(shard_times) / len(shard_times)))
    router = [layers["cluster"] * 1000.0 for _, layers, _ in budgets if "cluster" in layers]
    return {
        "cluster.router.self_ms_p50": (percentile(router, 50), "ms"),
        "cluster.shard_imbalance": (percentile(imbalance, 50), "ratio"),
    }


def p50_budget(budgets) -> tuple[float, dict[str, float]]:
    """Mean per-layer self time (ms) over the requests whose latency lies
    between the 40th and 60th percentile, and their mean latency."""
    if not budgets:
        return 0.0, {}
    ordered = sorted(budgets, key=lambda item: item[0].done - item[0].sent)
    band = ordered[int(len(ordered) * 0.4):max(int(len(ordered) * 0.6), int(len(ordered) * 0.4) + 1)]
    mean_latency = sum(o.done - o.sent for o, _, _ in band) / len(band) * 1000.0
    layers: dict[str, float] = {}
    for _, split, _ in band:
        for layer, seconds in split.items():
            layers[layer] = layers.get(layer, 0.0) + seconds * 1000.0 / len(band)
    return mean_latency, layers
