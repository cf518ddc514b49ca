"""Serving benchmark — query-result cache hit rate and warm-query speed.

The eXtract demo served a small set of show-case queries over and over;
the query-result cache turns every repeat into a dictionary lookup.  The
benchmark measures a warm repeated-query workload and asserts the shape
the service layer promises: a high hit rate on a Zipf-ish repeated
workload and warm queries at least an order of magnitude faster than the
same queries evaluated cold.
"""

from __future__ import annotations

import time

from repro.datasets.retail import RetailConfig, generate_retail_document
from repro.system import ExtractSystem

#: a repeated workload: few distinct queries, many repetitions (the shape
#: of interactive demo traffic).
WORKLOAD = [
    "store texas",
    "retailer apparel",
    "store texas",
    "clothes casual",
    "store texas",
    "retailer apparel",
    "store texas",
    "clothes casual",
    "store texas",
    "retailer apparel",
]

_CONFIG = RetailConfig(retailers=8, stores_per_retailer=5, clothes_per_store=5, seed=11)


def _fresh_system() -> ExtractSystem:
    return ExtractSystem.from_tree(generate_retail_document(_CONFIG, name="retail-cache-bench"))


def _run_workload(system: ExtractSystem, use_cache: bool) -> float:
    started = time.perf_counter()
    for query in WORKLOAD:
        system.query(query, size_bound=6, use_cache=use_cache)
    return time.perf_counter() - started


def test_cache_hit_rate_on_repeated_workload():
    system = _fresh_system()
    _run_workload(system, use_cache=True)
    stats = system.cache.stats
    # 10 lookups over 3 distinct queries: 3 misses, 7 hits.
    assert stats.misses == 3
    assert stats.hits == 7
    assert stats.hit_rate == 0.7


def test_warm_queries_much_faster_than_cold():
    system = _fresh_system()
    cold = _run_workload(system, use_cache=False)   # never caches
    warm_system = _fresh_system()
    _run_workload(warm_system, use_cache=True)       # populate
    warm = _run_workload(warm_system, use_cache=True)  # fully warm
    assert warm < cold, (warm, cold)
    # The warm pass is pure cache lookups; 10x is a very conservative floor.
    assert cold / max(warm, 1e-9) >= 10.0, (cold, warm)


def test_warm_query_speed(benchmark):
    system = _fresh_system()
    system.query("store texas", size_bound=6)  # populate
    outcome = benchmark(system.query, "store texas", 6)
    assert outcome.from_cache is True


def test_snippet_cache_serves_shared_results():
    system = _fresh_system()
    system.query("store texas", size_bound=6).render_text()  # snippets build when read
    before = system.generator.cache.stats.hits
    # Same result roots at the same bound through a different limit: the
    # query cache misses but every snippet is served from the snippet cache.
    system.query("store texas", size_bound=6, limit=2).render_text()
    assert system.generator.cache.stats.hits > before
