#!/usr/bin/env python3
"""The query service layer: persistent indexes, caching and batch search.

Run with::

    python examples/batch_queries.py [snapshot_directory]

Shows the serving features the interactive demo relied on:

* snapshotting a whole corpus to disk (``Corpus.save_dir``) and loading it
  back without re-indexing (``Corpus.load_dir``),
* the query-result cache: the same query answered twice, the second time
  served from the LRU cache,
* batch execution: many queries over many documents in one pass, with
  per-query timings and shared posting-list lookups.

The same flow is available from the command line::

    python -m repro.cli corpus-save --dataset retail --dataset movies --output ./corpus
    python -m repro.cli batch --queries queries.txt --corpus-dir ./corpus --repeat 2
"""

from __future__ import annotations

import sys
import tempfile
import time

from repro import Corpus

QUERIES = [
    "store texas",
    "retailer apparel",
    "movie drama",
    "clothes casual",
]


def main() -> None:
    snapshot_dir = sys.argv[1] if len(sys.argv) > 1 else None

    # ------------------------------------------------------------------ #
    # 1. build a corpus and snapshot it to disk
    # ------------------------------------------------------------------ #
    corpus = Corpus()
    corpus.add_builtin("retail")
    corpus.add_builtin("movies")
    corpus.add_builtin("figure5-stores", name="stores")

    target = snapshot_dir or tempfile.mkdtemp(prefix="extract-corpus-")
    started = time.perf_counter()
    subdirs = corpus.save_dir(target)
    print(f"=== saved {len(subdirs)} document indexes to {target} "
          f"({time.perf_counter() - started:.3f}s) ===")
    for row in corpus.summary():
        print(f"  {row['name']:<10s} {row['nodes']:>6} nodes")
    print()

    # ------------------------------------------------------------------ #
    # 2. load it back: no re-indexing, identical results
    # ------------------------------------------------------------------ #
    started = time.perf_counter()
    loaded = Corpus.load_dir(target)
    print(f"=== reloaded corpus in {time.perf_counter() - started:.3f}s ===")
    original = corpus.query("retail", "store texas", size_bound=6, use_cache=False)
    restored = loaded.query("retail", "store texas", size_bound=6, use_cache=False)
    print(f"  'store texas' on retail: {len(original)} results before, "
          f"{len(restored)} after reload, "
          f"identical={original.render_text() == restored.render_text()}")
    print()

    # ------------------------------------------------------------------ #
    # 3. the query-result cache in action
    # ------------------------------------------------------------------ #
    # Rendering reads every snippet: snippets are built on first read and
    # kept in the cached outcome, so the warm render builds none.
    system = loaded.system("retail")
    started = time.perf_counter()
    system.query("retailer apparel", size_bound=6).render_text()
    cold = time.perf_counter() - started
    started = time.perf_counter()
    warm_outcome = system.query("retailer apparel", size_bound=6)
    warm_outcome.render_text()
    warm = time.perf_counter() - started
    print("=== query-result cache ===")
    print(f"  cold: {cold * 1000:8.3f} ms")
    print(f"  warm: {warm * 1000:8.3f} ms  (from_cache={warm_outcome.from_cache}, "
          f"{cold / max(warm, 1e-9):.0f}x faster)")
    print(f"  stats: {system.cache.stats!r}")
    print()

    # ------------------------------------------------------------------ #
    # 4. batch execution with per-query timings
    # ------------------------------------------------------------------ #
    print("=== batch: every query over every document, one pass ===")
    report = loaded.search_batch(QUERIES, size_bound=6)
    print(report.format_table())
    print()
    rerun = loaded.search_batch(QUERIES, size_bound=6)
    print(f"warm re-run of the same batch: {rerun.total_seconds * 1000:.3f} ms "
          f"(vs {report.total_seconds * 1000:.3f} ms cold)")


if __name__ == "__main__":
    main()
