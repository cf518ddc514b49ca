"""The repository benchmark: seeded traffic against a spawned ``serve``.

Run from the repository root::

    python3 perfbench/run.py --workload hot_search --seed 1 --seconds 10 --trace 0

One run generates the workload's documents (fixed per workload) and, from
``--seed``, its query pools and request plans (``inputs.py``), writes a
snapshot with the program's default writer (``corpus-save``, or
``cluster-init --shards 2`` for mixed_writes) and then:

* ``--trace 0`` spawns ``python -m repro.cli serve`` on the snapshot
  several times (``setup_s`` is the median time from spawn to the first
  correct answer), keeps the last server, sends the write probe, warms
  the caches, drives it for ``--seconds`` and prints the end-to-end
  metrics;
* ``--trace 1`` loads the same snapshot in-process behind the same gateway
  stack and HTTP frontend, replays the same plans with timing wrappers on
  each layer's entry points (``layers.py``) and prints the per-layer
  metrics, a p50 latency budget and the tracing overhead.

Every response is checked byte for byte against an in-process reference
(``check.py``).  The report lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

#: spawns of ``serve`` per run; setup_s is their median
SETUP_SPAWNS = 3
#: closed-loop plan length per measured second (the plan wraps if outrun)
PLAN_PER_SECOND = {"hot_search": 2000, "cold_search": 20}
#: rounds of the tracing-overhead probe (plain and traced alternate)
OVERHEAD_ROUNDS = 4


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown"
    with open(head_path, "r", encoding="utf-8") as handle:
        head = handle.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, "r", encoding="utf-8") as handle:
            return handle.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, "r", encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown"


class Run:
    """One benchmark run: inputs, snapshot, plans and reference."""

    def __init__(self, root: str, work: str, workload: str, seed: int, seconds: float):
        import inputs
        from check import reference_service

        self.root, self.work, self.workload, self.seed, self.seconds = root, work, workload, seed, seconds
        documents = inputs.generate_documents(workload)
        os.makedirs(os.path.join(work, "docs"))
        self.paths = []
        for name, xml in documents.items():
            path = os.path.join(work, "docs", f"{name}.xml")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(xml)
            self.paths.append(path)
        self.reference = reference_service(self.paths)
        corpus = self.reference.corpus
        self.pools = inputs.query_pools(corpus, workload, seed)
        if workload == "mixed_writes":
            self.versions = inputs.DocumentVersions(corpus, random.Random(f"edits:{workload}:{seed}"))
            self.main = inputs.mixed_plan(seed, corpus, self.pools, self.versions, seconds)
            self.probe = inputs.Plan("mixed_writes-probe")
        else:
            self.versions = inputs.DocumentVersions(corpus, random.Random(f"edits:{workload}:probe"))
            length = int(PLAN_PER_SECOND[workload] * seconds)
            self.main = inputs.closed_plan(workload, seed, corpus, self.pools, length)
            self.probe = inputs.probe_plan(workload, corpus, self.versions)
        edited = inputs.EDITED_DOCUMENT if workload == "mixed_writes" else inputs.PROBE_DOCUMENT
        self.final = inputs.final_probe(self.pools, edited)
        self.final_documents = inputs.final_documents(self.versions)
        if workload == "hot_search":
            self.warmup = list({json.dumps(r.payload, sort_keys=True): r for r in self.main.requests}.values())
        elif workload == "mixed_writes":
            self.warmup = inputs.mixed_warmup(self.main, self.pools)
        else:
            self.warmup = [inputs.search(self.pools[name][0], name) for name in sorted(self.pools)]
        self.snapshot = os.path.join(work, "snapshot")
        command = [sys.executable, "-m", "repro.cli"]
        if workload == "mixed_writes":
            command += ["cluster-init", "--shards", "2"]
            self.serve_args = ["--cluster-dir", self.snapshot]
        else:
            command += ["corpus-save"]
            self.serve_args = ["--corpus-dir", self.snapshot]
        for path in self.paths:
            command += ["--file", path]
        subprocess.run(command + ["--output", self.snapshot], cwd=root, check=True,
                       env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)

    def stamp(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "nproc": nproc(),
            "python": platform.python_version(),
            "git_sha": git_sha(self.root),
            "plans": {plan.name: plan.signature() for plan in (self.main, self.probe, self.final)},
        }

    def prepare(self, port: int):
        """Send the write probe, then warm the caches; returns both outcomes.

        The probe runs first, on a server that has only answered its set-up
        request, so its latencies do not depend on what the seed's timed
        loop left in the caches and the heap.
        """
        import drive

        return drive.sequential(port, self.probe.requests), drive.sequential(port, self.warmup)

    def measure(self, port: int):
        """Run the timed loop and the final probe."""
        import drive

        if self.workload == "mixed_writes":
            main, elapsed = drive.open_loop(port, self.main.requests, nproc())
        else:
            main, elapsed = drive.closed_loop(port, self.main.requests, nproc(), self.seconds)
        return main, elapsed, drive.sequential(port, self.final.requests)

    def check(self, probe, warm, main, final) -> int:
        """Byte-check every response; returns the number of mismatches."""
        from check import check_racing, check_sequential, check_static, fresh_service

        failed = check_sequential(self.reference, self.probe.requests, probe)
        failed += check_static(self.reference, self.warmup, warm)
        if self.workload == "mixed_writes":
            failed += check_racing(self.reference, self.main.requests, main)
        else:
            failed += check_static(self.reference, self.main.requests, main)
        failed += check_sequential(fresh_service(self.final_documents), self.final.requests, final)
        return failed


def end_to_end(run: Run) -> tuple[dict, int, int, list[str]]:
    """Spawn ``serve``, drive it and measure; returns metrics, attempted,
    failed and report lines."""
    import drive
    from check import wire
    from layers import percentile

    first = run.final.requests[0]
    expected = wire(run.reference.handle_dict(first.payload))
    body = json.dumps(first.payload).encode("utf-8")
    setups = []
    server = None
    try:
        for spawn in range(SETUP_SPAWNS):
            if server is not None:
                server.stop()
            started = time.perf_counter()
            server = drive.Server(run.root, run.work, run.serve_args, f"serve-{spawn}")
            drive.first_answer(server, first.path, body, expected)
            setups.append(time.perf_counter() - started)
        probe, warm = run.prepare(server.port)
        main, elapsed, final = run.measure(server.port)
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    failed = run.check(probe, warm, main, final)
    attempted = len(warm) + len(main) + len(probe) + len(final)
    main_failed = sum(1 for o in main if o.status != 200)
    writes = main if run.workload == "mixed_writes" else probe

    def latencies(outcomes, kind):
        return [o.latency * 1000.0 for o in outcomes if o.kind == kind]

    search = latencies(main, "search")
    batch = latencies(writes, "batch")
    update = latencies(writes, "update")
    metrics = {
        "throughput_rps": ((len(main) - main_failed) / elapsed, "req/s", len(main)),
        "search_p50_ms": (statistics.median(search), "ms", len(search)),
        "search_p90_ms": (percentile(search, 90), "ms", len(search)),
        "search_p99_ms": (percentile(search, 99), "ms", len(search)),
        "batch_p50_ms": (statistics.median(batch), "ms", len(batch)),
        "batch_p95_ms": (percentile(batch, 95), "ms", len(batch)),
        "update_p50_ms": (statistics.median(update), "ms", len(update)),
        "update_p95_ms": (percentile(update, 95), "ms", len(update)),
        "error_rate": (failed / attempted, "ratio", attempted),
        "server_rss_mb": (rss, "MB", 1),
        "setup_s": (statistics.median(setups), "s", len(setups)),
    }
    late = [o.late * 1000.0 for o in main]
    lines = [
        f"loadgen.sent {len(main)}  loadgen.failed {main_failed}  "
        f"loadgen.late_p99_ms {percentile(late, 99):.3f}  elapsed_s {elapsed:.3f}",
        "setup_s spawns: " + " ".join(f"{s:.4f}" for s in setups),
    ]
    if run.workload != "mixed_writes":
        lines.append(f"batch_* and update_* come from the {len(probe)}-request write probe before the timed loop")
    return metrics, attempted, failed, lines


def per_layer(run: Run) -> tuple[dict, int, int, list[str]]:
    """Replay in-process with timing wrappers; returns per-layer metrics,
    attempted, failed and report lines."""
    import drive
    import layers
    from layers import percentile
    from repro.api.executors import ConcurrentExecutor
    from repro.api.gateway import build_gateway
    from repro.api.http import HttpServer

    started = time.perf_counter()
    if run.workload == "mixed_writes":
        from repro.cluster import ClusterService

        backend = ClusterService.load_dir(run.snapshot)
    else:
        from repro.api.service import SnippetService
        from repro.corpus import Corpus

        backend = SnippetService(Corpus.load_dir(run.snapshot))
    load_s = time.perf_counter() - started
    stack = build_gateway(backend)
    executor = ConcurrentExecutor(max_workers=8)
    server = HttpServer(stack, port=0, executor=executor)
    recorder = layers.Recorder()
    server.start()
    try:
        layers.install(recorder, stack)
        try:
            probe = drive.sequential(server.port, run.probe.requests)
        finally:
            recorder.restore()
        warm = drive.sequential(server.port, run.warmup)
        layers.install(recorder, stack)
        try:
            main, elapsed, final = run.measure(server.port)
        finally:
            recorder.restore()
        overhead = _overhead(run, server.port, stack)
    finally:
        server.stop()
        executor.close()
        stack.close()
    failed = run.check(probe, warm, main, final)
    attempted = len(warm) + len(main) + len(probe) + len(final)

    keys = [json.dumps(r.payload) for r in run.main.requests]
    keys = [keys[index % len(keys)] for index in range(max(o.index for o in main) + 1)]
    analysis = layers.Analysis(recorder.spans)
    budgets = analysis.requests(main, keys)
    metrics = {
        name: (value, unit, len(budgets))
        for name, (value, unit) in layers.layer_metrics(analysis, budgets, main).items()
    }
    size = sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(run.snapshot) for f in files)
    late = [o.late * 1000.0 for o in main]
    metrics.update({
        "index.load_s": (load_s, "s", 1),
        "index.snapshot_mb": (size / 1e6, "MB", 1),
        "loadgen.sent": (float(len(main)), "count", len(main)),
        "loadgen.failed": (float(sum(1 for o in main if o.status != 200)), "count", len(main)),
        "loadgen.late_p99_ms": (percentile(late, 99), "ms", len(late)),
    })
    cluster = layers.cluster_metrics(analysis, budgets)
    latency, budget = layers.p50_budget(budgets)
    attributed = sum(budget.values())
    lines = [f"traced requests matched to spans: {len(budgets)} of {len(main)}; elapsed_s {elapsed:.3f}"]
    if run.workload == "mixed_writes":
        lines += [f"{name} {value:.4f} {unit}" for name, (value, unit) in cluster.items()]
    lines.append(f"p50 budget (requests between p40 and p60, mean latency {latency:.3f} ms):")
    for layer, ms in sorted(budget.items(), key=lambda item: -item[1]):
        lines.append(f"  {layer:<10} {ms:9.3f} ms  {100.0 * ms / latency if latency else 0.0:6.1f}%")
    lines.append(f"  {'unattributed':<10} {latency - attributed:9.3f} ms  "
                 f"{100.0 * (latency - attributed) / latency if latency else 0.0:6.1f}%")
    lines.append(f"tracing overhead: plain {overhead[0]:.2f} req/s, traced {overhead[1]:.2f} req/s "
                 f"({100.0 * (1.0 - overhead[1] / overhead[0]) if overhead[0] else 0.0:+.1f}%)")
    spans_path = os.path.join(os.path.dirname(run.work), f"spans-{run.workload}-{run.seed}.json")
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump([vars(span) | {"info": None} for span in recorder.spans], handle)
    lines.append(f"spans written to {os.path.relpath(spans_path, run.root)}")
    return metrics, attempted, failed, lines


def _overhead(run: Run, port: int, stack) -> tuple[float, float]:
    """Closed-loop search throughput without and with the wrappers, in
    alternating rounds (plain, traced, traced, plain, ...) that each send
    the plan's searches from the top, after one unmeasured round that
    brings the caches to the state every later round sees.  cold_search
    rounds bypass the query cache, so each round repeats the search work."""
    import drive
    import inputs
    import layers

    reads = [r for r in run.main.requests if r.kind == "search"]
    if run.workload == "cold_search":
        reads = [inputs.Request(r.kind, {**r.payload, "use_cache": False}) for r in reads]
    rates: dict[bool, list[float]] = {False: [], True: []}
    round_seconds = max(0.5, run.seconds / (2 * OVERHEAD_ROUNDS))
    for index in range(-1, 2 * OVERHEAD_ROUNDS):
        traced = index % 4 in (1, 2)
        recorder = layers.Recorder()
        if traced:
            layers.install(recorder, stack)
        try:
            outcomes, elapsed = drive.closed_loop(port, reads, nproc(), round_seconds)
        finally:
            recorder.restore()
        if index >= 0:
            rates[traced].append(len(outcomes) / elapsed)
    return statistics.median(rates[False]), statistics.median(rates[True])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("hot_search", "cold_search", "mixed_writes"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated run still stops the servers it spawned (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("error: src/repro not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    work = os.path.join(root, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        run = Run(root, work, args.workload, args.seed, args.seconds)
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, lines = measure(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps(run.stamp(), sort_keys=True))
    for line in lines:
        print(line)
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<34} {value:14.4f} {unit:<6} n={samples}")
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        listed = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    report = {
        metric["name"]: {"value": metrics[metric["name"]][0], "unit": metrics[metric["name"]][1]}
        for metric in listed
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
