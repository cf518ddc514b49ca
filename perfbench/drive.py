"""Spawning ``repro.cli serve`` and driving it over HTTP.

One client process, at most ``nproc`` threads, one keep-alive connection
per thread.  Two load loops:

* :func:`closed_loop` — every thread sends its next request as soon as the
  previous one answered; requests are taken from the plan in order.
* :func:`open_loop` — requests are sent at their planned due times.  Each
  is timed from its due time, so a stall also counts against the requests
  queued behind it, and the lateness of each send is recorded.  Updates
  are sent one at a time in plan order, so the final state of every
  document is deterministic.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import queue
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HOST = "127.0.0.1"
HEADERS = {"Content-Type": "application/json"}


@dataclass
class Outcome:
    """What one request came back as."""

    index: int
    kind: str
    status: int
    digest: str
    size: int
    #: seconds from the start of the run: when the request was due (its
    #: planned time, or when its closed-loop client became free), when it
    #: was sent and when its answer arrived
    due: float
    sent: float
    done: float
    #: the response body, kept where the check needs more than its digest
    body: bytes | None = None
    #: perf_counter() at the start of the run
    origin: float = 0.0

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


class Connection:
    """A keep-alive HTTP/1.1 connection that reconnects once on a dropped
    socket."""

    def __init__(self, port: int, timeout: float = 60.0):
        self.port = port
        self.timeout = timeout
        self._conn = http.client.HTTPConnection(HOST, port, timeout=timeout)

    def post(self, path: str, body: bytes) -> tuple[int, bytes]:
        try:
            self._conn.request("POST", path, body, HEADERS)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (ConnectionError, http.client.HTTPException):
            self._conn.close()
            self._conn = http.client.HTTPConnection(HOST, self.port, timeout=self.timeout)
            self._conn.request("POST", path, body, HEADERS)
            response = self._conn.getresponse()
            return response.status, response.read()

    def close(self) -> None:
        self._conn.close()


def encode(requests) -> list[bytes]:
    return [json.dumps(request.payload).encode("utf-8") for request in requests]


def _send(connection: Connection, index: int, request, body: bytes, origin: float,
          due: float, keep_body: bool) -> Outcome:
    sent = time.perf_counter() - origin
    try:
        status, data = connection.post(request.path, body)
    except (OSError, http.client.HTTPException) as error:
        status, data = 0, repr(error).encode("utf-8")
    done = time.perf_counter() - origin
    return Outcome(
        index=index,
        kind=request.kind,
        status=status,
        digest=hashlib.sha256(data).hexdigest(),
        size=len(data),
        due=due,
        sent=sent,
        done=done,
        body=data if keep_body or status != 200 else None,
        origin=origin,
    )


def closed_loop(port: int, requests, clients: int, seconds: float,
                keep_bodies: tuple[str, ...] = ()) -> tuple[list[Outcome], float]:
    """Send ``requests`` in order from ``clients`` threads for ``seconds``.

    A request is due when its thread's previous answer arrived, so its
    lateness is the client's own turnaround.  Returns the outcomes (plan
    index order) and the elapsed seconds from the start until the last
    in-flight request answered.  The plan is reused from the top if the
    run outlasts it.
    """
    bodies = encode(requests)
    lock = threading.Lock()
    cursor = [0]
    results: list[list[Outcome]] = [[] for _ in range(clients)]
    start = threading.Barrier(clients + 1)
    origin = [0.0]

    def work(slot: int) -> None:
        connection = Connection(port)
        try:
            start.wait()
            due = 0.0
            while due < seconds:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                position = index % len(requests)
                request = requests[position]
                outcome = _send(connection, index, request, bodies[position], origin[0], due,
                                request.kind in keep_bodies)
                results[slot].append(outcome)
                due = outcome.done
        finally:
            connection.close()

    threads = [threading.Thread(target=work, args=(slot,)) for slot in range(clients)]
    for thread in threads:
        thread.start()
    origin[0] = time.perf_counter()
    start.wait()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - origin[0]
    return sorted((o for bucket in results for o in bucket), key=lambda o: o.index), elapsed


def open_loop(port: int, requests, threads: int) -> tuple[list[Outcome], float]:
    """Send each request at its due time from ``threads`` connections.

    The threads take requests in due order from one queue.  Updates keep
    their plan order: a thread holding an update waits until the previous
    update was answered, so the final document state is deterministic.
    Returns outcomes in plan order and the elapsed seconds until the last
    answer.
    """
    bodies = encode(requests)
    pending: queue.Queue = queue.Queue()
    for index in range(len(requests)):
        pending.put(index)
    writes = [i for i, request in enumerate(requests) if request.kind == "update"]
    turn = [0]
    ordered = threading.Condition()
    results: list[Outcome] = []
    results_lock = threading.Lock()
    origin = time.perf_counter() + 0.05

    def work() -> None:
        connection = Connection(port)
        try:
            while True:
                try:
                    index = pending.get_nowait()
                except queue.Empty:
                    return
                request = requests[index]
                wait = origin + request.due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                if request.kind == "update":
                    with ordered:
                        ordered.wait_for(lambda: writes[turn[0]] == index)
                outcome = _send(connection, index, request, bodies[index], origin, request.due,
                                request.kind == "batch")
                if request.kind == "update":
                    with ordered:
                        turn[0] += 1
                        ordered.notify_all()
                with results_lock:
                    results.append(outcome)
        finally:
            connection.close()

    workers = [threading.Thread(target=work) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - origin
    return sorted(results, key=lambda o: o.index), elapsed


def sequential(port: int, requests) -> list[Outcome]:
    """Send ``requests`` one at a time from one connection (the write probe)."""
    bodies = encode(requests)
    connection = Connection(port)
    origin = time.perf_counter()
    outcomes: list[Outcome] = []
    try:
        for index, request in enumerate(requests):
            due = outcomes[-1].done if outcomes else 0.0
            outcomes.append(_send(connection, index, request, bodies[index], origin, due, request.kind == "batch"))
        return outcomes
    finally:
        connection.close()


class Server:
    """One spawned ``python -m repro.cli serve`` process."""

    def __init__(self, root: str, work: str, serve_args: list[str], label: str):
        self.port_file = os.path.join(work, f"{label}.port")
        self.stderr_path = os.path.join(work, f"{label}.stderr")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        command = [sys.executable, "-m", "repro.cli", "serve", *serve_args,
                   "--host", HOST, "--port", "0", "--port-file", self.port_file]
        with open(self.stderr_path, "w", encoding="utf-8") as stderr:
            self.process = subprocess.Popen(
                command, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=stderr
            )
        self.port = 0

    def wait_port(self, timeout: float = 120.0) -> int:
        deadline = time.perf_counter() + timeout
        while not os.path.exists(self.port_file):
            if self.process.poll() is not None:
                raise RuntimeError(f"serve exited with {self.process.returncode}: {self.stderr_tail()}")
            if time.perf_counter() > deadline:
                raise RuntimeError(f"serve published no port within {timeout:.0f}s")
            time.sleep(0.002)
        with open(self.port_file, "r", encoding="utf-8") as handle:
            self.port = int(handle.read().strip())
        return self.port

    def peak_rss_mb(self) -> float:
        """Peak resident set size (VmHWM) of the serve process, in MB."""
        with open(f"/proc/{self.process.pid}/status", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stderr_tail(self) -> str:
        with open(self.stderr_path, "r", encoding="utf-8", errors="replace") as handle:
            return handle.read()[-2000:]

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def first_answer(server: Server, path: str, body: bytes, expected: bytes, timeout: float = 120.0) -> None:
    """Poll ``server`` until ``body`` at ``path`` answers ``expected``."""
    port = server.wait_port(timeout)
    deadline = time.perf_counter() + timeout
    while True:
        try:
            connection = Connection(port)
            try:
                status, data = connection.post(path, body)
            finally:
                connection.close()
            if status == 200 and data == expected:
                return
            raise RuntimeError(f"first answer differs from the reference (status {status})")
        except ConnectionRefusedError:
            if time.perf_counter() > deadline:
                raise
            time.sleep(0.002)
