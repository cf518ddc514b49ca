"""Byte-for-byte checks of every response against an in-process reference.

The reference is a :class:`repro.api.service.SnippetService` over a corpus
built from the same generated XML files the server's snapshot was written
from.  Its default (meta-free) wire bytes are what the server must answer:
the HTTP body is ``json.dumps(response, sort_keys=True)`` of the protocol
dict, and a cluster answers byte-identically to a single corpus.

Reads that raced an update (mixed_writes) are checked against every
reference state the read could have observed: from the number of updates
acknowledged before it was sent to the number sent before it answered.
"""

from __future__ import annotations

import hashlib
import json

from repro.api.service import SnippetService
from repro.corpus import Corpus


def wire(response: dict) -> bytes:
    return json.dumps(response, sort_keys=True).encode("utf-8")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reference_service(paths: list[str]) -> SnippetService:
    """A service over the XML files, ingested like ``corpus-save --file``."""
    corpus = Corpus()
    for path in paths:
        corpus.add_file(path)
    return SnippetService(corpus)


def fresh_service(documents: dict[str, str]) -> SnippetService:
    """A service over a corpus built from scratch from ``documents``."""
    corpus = Corpus()
    for name in sorted(documents):
        corpus.add_xml(name, documents[name])
    return SnippetService(corpus)


def check_static(service: SnippetService, requests, outcomes) -> int:
    """Check outcomes of requests served while no update ran; returns the
    number of mismatches.  Each distinct request is evaluated once."""
    expected: dict[int, str] = {}
    failed = 0
    for outcome in outcomes:
        position = outcome.index % len(requests)
        if position not in expected:
            expected[position] = digest(wire(service.handle_dict(requests[position].payload)))
        if outcome.status != 200 or outcome.digest != expected[position]:
            failed += 1
    return failed


def check_sequential(service: SnippetService, requests, outcomes) -> int:
    """Replay ``requests`` in order on the reference (updates included) and
    compare every answer; returns the number of mismatches."""
    failed = 0
    for request, outcome in zip(requests, outcomes):
        answer = digest(wire(service.handle_dict(request.payload)))
        if outcome.status != 200 or outcome.digest != answer:
            failed += 1
    return failed + len(requests) - len(outcomes)


def check_racing(service: SnippetService, requests, outcomes) -> int:
    """Check an open-loop run whose reads raced sequential updates.

    Updates must answer exactly as the reference applying them in plan
    order.  A read is correct when it equals the reference at some state in
    its window; a batch may also have seen an update land between two of
    its (query, document) parts, so it is finally checked part by part.
    Returns the number of mismatches.
    """
    updates = [o for o in outcomes if o.kind == "update"]
    acked = sorted(o.done for o in updates)
    sent = sorted(o.sent for o in updates)
    pending = []
    for outcome in outcomes:
        if outcome.kind == "update":
            continue
        low = sum(1 for t in acked if t < outcome.sent)
        high = sum(1 for t in sent if t < outcome.done)
        pending.append((outcome, low, high))
    failed = sum(1 for outcome, _, _ in pending if outcome.status != 200)
    pending = [item for item in pending if item[0].status == 200]
    matched: set[int] = set()
    parts: dict[int, dict] = {}
    for state in range(len(updates) + 1):
        for outcome, low, high in pending:
            if outcome.index in matched or not low <= state <= high:
                continue
            payload = requests[outcome.index].payload
            if digest(wire(service.handle_dict(payload))) == outcome.digest:
                matched.add(outcome.index)
            elif outcome.kind == "batch":
                _collect_parts(service, payload, parts.setdefault(outcome.index, {}))
        if state < len(updates):
            update = updates[state]
            answer = digest(wire(service.handle_dict(requests[update.index].payload)))
            if update.status != 200 or update.digest != answer:
                failed += 1
    for outcome, _, _ in pending:
        if outcome.index in matched:
            continue
        if outcome.kind != "batch" or not _parts_match(outcome.body, parts.get(outcome.index, {})):
            failed += 1
    return failed


def _envelope(response: dict) -> str:
    return digest(wire({**response, "entries": [{**e, "responses": []} for e in response.get("entries", [])]}))


def _collect_parts(service: SnippetService, payload: dict, seen: dict) -> None:
    """Record the reference wire of a batch's envelope and of each of its
    (query, document) parts at the current state."""
    response = service.handle_dict(payload)
    seen.setdefault("envelope", set()).add(_envelope(response))
    parts = seen.setdefault("parts", [])
    position = 0
    for entry in response["entries"]:
        for part in entry["responses"]:
            if position == len(parts):
                parts.append(set())
            parts[position].add(digest(wire(part)))
            position += 1


def _parts_match(body: bytes | None, seen: dict) -> bool:
    """A batch body is correct when it is canonical JSON, its envelope
    matches the reference and every part matches the reference at some
    state of the batch's window."""
    if body is None or not seen:
        return False
    answer = json.loads(body)
    if wire(answer) != body or _envelope(answer) not in seen["envelope"]:
        return False
    parts = seen["parts"]
    position = 0
    for entry in answer["entries"]:
        for part in entry["responses"]:
            if position >= len(parts) or digest(wire(part)) not in parts[position]:
                return False
            position += 1
    return position == len(parts)
