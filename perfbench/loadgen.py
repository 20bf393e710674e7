"""Seeded inputs for every workload, and the open-loop request runner.

Everything a run feeds the program is derived from ``--seed`` here:
traces come from :mod:`repro.streams` (``caida_like``, ``zipf_trace``),
string flow IDs are a fixed function of the integer keys, chunk sizes
are Pareto draws, and the service schedule is a list of requests with
due times.  The program only ever sees the generated items.
"""

from __future__ import annotations

import contextlib
import gc
import http.client
import json
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from common import now
from repro.common.hashing import canonical_key, splitmix64
from repro.streams import caida_like, zipf_trace

#: Keys at or above this value never occur in a generated trace; point
#: queries draw their "absent" keys from here.
ABSENT_BASE = 1 << 48


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


# ----------------------------------------------------------------------
# library workloads
# ----------------------------------------------------------------------
@dataclass
class LibraryInputs:
    windows: List[List[int]]          # raw item lists, one per window
    n_records: int
    distinct_hint: float               # mean distinct keys per window
    read_batches: List[List[int]]      # point-query batches
    reads_after_window: bool           # interleave one batch per window
    threshold: int                     # find-persistent report threshold


def paper_caida(seed: int) -> LibraryInputs:
    """The paper's CAIDA regime: ~1.8k Zipf-1.1 records per window."""
    trace = caida_like(scale=1.0, n_windows=1500, seed=seed)
    windows = [list(items) for _, items in trace.windows()]
    batches = _point_queries(trace.items, seed, n_batches=300, size=64)
    return LibraryInputs(windows, trace.n_records,
                         trace.mean_window_distinct(), batches, False,
                         threshold=trace.n_windows // 2)


def sparse_windows(seed: int) -> LibraryInputs:
    """~30 records per window over 4000 windows, 4 reads per window."""
    trace = zipf_trace(n_records=120_000, n_windows=4000, skew=1.1,
                       seed=seed, name="sparse")
    windows = [list(items) for _, items in trace.windows()]
    batches = _point_queries(trace.items, seed, n_batches=4000, size=4)
    return LibraryInputs(windows, trace.n_records,
                         trace.mean_window_distinct(), batches, True,
                         threshold=trace.n_windows // 8)


def _point_queries(items: Sequence[int], seed: int, n_batches: int,
                   size: int) -> List[List[int]]:
    """Zipf-drawn query keys: record positions sampled uniformly give a
    frequency-weighted (Zipf) key draw; one key in eight is absent."""
    rng = _rng(seed, 0x9E)
    n = n_batches * size
    picks = rng.integers(0, len(items), size=n)
    keys = [int(items[i]) for i in picks]
    absent = rng.random(n) < 0.125
    fresh = rng.integers(ABSENT_BASE, ABSENT_BASE << 8, size=n)
    for i in np.flatnonzero(absent):
        keys[i] = int(fresh[i])
    return [keys[i:i + size] for i in range(0, n, size)]


# ----------------------------------------------------------------------
# service workload
# ----------------------------------------------------------------------
def flow_id(key: int) -> str:
    """A deterministic 5-tuple-shaped flow ID string for an integer key."""
    h = splitmix64(key)
    return (f"10.{h & 255}.{(h >> 8) & 255}.{(h >> 16) & 255}:"
            f"{1024 + ((h >> 24) & 0xEFFF)}>192.168.{(h >> 40) & 255}."
            f"{(h >> 48) & 255}:{(h >> 56) * 3 + 80}/6")


@dataclass
class Request:
    due: float                 # seconds after the phase start
    route: str                 # "ingest" | "window" | "estimate"
    tenant: str
    body: bytes
    keys: Optional[np.ndarray] = None   # canonical uint64 of the items
    n_items: int = 0
    names: Optional[List[str]] = None   # /estimate: the keys as sent


@dataclass
class Outcome:
    request: Request
    sent: float = 0.0          # absolute perf_counter times
    done: float = 0.0
    status: int = 0
    response: bytes = b""
    error: str = ""


class KeyStream:
    """An endless seeded Zipf record stream with string flow IDs.

    Records come from ``caida_like`` (Zipf 1.1 background plus planted
    persistent flows), generated in blocks as the schedule consumes them.
    Each distinct integer key maps to one flow-ID string and to that
    string's canonical key, computed once with the library's own
    :func:`~repro.common.hashing.canonical_key` for the offline check.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.block = 0
        self.buffer = np.empty(0, dtype=np.int64)
        self.strings: Dict[int, str] = {}
        self.canon: Dict[int, int] = {}
        self.seen: List[int] = []

    def _refill(self) -> None:
        trace = caida_like(scale=0.2, n_windows=300,
                           seed=self.seed * 1009 + self.block)
        self.block += 1
        self.buffer = np.concatenate(
            (self.buffer, np.asarray(trace.items, dtype=np.int64)))

    def take(self, n: int) -> np.ndarray:
        while self.buffer.size < n:
            self._refill()
        out, self.buffer = self.buffer[:n], self.buffer[n:]
        for key in np.unique(out).tolist():
            if key not in self.strings:
                text = flow_id(key)
                self.strings[key] = text
                self.canon[key] = canonical_key(text)
                self.seen.append(key)
        return out

    def encode(self, keys: np.ndarray, field_name: str) -> Tuple[bytes,
                                                                 np.ndarray]:
        strings = self.strings
        canon = self.canon
        as_list = keys.tolist()
        body = json.dumps({field_name: [strings[k] for k in as_list]})
        return (body.encode("utf-8"),
                np.fromiter((canon[k] for k in as_list), dtype=np.uint64,
                            count=len(as_list)))


def pareto_sizes(rng: np.random.Generator, total: int, shape: float = 1.16,
                 minimum: int = 40, cap: int = 2000) -> List[int]:
    """Chunk sizes summing to ``total``: ``(pareto(shape) + 1) * minimum``
    capped at ``cap``.  Shape 1.16 is the usual 80/20 heavy tail; the
    40-record minimum and the cap are assumptions, not measured traffic.
    The sizes have median ~72 and mean ~155 records, and ~1% hit the
    cap."""
    sizes = []
    left = total
    while left > 0:
        size = int(min(cap, (rng.pareto(shape) + 1.0) * minimum))
        size = min(size, left)
        sizes.append(size)
        left -= size
    return sizes


def writer_schedule(stream: KeyStream, rng: np.random.Generator,
                    rate: float, seconds: float, cadence: float,
                    tenants: Sequence[str]) -> List[Request]:
    """Open-loop writes: Pareto ``/ingest`` chunks at ``rate`` records/s
    in total, alternating tenants, and a barrier for every tenant every
    ``cadence`` seconds.  The tenants' barriers are staggered evenly
    across the cadence; a phase ends once every tenant's last window is
    closed."""
    out: List[Request] = []
    n_windows = max(1, int(round(seconds / cadence)))
    per_window = int(round(rate * cadence))
    slot = cadence / len(tenants)
    turn = 0
    for w in range(n_windows):
        start = w * cadence
        sent = 0
        barriers = [Request(start + slot * (i + 1), "window", tenant,
                            b'{"count": 1}')
                    for i, tenant in enumerate(tenants)]
        for size in pareto_sizes(rng, per_window):
            due = start + cadence * sent / per_window
            while barriers and barriers[0].due <= due:
                out.append(barriers.pop(0))
            keys = stream.take(size)
            body, canon = stream.encode(keys, "items")
            tenant = tenants[turn % len(tenants)]
            turn += 1
            out.append(Request(due, "ingest", tenant, body, canon, size))
            sent += size
        out += barriers
    return out


def reader_schedule(stream: KeyStream, rng: np.random.Generator,
                    rate: float, seconds: float,
                    tenants: Sequence[str], size: int) -> List[Request]:
    """``rate`` ``/estimate`` calls per second of ``size`` keys each,
    alternating tenants; keys are drawn from flows already generated
    (Zipf by construction) with one in eight never sent."""
    out = []
    pool = np.asarray(stream.seen, dtype=np.int64)
    for i in range(int(rate * seconds)):
        picks = pool[rng.integers(0, pool.size, size=size)].tolist()
        absent = rng.random(size) < 0.125
        names, canon = [], []
        for j, key in enumerate(picks):
            if absent[j]:
                name = flow_id(ABSENT_BASE + i * size + j)
                names.append(name)
                canon.append(canonical_key(name))
            else:
                names.append(stream.strings[key])
                canon.append(stream.canon[key])
        body = json.dumps({"keys": names}).encode("utf-8")
        out.append(Request(i / rate, "estimate", tenants[i % len(tenants)],
                           body, np.asarray(canon, dtype=np.uint64), size,
                           names))
    return out


# ----------------------------------------------------------------------
# open-loop runner
# ----------------------------------------------------------------------
class OpenLoop(threading.Thread):
    """Send ``requests`` on one keep-alive connection at their due times.

    The schedule never waits for the server: a request due while the
    previous one is still in flight goes out as soon as the connection
    is free, and its latency counts from its due time.  Requests still
    unsent ``give_up`` seconds after the last due time are dropped (not
    attempted), which bounds a phase offered beyond capacity.
    """

    def __init__(self, port: int, requests: List[Request], start: float,
                 give_up: float = 2.0):
        super().__init__(daemon=True)
        self.port = port
        self.requests = requests
        self.start_at = start
        self.deadline = start + (requests[-1].due if requests else 0.0) \
            + give_up
        self.outcomes: List[Outcome] = []

    def run(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=60)
        headers = {"Content-Type": "application/json"}
        try:
            for req in self.requests:
                due = self.start_at + req.due
                wait = due - now()
                if wait > 0:
                    time.sleep(wait)
                elif now() > self.deadline:
                    break
                out = Outcome(req)
                out.sent = now()
                try:
                    conn.request("POST", f"/tenants/{req.tenant}/"
                                 f"{req.route}", body=req.body,
                                 headers=headers)
                    resp = conn.getresponse()
                    out.response = resp.read()
                    out.status = resp.status
                except (OSError, http.client.HTTPException) as exc:
                    out.error = type(exc).__name__
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", self.port, timeout=60)
                out.done = now()
                self.outcomes.append(out)
        finally:
            conn.close()


@contextlib.contextmanager
def collector_paused():
    """Keep the generator's own garbage collector out of a timed phase:
    its heap of pre-encoded requests is frozen first, so a collection
    pause on the client never shows up as server latency."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def pipelined(port: int, requests: List[Request], seconds: float,
              depth: int = 16) -> List[Outcome]:
    """Closed-loop requests on one connection, up to ``depth`` in flight
    (HTTP/1.1 pipelining), for at most ``seconds``.

    Keeping the server's socket full measures what the server can do,
    not the wake-up latency of a request/response ping-pong between two
    processes.  Responses come back in request order.
    """
    sock = socket.create_connection(("127.0.0.1", port), timeout=60)
    replies = sock.makefile("rb")
    outcomes: List[Outcome] = []
    deadline = now() + seconds
    sent = received = 0
    try:
        while received < sent or (sent < len(requests)
                                  and now() < deadline):
            while sent < len(requests) and sent - received < depth \
                    and now() < deadline:
                req = requests[sent]
                head = (f"POST /tenants/{req.tenant}/{req.route} HTTP/1.1"
                        f"\r\nHost: 127.0.0.1\r\nContent-Type: "
                        f"application/json\r\nContent-Length: "
                        f"{len(req.body)}\r\n\r\n")
                out = Outcome(req)
                out.sent = now()
                sock.sendall(head.encode("latin-1") + req.body)
                outcomes.append(out)
                sent += 1
            if received == sent:
                break
            out = outcomes[received]
            out.status = int(replies.readline().split()[1])
            length = 0
            for line in iter(replies.readline, b"\r\n"):
                key, _, value = line.decode("latin-1").partition(":")
                if key.strip().lower() == "content-length":
                    length = int(value)
            out.response = replies.read(length)
            out.done = now()
            received += 1
    finally:
        replies.close()
        sock.close()
    return outcomes
