"""Host-speed calibration: every timing is scaled to one reference speed.

On a shared host the speed of a vCPU swings by 1.5-2x within a second,
with the load other tenants put on the same cores; the same pure-Python
loop, the program and its CPU time all slow down together, so raw
times of identical runs spread far wider than any regression worth
catching.  The benchmark therefore times a fixed calibration kernel of
its own between the timed chunks of a run, on the same (pinned) CPU,
and scales the times of each chunk by ``reference / calibration``, the
calibration being the mean of the samples taken just before and just
after the chunk.  Every reported time is what it would read on a host
where one calibration sample takes the kernel's fixed ``reference``
seconds (:data:`KERNELS`).

The kernels are benchmark code, so a change to the program moves the
scaled figures by its full effect; only the host's speed cancels.  Each
mirrors the kind of work it stands in for.  ``library`` mixes
interpreter work (a dict tally over a Python list) with numpy calls on
a few thousand elements, like ``insert_window``.  ``service`` adds what
a request costs on top of that: a socket round trip, JSON decoding and
encoding, and an 8-byte-chunk FNV fold over flow-ID strings, like the
string path of key canonicalization.  Fitting the kernel matters: with
the ``library`` kernel alone, six ``service-mixed`` runs still spread
~16% on reads, as string and socket work swing more with the host than
numpy work does.  Each run also prints its raw (unscaled) figures and
the range of its calibration samples.
"""

from __future__ import annotations

import json
import os
import socket
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

#: Kernel repetitions in one sample.
REPEATS = 6
#: Timed work between two calibration samples, in seconds of the run's
#: clock: short enough that the host's speed barely moves within it.
CHUNK_S = 0.02
MASK64 = (1 << 64) - 1

_ITEMS = [int(x) for x in
          np.random.default_rng(0xCA1B).zipf(1.1, 1500) % 50_021]
_FLOWS = [f"10.{i % 251}.{(i * 7) % 253}.{i % 13}:{1024 + 37 * i}>192.168."
          f"{(i * 5) % 255}.{(i * 3) % 255}:{80 + i % 7}/6"
          for i in range(64)]
_BODY = json.dumps({"keys": _FLOWS}).encode("utf-8")
_PAIR: List[socket.socket] = []


def _library_kernel() -> int:
    arr = np.asarray(_ITEMS, dtype=np.int64)
    _, counts = np.unique(arr, return_counts=True)
    table = np.bincount((arr * 0x9E3779B1) & 0xFFF, minlength=1 << 12)
    tally: dict = {}
    for item in _ITEMS:
        tally[item] = tally.get(item, 0) + 1
    return len(tally) + int(table[0]) + int(counts[0])


def _service_kernel() -> int:
    if not _PAIR:
        _PAIR.extend(socket.socketpair())
    sender, receiver = _PAIR
    sender.sendall(_BODY)
    got = b""
    while len(got) < len(_BODY):
        got += receiver.recv(65536)
    names = json.loads(got)["keys"]
    acc = 0
    for name in names:
        data = name.encode("utf-8")
        value = 0xCBF29CE484222325 ^ len(data)
        for ofs in range(0, len(data), 8):
            chunk = int.from_bytes(data[ofs:ofs + 8], "little")
            value = ((value ^ chunk) * 0x100000001B3) & MASK64
        acc ^= value
    reply = json.dumps({"estimates": {n: i for i, n in enumerate(names)}})
    return acc + len(reply) + _library_kernel()


#: Kernel and reference seconds per sample (the reference host's time for
#: one sample: close to the median on a 2-vCPU Xeon cloud host, so scaled
#: figures read near raw ones there).
KERNELS: Dict[str, Tuple[Callable[[], int], float]] = {
    "library": (_library_kernel, 2.0e-3),
    "service": (_service_kernel, 4.0e-3),
}


def sample(clock: Callable[[], float], kernel: str) -> float:
    """Seconds of ``clock`` one calibration sample takes right now."""
    work = KERNELS[kernel][0]
    started = clock()
    for _ in range(REPEATS):
        work()
    return clock() - started


def pin_to_one_cpu() -> int:
    """Pin this process (and the processes it starts later) to one CPU,
    so calibration and timed work always run on the same core."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Speed:
    """Calibration samples around the timed chunks of one series.

    Timed work is charged to the current chunk with :meth:`charge`; once
    a chunk holds ``CHUNK_S`` of it, a new sample closes the chunk.
    :meth:`scale` gives each recorded chunk its factor
    ``reference / mean(sample before, sample after)``.
    """

    def __init__(self, kernel: str, clock: Callable[[], float]):
        self.kernel = kernel
        self.reference = KERNELS[kernel][1]
        self.clock = clock
        self.samples: List[float] = [sample(clock, kernel)]
        self.pending = 0.0

    @property
    def chunk(self) -> int:
        return len(self.samples) - 1

    def charge(self, seconds: float) -> None:
        self.pending += seconds
        if self.pending >= CHUNK_S:
            self.close()

    def close(self) -> None:
        """End the current chunk with a fresh sample."""
        self.samples.append(sample(self.clock, self.kernel))
        self.pending = 0.0

    def factors(self) -> np.ndarray:
        s = np.asarray(self.samples)
        if s.size == 1:
            s = np.append(s, s)
        return self.reference / ((s[:-1] + s[1:]) / 2)

    def scale(self, chunks: Sequence[int]) -> np.ndarray:
        """The factor of each chunk in ``chunks`` (call after the last
        chunk is closed)."""
        return self.factors()[np.asarray(chunks, dtype=np.int64)]

    def describe(self) -> str:
        return describe(self.kernel, self.samples)


def describe(kernel: str, samples: Sequence[float]) -> str:
    """One line on the calibration samples of a run."""
    s = np.asarray(samples) * 1e3
    return (f"{s.size} {kernel} calibration samples, {np.min(s):.3f}-"
            f"{np.max(s):.3f} ms (median {np.median(s):.3f}, reference "
            f"{KERNELS[kernel][1] * 1e3:.3f})")
