"""Shared helpers: import path, fixed settings, and summary statistics.

The benchmark imports the package from ``src/`` of the checkout it runs
in; importing :mod:`repro` fails loudly when ``src/`` is absent, which
is how a checkout without the program exits non-zero before any result.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Dict, Sequence

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import repro  # noqa: E402,F401  (fails fast without the program)

#: Scratch space for server state dirs and trace files, inside the
#: checkout (listed in the root ``.gitignore``).
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

#: Percentile of every tail the benchmark reports.  p99 was tried first:
#: on a shared 2-vCPU host the p99 of a pass's windows tracked host
#: stalls, not the program (10-run spread 0.37-0.40), while p95 keeps ten
#: or more samples beyond it in every pass or segment.  ``tail`` falls
#: back to a lower percentile if a series ever has fewer than ten beyond
#: it.
TAIL = 95.0
#: The ``/ingest`` tail a ladder step is judged by.
LADDER_TAIL = 99.0

#: Offered-rate ladder of the service workload (records/s, both tenants;
#: the first step is the nominal rate the open-loop latencies are read
#: at) and the ``/ingest`` tail-latency limit a step must meet.  Both are
#: part of the benchmark definition (see README.md).  The nominal rate is
#: an assumption, not measured traffic: a tenth to a twentieth of the
#: closed-loop capacity with string keys (0.19-0.37 Mops on a 2-vCPU
#: host), so it is read well below saturation; each step is 1.5x the one
#: before.
RATE_LADDER = (20_000, 30_000, 45_000, 67_500, 100_000, 150_000, 225_000,
               340_000, 500_000)
INGEST_TAIL_LIMIT_MS = 100.0


def now() -> float:
    return time.perf_counter()


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def tail(values: Sequence[float], percentile: float) -> Dict[str, float]:
    """The ``percentile`` of ``values`` plus how many samples lie beyond.

    Falls back to a lower percentile (by halving the share beyond) when
    fewer than ten samples would lie beyond the requested one, so the
    reported tail always rests on at least ten samples.
    """
    arr = np.asarray(values, dtype=np.float64)
    n = int(arr.size)
    p = percentile
    while p > 50.0 and n * (100.0 - p) / 100.0 < 10:
        p = 100.0 - 2 * (100.0 - p)
    p = max(p, 50.0)
    return {
        "value": float(np.percentile(arr, p)),
        "percentile": p,
        "samples": n,
        "beyond": int(np.count_nonzero(arr > np.percentile(arr, p))),
    }


def describe_tail(name: str, info: Dict[str, float], unit: str) -> str:
    return (f"{name} = p{info['percentile']:g} of {info['samples']} "
            f"samples ({info['beyond']} beyond): "
            f"{info['value']:.4f} {unit}")


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def count_shares(stats: Dict[str, float]) -> Dict[str, float]:
    """The deterministic ``stats()`` ratios of a flat sketch."""
    cold = stats["cold_l1_hits"] + stats["cold_l2_hits"] + \
        stats["cold_overflows"]
    return {
        "core.hash_ops_per_insert": stats["hash_ops"] / stats["inserts"],
        "core.burst_absorbed_share": stats["burst_absorbed"] /
        stats["inserts"],
        "core.cold_overflow_share": stats["cold_overflows"] / cold,
    }


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")

