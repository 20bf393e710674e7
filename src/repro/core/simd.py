"""SIMD bucket scans as a compare-cost model (paper Section III-H, Alg. 6).

The paper accelerates Burst Filter bucket scans with 128-bit AVX2 compares
(four 32-bit IDs per instruction).  Pure Python has no vector ISA, and the
scan changes nothing about what the filter stores or answers, so the SIMD
scan is reproduced as a *cost model* on the one
:class:`~repro.core.burst_filter.BurstFilter` layout: a scalar scan of a
``gamma``-cell bucket costs up to ``gamma`` compares, the SIMD scan
``ceil(gamma / 4)`` vector compares (``SIMD_LANES == 4`` for 128-bit
registers and 4-byte IDs), which is the quantity behind figure 19's SIMD
deltas.  :func:`make_hypersistent_simd` builds a sketch whose Burst Filter
counts ``compare_ops`` that way (``compare_model="simd"``).
"""

from __future__ import annotations

import math

from .kernels import ENGINE_KERNEL

#: 128-bit register / 32-bit IDs -> four comparisons per instruction.
SIMD_LANES = 4


def scalar_scan_cost(cells_per_bucket: int) -> int:
    """Worst-case compare count for a sequential bucket scan."""
    return cells_per_bucket


def simd_scan_cost(cells_per_bucket: int, lanes: int = SIMD_LANES) -> int:
    """Worst-case vector-compare count for an Algorithm 6 scan."""
    return math.ceil(cells_per_bucket / lanes)


def make_hypersistent_simd(
    config, engine: str = ENGINE_KERNEL
) -> "HypersistentSketch":
    """A :class:`HypersistentSketch` whose stage 1 counts SIMD scan costs.

    Identical state, estimates, and reports to the plain sketch; only the
    Burst Filter's ``compare_ops`` follow Algorithm 6's vector cost model.
    ``engine`` selects the batch ingestion backend, exactly as on
    :class:`~repro.core.hypersistent.HypersistentSketch`.
    """
    # local: burst_filter imports this module for simd_scan_cost
    from .burst_filter import COMPARE_SIMD, BurstFilter
    from .hypersistent import HypersistentSketch

    sketch = HypersistentSketch(config, engine=engine)
    n_burst = config.burst_buckets()
    if n_burst:
        sketch.burst = BurstFilter(
            n_burst,
            config.burst_cells_per_bucket,
            seed=config.seed ^ 0xB0_0001,
            compare_model=COMPARE_SIMD,
        )
    return sketch
