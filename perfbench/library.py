"""Library workloads: ``paper-caida`` and ``sparse-windows``.

Each run builds the inputs from the seed, checks the fast engine
(``engine="kernel"``) against the scalar oracle, then repeats timed
passes until ``--seconds`` have been spent.  A pass builds a fresh
sketch, feeds every window's raw item list through ``insert_window``,
and runs the workload's point queries (after ingest on ``paper-caida``,
one small batch after every window on ``sparse-windows``).  Every pass
must give the same answers and the same ``stats()`` counters.

Timings are the thread's CPU time (the program is single-threaded, so
this leaves out time the host gave to others), scaled to the reference
host speed by calibration samples taken every ~20 ms of timed work
(:mod:`hostspeed`).
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from typing import Dict, List, Tuple

import numpy as np

import loadgen
import spans
from common import (TAIL, count_shares, describe_tail, median, metric, now,
                    tail)
from hostspeed import Speed, describe
from repro.core.config import HSConfig
from repro.core.hypersistent import HypersistentSketch

MEMORY_BYTES = 64 * 1024
MIN_PASSES = 3
SETUP_SAMPLES = 501
#: Clock of every library timing: CPU time of the (only) thread.
CLOCK = time.thread_time
#: Windows the scalar oracle replays on ``paper-caida`` (the full run
#: would take ~20 s of scalar time per run); ``sparse-windows`` is
#: checked over all its windows.
ORACLE_PREFIX = {"paper-caida": 200, "sparse-windows": None}
NUMPY_COUNT_WINDOWS = 200
#: Windows fed to the sketch whose allocations ``mem_mb`` reports; the
#: sketch's tables are fixed-size, so its peak is reached early.
MEMORY_WINDOWS = 200

INPUTS = {
    "paper-caida": loadgen.paper_caida,
    "sparse-windows": loadgen.sparse_windows,
}


class Pass:
    """One timed pass: per-window and per-read-batch latencies.

    ``window_s``/``read_s`` are raw seconds; ``window_x``/``read_x`` the
    same scaled to the reference host speed."""

    def __init__(self) -> None:
        self.window_s: List[float] = []
        self.read_s: List[float] = []
        self.window_chunk: List[int] = []
        self.read_chunk: List[int] = []
        self.window_x = np.zeros(0)
        self.read_x = np.zeros(0)
        self.calibration: List[float] = []
        self.answers: List[int] = []
        self.report: Dict[int, int] = {}
        self.stats: Dict[str, float] = {}
        self.stages: Dict[str, int] = {"l1": 0, "l2": 0, "hot": 0}


def _build(inputs: loadgen.LibraryInputs, seed: int,
           engine: str = "kernel") -> HypersistentSketch:
    config = HSConfig.for_estimation(
        MEMORY_BYTES, len(inputs.windows), seed=seed,
        window_distinct_hint=inputs.distinct_hint,
    )
    return HypersistentSketch(config, engine=engine)


def _read(sketch, batch, out: Pass, chunk: int, rec=None) -> float:
    started = CLOCK()
    answers = [sketch.query(key) for key in batch]
    took = CLOCK() - started
    out.read_s.append(took)
    out.read_chunk.append(chunk)
    out.answers += answers
    if rec is not None:       # traced: which stage answers each key
        for key in batch:
            out.stages[sketch.resolving_stage(key)] += 1
    return took


def run_pass(sketch, inputs: loadgen.LibraryInputs, n_windows=None,
             rec=None) -> Pass:
    """Ingest and read, calibrating between chunks of timed work."""
    out = Pass()
    windows = inputs.windows[:n_windows] if n_windows else inputs.windows
    batches = inputs.read_batches
    clock = CLOCK
    speed = Speed("library", clock)
    for w, items in enumerate(windows):
        if rec is not None:
            rec.rid = w
        chunk = speed.chunk
        started = clock()
        sketch.insert_window(items)
        took = clock() - started
        out.window_s.append(took)
        out.window_chunk.append(chunk)
        if inputs.reads_after_window:
            took += _read(sketch, batches[w], out, chunk, rec)
        speed.charge(took)
    if not inputs.reads_after_window:
        for batch in batches:
            speed.charge(_read(sketch, batch, out, speed.chunk, rec))
    out.report = sketch.report(inputs.threshold)
    out.stats = sketch.stats()
    speed.close()
    out.calibration = speed.samples
    out.window_x = np.asarray(out.window_s) * speed.scale(out.window_chunk)
    out.read_x = np.asarray(out.read_s) * speed.scale(out.read_chunk)
    return out


def _oracle_check(name: str, inputs: loadgen.LibraryInputs, seed: int,
                  first: Pass) -> Tuple[int, int, List[str]]:
    """Scalar oracle vs kernel on the same windows.  Returns
    (attempted, failed, notes)."""
    prefix = ORACLE_PREFIX[name]
    oracle = _build(inputs, seed, engine="scalar")
    if prefix is None:
        ref = run_pass(oracle, inputs)
        got = first
    else:
        ref = run_pass(oracle, inputs, n_windows=prefix)
        got = run_pass(_build(inputs, seed), inputs, n_windows=prefix)
    answers = np.asarray(got.answers) != np.asarray(ref.answers)
    failed = int(answers.sum())
    notes = []
    if got.report != ref.report:
        failed += 1
        notes.append("report differs from the scalar oracle")
    if got.stats != ref.stats:
        failed += 1
        notes.append("stats() differ from the scalar oracle")
    scope = f"first {prefix} windows" if prefix else "all windows"
    notes.append(f"oracle check over {scope}: {len(ref.answers)} point "
                 f"queries, report, stats(); {failed} mismatches")
    return len(ref.answers) + 2, failed, notes


def sketch_memory_mb(inputs: loadgen.LibraryInputs, seed: int) -> float:
    """Peak memory the program allocates to build a sketch and ingest the
    first MEMORY_WINDOWS windows, in MiB.  The inputs exist before
    tracing starts, so only the program's own allocations count
    (tracemalloc sees numpy's buffers too)."""
    tracemalloc.start()
    try:
        sketch = _build(inputs, seed)
        for items in inputs.windows[:MEMORY_WINDOWS]:
            sketch.insert_window(items)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20


def ingest_counts(inputs: loadgen.LibraryInputs, seed: int
                  ) -> Dict[str, float]:
    """``stats()`` shares of a pass with no reads: queries add to the
    cold filter's ``hash_ops``, so they stay out of a per-insert count."""
    sketch = _build(inputs, seed)
    for items in inputs.windows:
        sketch.insert_window(items)
    return count_shares(sketch.stats())


def run(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    inputs = INPUTS[name](seed)
    gc.collect()
    gc.freeze()     # the inputs stay alive all run; keep them out of GC
    lines = [f"{name}: {inputs.n_records} records in "
             f"{len(inputs.windows)} windows, "
             f"{sum(map(len, inputs.read_batches))} point queries per pass"]

    speed = Speed("library", CLOCK)
    setup, chunks = [], []
    for _ in range(SETUP_SAMPLES):
        chunks.append(speed.chunk)
        started = CLOCK()
        _build(inputs, seed)
        setup.append(CLOCK() - started)
        speed.charge(setup[-1])
    speed.close()
    setup = np.asarray(setup) * speed.scale(chunks)

    passes: List[Pass] = []
    traced: List[Pass] = []
    rec = spans.Recorder() if trace else None
    budget = seconds / 2 if trace else seconds
    started = now()
    while len(passes) < MIN_PASSES or now() - started < budget:
        gc.collect()
        passes.append(run_pass(_build(inputs, seed), inputs))
    attempted, failed, notes = _oracle_check(name, inputs, seed, passes[0])
    if trace:
        spans.install_core(rec)
        started = now()
        while len(traced) < MIN_PASSES or now() - started < budget:
            gc.collect()
            traced.append(run_pass(_build(inputs, seed), inputs, rec=rec))
    for p in passes[1:] + traced:
        attempted += len(p.answers) + 2
        failed += int((np.asarray(p.answers) !=
                       np.asarray(passes[0].answers)).sum())
        failed += int(p.report != passes[0].report)
        failed += int(p.stats != passes[0].stats)
    attempted += sum(len(p.window_s) for p in passes + traced)
    lines += notes

    if not trace:
        metrics, more = _end_to_end(inputs, setup, passes)
        metrics["mem_mb"] = metric(sketch_memory_mb(inputs, seed), "MiB")
        return {"lines": lines + more, "attempted": attempted,
                "failed": failed, "metrics": metrics}

    layers, more_lines, bad = _layers(name, inputs, seed, passes, traced,
                                      rec)
    return {"lines": lines + more_lines, "attempted": attempted,
            "failed": failed + bad, "metrics": layers}


def _end_to_end(inputs, setup, passes):
    """End-to-end metrics from the scaled timings of every pass."""
    def mops(series):
        return " ".join(
            f"{inputs.n_records / np.sum(getattr(p, series)) / 1e6:.3f}"
            for p in passes)

    lines = [f"ingest Mops per pass, raw: {mops('window_s')}",
             f"ingest Mops per pass, scaled: {mops('window_x')}",
             describe("library", [s for p in passes for s in p.calibration])]

    # Every pass feeds the same windows and batches, so each window's
    # (and each read batch's) cost is taken as its median over the
    # passes: a stall of the host in one pass moves no figure, and what
    # is left is how the cost spreads over the workload's windows.
    typical = {key: np.median(np.stack([getattr(p, series)
                                        for p in passes]), axis=0) * scale
               for key, series, scale in (("window", "window_x", 1e6),
                                          ("estimate", "read_x", 1e3))}
    tails = {key: tail(values, TAIL) for key, values in typical.items()}
    for key, unit in (("window", "us"), ("estimate", "ms")):
        lines.append(f"{key} latency, median over {len(passes)} passes "
                     f"per {key}: " + describe_tail("tail", tails[key], unit))
    n_queries = len(passes[0].answers)
    metrics = {
        "setup_s": metric(median(setup), "s"),
        "ingest_mops": metric(
            inputs.n_records / typical["window"].sum(), "Mops"),
        "window_p50_us": metric(median(typical["window"]), "us"),
        "window_tail_us": metric(tails["window"]["value"], "us"),
        "query_kqps": metric(n_queries / typical["estimate"].sum(), "kqps"),
        "estimate_p50_ms": metric(median(typical["estimate"]), "ms"),
        "estimate_tail_ms": metric(tails["estimate"]["value"], "ms"),
    }
    return metrics, lines


def _layers(name, inputs, seed, passes, traced, rec):
    """Per-layer metrics of a traced library run."""
    lines: List[str] = []
    bad = 0
    info = spans.self_times(rec)
    durations = np.asarray(rec.ends) - np.asarray(rec.starts)
    total = spans.by_name(rec, durations)
    selfs = spans.by_name(rec, info["self"])
    n_windows = sum(len(p.window_s) for p in traced)
    n_queries = sum(len(p.answers) for p in traced)
    lines.append(f"trace: {len(rec.names)} spans in {info['trees']} trees; "
                 f"max |sum(self) - root| = "
                 f"{info['max_tree_error'] * 1e9:.1f} ns")
    if info["max_tree_error"] > 1e-6:
        bad += 1
        lines.append("trace check failed: self times do not add up")

    def per_window_us(span):
        return float(total.get(span, np.zeros(0)).sum() / n_windows * 1e6)

    window_self = (selfs["core.insert_window"].sum() +
                   selfs["core.ingest_window"].sum()) / n_windows * 1e6
    untraced = np.mean(np.concatenate([p.window_x for p in passes]))
    traced_mean = np.mean(np.concatenate([p.window_x for p in traced]))

    counts = []
    for _ in range(2):
        sketch = _build(inputs, seed)
        counts.append(spans.count_numpy_calls(lambda: [
            sketch.insert_window(items)
            for items in inputs.windows[:NUMPY_COUNT_WINDOWS]]))
    if counts[0] != counts[1]:
        bad += 1
        lines.append(f"numpy call count did not repeat: {counts}")
    shares = [ingest_counts(inputs, seed) for _ in range(2)]
    if shares[0] != shares[1]:
        bad += 1
        lines.append(f"stats() counts did not repeat: {shares}")
    lines.append(f"numpy calls: {counts[0]} over the first "
                 f"{NUMPY_COUNT_WINDOWS} windows (repeat: {counts[1]})")
    stages = {k: sum(p.stages[k] for p in traced) for k in ("l1", "l2",
                                                           "hot")}
    layers = {
        "hashing.canonicalize_us": metric(
            per_window_us("hashing.canonicalize"), "us"),
        "core.burst_us": metric(per_window_us("core.burst"), "us"),
        "core.cold_us": metric(per_window_us("core.cold"), "us"),
        "core.hot_us": metric(per_window_us("core.hot"), "us"),
        "core.end_us": metric(per_window_us("core.end"), "us"),
        "core.window_self_us": metric(window_self, "us"),
        "core.numpy_calls_per_window": metric(
            counts[0] / NUMPY_COUNT_WINDOWS, "count"),
        **{k: metric(v, "ratio")
           for k, v in shares[0].items()},
        "core.query_us": metric(
            total["core.query"].sum() / n_queries * 1e6, "us"),
        **{f"core.query_stage_share.{k}": metric(v / n_queries, "ratio")
           for k, v in stages.items()},
        "trace.overhead_ratio": metric(traced_mean / untraced - 1.0,
                                       "ratio"),
    }
    return layers, lines, bad
