"""The repository benchmark: one workload, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``paper-caida``, ``sparse-windows`` (library) and
``service-mixed`` (HTTP service).  With ``--trace 0`` the last line of
stdout carries every end-to-end metric; with ``--trace 1`` every
per-layer metric, from a traced run compared against an untraced one.
The lines before it say how each tail was taken and what was checked.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402,F401  (imports the program; fails without src/)
import hostspeed  # noqa: E402

WORKLOADS = ("paper-caida", "sparse-windows", "service-mixed")

END_TO_END = ("setup_s", "ingest_mops", "window_p50_us", "window_tail_us",
              "query_kqps", "estimate_p50_ms", "estimate_tail_ms", "mem_mb")

#: Per-layer metrics and their units, in BENCHMARK.json order.
PER_LAYER = (
    ("hashing.canonicalize_us", "us"),
    ("core.burst_us", "us"), ("core.cold_us", "us"), ("core.hot_us", "us"),
    ("core.end_us", "us"), ("core.window_self_us", "us"),
    ("core.numpy_calls_per_window", "count"),
    ("core.hash_ops_per_insert", "ratio"),
    ("core.burst_absorbed_share", "ratio"),
    ("core.cold_overflow_share", "ratio"),
    ("core.query_us", "us"),
    ("core.query_stage_share.l1", "ratio"),
    ("core.query_stage_share.l2", "ratio"),
    ("core.query_stage_share.hot", "ratio"),
    ("sliding.insert_window_us", "us"),
    ("service.ingest_us", "us"), ("service.queue_wait_ms", "ms"),
    ("service.barrier_ms", "ms"), ("service.barrier_self_ms", "ms"),
    ("service.estimate_us", "us"), ("service.queue_depth_max", "count"),
    ("service.coalesced_chunks_per_window", "count"),
    ("open_loop.ingest_p50_ms", "ms"), ("open_loop.ingest_tail_ms", "ms"),
    ("open_loop.window_p50_ms", "ms"), ("open_loop.window_tail_ms", "ms"),
    ("open_loop.estimate_p50_ms", "ms"),
    ("open_loop.estimate_tail_ms", "ms"),
    ("open_loop.sustainable_rate_krps", "krps"),
    ("http.self_ms.ingest", "ms"), ("http.self_ms.window", "ms"),
    ("http.self_ms.estimate", "ms"),
    ("http.request_bytes.ingest", "bytes"),
    ("http.request_bytes.window", "bytes"),
    ("http.request_bytes.estimate", "bytes"),
    ("http.response_bytes.ingest", "bytes"),
    ("http.response_bytes.window", "bytes"),
    ("http.response_bytes.estimate", "bytes"),
    ("persist.checkpoint_ms", "ms"), ("persist.checkpoint_bytes", "bytes"),
    ("loadgen.lag_tail_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # calibration and timed work share one core (see hostspeed.py); a
    # server started later inherits the pin
    cpu = hostspeed.pin_to_one_cpu()
    if args.workload == "service-mixed":
        import service_workload
        result = service_workload.run(args.seed, args.seconds,
                                      bool(args.trace))
    else:
        import library
        result = library.run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    print(f"pinned to CPU {cpu}")
    for line in result["lines"]:
        print(line)
    metrics = result["metrics"]
    if args.trace:
        # layers a workload never enters read 0; say which, and why
        absent = [name for name, _ in PER_LAYER if name not in metrics]
        if absent:
            print(f"absent on {args.workload} (no server, no open-loop "
                  f"schedule), reported as 0: {', '.join(absent)}")
        metrics = {name: metrics.get(name, {"value": 0.0, "unit": unit})
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: metrics[name] for name in END_TO_END}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
