"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/launcher.py SPANS.json serve [serve args]``.
The wrappers go in before the normal CLI entry point runs; when the
server stops (SIGINT), the spans, the tenants' counters and the query
stage tally are written to ``SPANS.json``.
"""

from __future__ import annotations

import collections
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402,F401  (puts src/ on the path)
import spans  # noqa: E402


def main(argv) -> int:
    out_path, serve_args = argv[0], argv[1:]
    rec = spans.Recorder()
    services = []
    stages = collections.Counter()
    spans.install_service(rec, services, stages)
    from repro.cli import main as repro_main

    code = repro_main(serve_args)
    dump = {
        "spans": rec.to_dict(),
        "stats": {}, "tenant_stats": {}, "stages": dict(stages),
    }
    for service in services:
        for name, tenant in service.tenants.items():
            dump["tenant_stats"][name] = tenant.stats.to_dict()
            if hasattr(tenant.sketch, "stats"):
                dump["stats"][name] = tenant.sketch.stats()
    with open(out_path, "w") as fh:
        json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
