"""Start, set up, and stop a ``repro serve`` process for the benchmark.

The untraced server is the normal ``python -m repro serve`` entry point.
The traced server runs the same entry point through ``launcher.py``,
which installs the span wrappers first and writes the spans out when
the server exits.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

from common import ROOT, SRC, now, peak_rss_mb

HERE = os.path.dirname(os.path.abspath(__file__))


class Server:
    """One server process bound to an OS-assigned loopback port."""

    def __init__(self, state_dir: str, spans_path: Optional[str] = None):
        shutil.rmtree(state_dir, ignore_errors=True)
        os.makedirs(state_dir)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        serve = ["serve", "--port", "0", "--state-dir", state_dir]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro"] + serve
        else:
            cmd = [sys.executable, os.path.join(HERE, "launcher.py"),
                   spans_path] + serve
        self.started = now()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        self.port = self._read_port(timeout=60.0)

    def _read_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        out = self.proc.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([out], [], [], 0.5)
            if ready:
                line = out.readline()
                if not line:
                    break
                if "listening on http://" in line:
                    return int(line.rsplit(":", 1)[1])
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError("server did not announce a port")

    def request(self, method: str, path: str, payload=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=60)
        try:
            body = None if payload is None else json.dumps(payload)
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            data = resp.read()
            if resp.status != 200:
                raise RuntimeError(f"{method} {path}: HTTP {resp.status} "
                                   f"{data[:200]!r}")
            return json.loads(data)
        finally:
            conn.close()

    def set_up(self, specs: List[Dict]) -> float:
        """Wait for ``/healthz``, create the tenants; seconds since launch."""
        deadline = time.monotonic() + 30.0
        while True:
            try:
                self.request("GET", "/healthz")
                break
            except (OSError, RuntimeError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        for spec in specs:
            self.request("POST", "/tenants", spec)
        return now() - self.started

    def rss_mb(self) -> float:
        return peak_rss_mb(str(self.proc.pid))

    def stop(self) -> None:
        """Graceful stop (final checkpoints, trace file); kill on hang."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
