"""The ``service-mixed`` workload: ``repro serve`` under an open-loop mix.

The server runs in its own process with two tenants (a flat tenant that
checkpoints into the state dir and a sliding tenant), both fed string
flow IDs.  Writes are Pareto-sized ``/ingest`` chunks plus a window
barrier per tenant every ``CADENCE_S``; reads are 64-key ``/estimate``
calls.

An untraced run (``--trace 0``) sends writes and then reads closed loop,
pipelined on one connection, in bursts of ``BURST_S`` with a host-speed
calibration sample between bursts (:mod:`hostspeed`; the server shares
the generator's pinned CPU); these give the gated metrics, every time
scaled to the reference host speed.  A
traced run drives the open-loop schedule instead: the writer and reader
threads send at fixed rates, and every latency counts from the
request's due time.  Its untraced half then climbs the rate ladder
until a step misses the ``/ingest`` tail limit or falls behind its
schedule.  Afterwards every estimate the server returned is compared
with offline sketches from :func:`repro.service.build_sketch` fed the
accepted chunks.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
from typing import Dict, List, Optional, Tuple

import numpy as np

import spans
from hostspeed import Speed
from common import (INGEST_TAIL_LIMIT_MS, LADDER_TAIL, RATE_LADDER, TAIL,
                    WORK_DIR, count_shares, describe_tail, median, metric,
                    now, tail)
from loadgen import (KeyStream, OpenLoop, Outcome, Request,
                     collector_paused, pipelined, reader_schedule,
                     writer_schedule)
from repro.service import TenantSpec, build_sketch
from server import Server

TENANTS = ("flat", "slide")
#: Barrier cadence: at the nominal rate (RATE_LADDER[0], split over the
#: two tenants) each tenant's window holds 1.8k records, the paper's
#: CAIDA window density.
CADENCE_S = 2 * 1_800 / RATE_LADDER[0]
#: Open-loop ``/estimate`` calls per second.  An assumption, not measured
#: traffic: 3.2k keys/s, a light read load beside the writes.
READ_RATE = 50.0
SETUP_LAUNCHES = 7
#: Length of one closed-loop burst; the pipeline drains and a
#: calibration sample is taken between bursts.
BURST_S = 0.1
#: Requests in flight on the closed-loop (pipelined) connection.
PIPELINE_DEPTH = 16
#: Upper bounds on the closed-loop write (records/s) and read (calls/s)
#: rates the schedules are sized for; a faster server just finishes its
#: schedule early.
CLOSED_WRITE_CAP = 300_000
CLOSED_READ_CAP = 2_000
#: Shares of ``--seconds`` per phase: closed-loop writes and reads
#: (``--trace 0``, split over CLOSED_SEGMENTS alternating segments); open
#: loop at the nominal rate and each ladder step (``--trace 1``).
CLOSED_SEGMENTS = 4
CLOSED_WRITES_SHARE = 0.35
CLOSED_READS_SHARE = 0.45
NOMINAL_SHARE = 0.3
STEP_SHARE = 0.05
ESTIMATE_KEYS = 64
REPORT_THRESHOLD = 8


def tenant_specs(seed: int) -> List[Dict]:
    return [
        {"name": "flat", "kind": "flat", "memory_bytes": 64 * 1024,
         "n_windows": 2000, "seed": seed, "engine": "kernel",
         "checkpoint_every": 25},
        {"name": "slide", "kind": "sliding", "memory_bytes": 64 * 1024,
         "horizon": 64, "seed": seed + 1, "engine": "kernel"},
    ]


class Phase:
    """One fixed-rate stretch of the open-loop schedule."""

    def __init__(self, rate: float, planned: int, writes: List[Outcome],
                 reads: List[Outcome], start: float):
        self.rate = rate
        self.planned = planned
        self.writes = writes
        self.reads = reads
        self.start = start
        self.chunk = 0          # closed-loop bursts: calibration chunk
        self.scale = 1.0        # and its host-speed factor

    def latencies_ms(self, route: str) -> np.ndarray:
        outs = self.reads if route == "estimate" else self.writes
        return np.asarray([(o.done - self.start - o.request.due) * 1e3
                           for o in outs if o.request.route == route])

    def lag_ms(self) -> np.ndarray:
        return np.asarray([(o.sent - self.start - o.request.due) * 1e3
                           for o in self.writes + self.reads])

    def failures(self) -> int:
        return sum(1 for o in self.writes + self.reads if o.status != 200)

    def ingest_tail(self) -> Dict[str, float]:
        return tail(self.latencies_ms("ingest"), LADDER_TAIL)

    def sustained(self) -> bool:
        """Tail within the limit, nothing dropped, nothing refused."""
        return (len(self.writes) == self.planned and not self.failures()
                and self.ingest_tail()["value"] <= INGEST_TAIL_LIMIT_MS)


def run_phase(port: int, stream: KeyStream, rng: np.random.Generator,
              rate: float, seconds: float) -> Phase:
    writes = writer_schedule(stream, rng, rate, seconds, CADENCE_S, TENANTS)
    reads = reader_schedule(stream, rng, READ_RATE, seconds, TENANTS,
                            ESTIMATE_KEYS)
    return _run(port, rate, writes, reads)


def _run(port: int, rate: float, writes: List[Request],
         reads: List[Request], give_up: float = 2.0) -> Phase:
    with collector_paused():
        start = now() + 0.05
        writer = OpenLoop(port, writes, start, give_up)
        reader = OpenLoop(port, reads, start, give_up)
        writer.start()
        reader.start()
        writer.join()
        reader.join()
    return Phase(rate, len(writes), writer.outcomes, reader.outcomes, start)


def _bursts(port: int, requests: List[Request], seconds: float,
            speed: Speed, reads: bool) -> List[Phase]:
    """Send ``requests`` closed loop and pipelined, in bursts of
    ``BURST_S`` with a calibration sample after each, until ``seconds``
    of bursts have run; one Phase per burst."""
    bursts: List[Phase] = []
    sent = 0
    spent = 0.0
    with collector_paused():
        while sent < len(requests) and spent < seconds:
            chunk = speed.chunk
            outcomes = pipelined(port, requests[sent:],
                                 min(BURST_S, seconds - spent),
                                 PIPELINE_DEPTH)
            speed.close()
            sent += len(outcomes)
            spent += outcomes[-1].done - outcomes[0].sent
            phase = Phase(0.0, len(outcomes), [] if reads else outcomes,
                          outcomes if reads else [], outcomes[0].sent)
            phase.chunk = chunk
            bursts.append(phase)
    return bursts


def closed_reads(port: int, stream: KeyStream, rng: np.random.Generator,
                 seconds: float, speed: Speed) -> List[Phase]:
    """Closed-loop, pipelined ``/estimate`` calls for ``seconds``."""
    reads = reader_schedule(stream, rng, CLOSED_READ_CAP, seconds,
                            TENANTS, ESTIMATE_KEYS)
    return _bursts(port, reads, seconds, speed, reads=True)


def closed_writes(port: int, stream: KeyStream, rng: np.random.Generator,
                  seconds: float, speed: Speed) -> List[Phase]:
    """Closed-loop, pipelined writes for ``seconds``: the nominal
    sequence of chunks and barriers (same window density)."""
    records = int(CLOSED_WRITE_CAP * seconds)
    writes = writer_schedule(stream, rng, RATE_LADDER[0],
                             records / RATE_LADDER[0], CADENCE_S, TENANTS)
    return _bursts(port, writes, seconds, speed, reads=False)


def closed_latencies_ms(outcomes: List[Outcome], route: str) -> np.ndarray:
    """Send-to-reply latencies of one route in a closed-loop phase."""
    return np.asarray([(o.done - o.sent) * 1e3 for o in outcomes
                       if o.request.route == route and o.status == 200])


def closed_rate(outcomes: List[Outcome], route: str) -> float:
    """Items acknowledged per second over a closed-loop phase."""
    done = sum(o.request.n_items for o in outcomes
               if o.request.route == route and o.status == 200)
    return done / (outcomes[-1].done - outcomes[0].sent)


def flush(port: int) -> Phase:
    """Close the open window of every tenant (after an aborted step)."""
    barriers = [Request(0.0, "window", t, b'{"count": 1}') for t in TENANTS]
    return _run(port, 0.0, barriers, [])


def _step_tail(phase: Phase) -> float:
    """A step's ``/ingest`` tail; a step that fell behind and dropped
    requests counts as far beyond the limit."""
    value = phase.ingest_tail()["value"] if phase.writes else math.inf
    if len(phase.writes) < phase.planned:
        value = max(value, 10 * INGEST_TAIL_LIMIT_MS)
    return value


def sustainable_rate(steps: List[Phase]) -> Tuple[float, str]:
    """Offered rate at which the ``/ingest`` tail crosses the limit,
    interpolated in log-latency between the last step that met it and
    the first that did not (records/s)."""
    limit = math.log(INGEST_TAIL_LIMIT_MS)
    last = None
    for step in steps:
        if step.sustained():
            last = step
            continue
        t_fail = max(_step_tail(step), INGEST_TAIL_LIMIT_MS)
        if last is None:
            return step.rate * INGEST_TAIL_LIMIT_MS / t_fail, \
                "below the first step"
        t_pass = max(_step_tail(last), 1e-3)
        share = (limit - math.log(t_pass)) / \
            max(math.log(t_fail) - math.log(t_pass), 1e-9)
        share = min(max(share, 0.0), 1.0)
        return last.rate + share * (step.rate - last.rate), \
            f"between {last.rate:.0f} and {step.rate:.0f} records/s"
    return steps[-1].rate, "at or above the top step"


# ----------------------------------------------------------------------
# service == offline
# ----------------------------------------------------------------------
def accepted_windows(writes: List[Outcome]) -> Dict[str, List[np.ndarray]]:
    """Each tenant's closed windows: the canonical keys of the chunks the
    server accepted, grouped by the barriers it accepted."""
    windows: Dict[str, List[np.ndarray]] = {t: [] for t in TENANTS}
    pending: Dict[str, List[np.ndarray]] = {t: [] for t in TENANTS}
    for out in writes:
        req = out.request
        if out.status != 200:
            continue
        if req.route == "ingest":
            pending[req.tenant].append(req.keys)
        else:
            chunks = pending[req.tenant]
            windows[req.tenant].append(
                np.concatenate(chunks) if chunks
                else np.empty(0, dtype=np.uint64))
            pending[req.tenant] = []
    return windows


def flat_ingest_counts(seed: int, writes: List[Outcome]) -> Dict[str, float]:
    """``stats()`` shares of the flat tenant's accepted windows replayed
    offline with no reads: queries add to the cold filter's ``hash_ops``,
    and how many land between barriers depends on timing."""
    sketch = build_sketch(TenantSpec.from_dict(tenant_specs(seed)[0]))
    for keys in accepted_windows(writes)["flat"]:
        sketch.insert_window(keys)
    return count_shares(sketch.stats())


def verify(seed: int, writes: List[Outcome], reads: List[Outcome],
           reports: Dict[str, Dict], server_stats: Optional[Dict] = None
           ) -> Tuple[int, int, List[str]]:
    """Replay the accepted chunks into offline sketches and compare every
    estimate the server returned, the final reports, and (traced runs)
    the flat tenant's counters.  Returns (attempted, failed, notes)."""
    attempted = len(writes) + len(reads)
    failed = sum(1 for o in writes if o.status != 200)
    windows = accepted_windows(writes)
    queries: Dict[str, Dict[int, List[Tuple[Request, Dict]]]] = {
        t: {} for t in TENANTS}
    for out in reads:
        if out.status != 200:
            failed += 1
            continue
        body = json.loads(out.response)
        queries[out.request.tenant].setdefault(
            int(body["windows_done"]), []).append(
                (out.request, body["estimates"]))
    bad_reads = 0
    notes = []
    for spec in tenant_specs(seed):
        name = spec["name"]
        sketch = build_sketch(TenantSpec.from_dict(spec))
        asked = queries[name]
        for done in range(len(windows[name]) + 1):
            if done:
                sketch.insert_window(windows[name][done - 1])
            for req, got in asked.pop(done, []):
                if any(got.get(key) != sketch.query(int(canon))
                       for key, canon in zip(req.names, req.keys.tolist())):
                    bad_reads += 1
        if asked:     # estimates at a window count never reached offline
            bad_reads += sum(len(v) for v in asked.values())
        expected = {str(k): int(v) for k, v in
                    sorted(sketch.report(REPORT_THRESHOLD).items())}
        attempted += 1
        if reports.get(name) != expected:
            failed += 1
            notes.append(f"{name}: final report differs from offline")
        if server_stats is not None and name in server_stats:
            attempted += 1
            if server_stats[name] != sketch.stats():
                failed += 1
                notes.append(f"{name}: server stats() differ from offline")
    failed += bad_reads
    notes.append(f"service == offline: {len(reads)} estimate calls, "
                 f"{bad_reads} with a wrong value; "
                 f"{sum(len(w) for w in windows.values())} windows replayed")
    return attempted, failed, notes


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def _final_reports(srv: Server) -> Dict[str, Dict]:
    return {t: srv.request("POST", f"/tenants/{t}/report",
                           {"threshold": REPORT_THRESHOLD})["items"]
            for t in TENANTS}


class Measured:
    """Everything one server session produced, in send order."""

    def __init__(self, nominal, ladder, reads, writes, phases, reports,
                 rss, speed):
        self.nominal: Optional[Phase] = nominal
        self.ladder: List[Phase] = ladder
        self.closed_reads: List[Phase] = reads      # one Phase per burst
        self.closed_writes: List[Phase] = writes
        self.phases: List[Phase] = phases
        self.reports: Dict[str, Dict] = reports
        self.rss = rss
        self.speed: Optional[Speed] = speed

    def open_loop(self) -> Dict[str, float]:
        """Open-loop latencies at the nominal rate, from due times."""
        out = {}
        for route in ("ingest", "window", "estimate"):
            lat = self.nominal.latencies_ms(route)
            out[f"{route}_p50_ms"] = median(lat)
            out[f"{route}_tail_ms"] = tail(lat, TAIL)["value"]
        return out


def _measure(srv: Server, seed: int, seconds: float, closed: bool,
             ladder: bool = False) -> Measured:
    """With ``closed``: segments of closed-loop writes, each followed by
    closed-loop reads on the sketches they filled, each sent in bursts
    with calibration samples between them.  Otherwise the open loop at
    the nominal rate, followed with ``ladder`` by one step per higher
    rate until a step misses the limit.  Ends with a flush of every
    tenant's open window."""
    stream = KeyStream(seed)
    rng = np.random.default_rng([seed, 0x5E])
    nominal = None
    writes: List[Phase] = []
    reads: List[Phase] = []
    steps: List[Phase] = []
    bursts: List[Phase] = []        # send order
    speed = Speed("service", now) if closed else None
    if closed:
        for _ in range(CLOSED_SEGMENTS):
            bursts += closed_writes(
                srv.port, stream, rng,
                seconds * CLOSED_WRITES_SHARE / CLOSED_SEGMENTS, speed)
            bursts += closed_reads(
                srv.port, stream, rng,
                seconds * CLOSED_READS_SHARE / CLOSED_SEGMENTS, speed)
        factors = speed.factors()
        for burst in bursts:
            burst.scale = float(factors[burst.chunk])
            (writes if burst.writes else reads).append(burst)
    else:
        nominal = run_phase(srv.port, stream, rng, RATE_LADDER[0],
                            seconds * NOMINAL_SHARE)
        for rate in RATE_LADDER[1:] if ladder else ():
            steps.append(run_phase(srv.port, stream, rng, rate,
                                   seconds * STEP_SHARE))
            if not steps[-1].sustained():
                break
    phases = bursts + ([nominal] if nominal else []) + steps + \
        [flush(srv.port)]
    return Measured(nominal, steps, reads, writes, phases,
                    _final_reports(srv), srv.rss_mb(), speed)


def run(seed: int, seconds: float, trace: bool) -> Dict:
    work = os.path.join(WORK_DIR, f"service-{os.getpid()}")
    specs = tenant_specs(seed)
    lines: List[str] = []
    try:
        if trace:
            return _traced(work, seed, seconds, specs, lines)
        # each launch is scaled by the calibration samples around it
        speed = Speed("service", now)
        setup, chunks = [], []
        for launch in range(SETUP_LAUNCHES):
            chunks.append(speed.chunk)
            srv = Server(os.path.join(work, "state"))
            try:
                setup.append(srv.set_up(specs))
                speed.close()
                if launch == SETUP_LAUNCHES - 1:
                    m = _measure(srv, seed, seconds, closed=True)
            finally:
                srv.stop()
        setup = list(np.asarray(setup) * speed.scale(chunks))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)       # only if no other run is using it

    writes = [o for p in m.phases for o in p.writes]
    reads = [o for p in m.phases for o in p.reads]
    attempted, failed, notes = verify(seed, writes, reads, m.reports)
    lines += notes
    # latencies are pooled over the bursts, each scaled by its burst's
    # factor; rates are per burst, reported as the median over bursts
    barrier = np.concatenate([closed_latencies_ms(p.writes, "window") *
                              1e3 * p.scale for p in m.closed_writes])
    estimate = np.concatenate([closed_latencies_ms(p.reads, "estimate") *
                               p.scale for p in m.closed_reads])
    b_tail = tail(barrier, TAIL)
    e_tail = tail(estimate, TAIL)
    ingest = [closed_rate(p.writes, "ingest") for p in m.closed_writes]
    query = [closed_rate(p.reads, "estimate") for p in m.closed_reads]
    lines.append(
        f"closed-loop writes: {sum(len(p.writes) for p in m.closed_writes)}"
        f" requests in {len(m.closed_writes)} bursts, {PIPELINE_DEPTH} in "
        f"flight; " + describe_tail("barrier tail", b_tail, "us"))
    lines.append(
        f"closed-loop reads: {sum(len(p.reads) for p in m.closed_reads)} "
        f"/estimate calls of {ESTIMATE_KEYS} keys in "
        f"{len(m.closed_reads)} bursts, {PIPELINE_DEPTH} in flight; " +
        describe_tail("estimate tail", e_tail, "ms"))
    lines.append(f"raw medians over bursts: ingest "
                 f"{median(ingest) / 1e6:.4f} Mops, query "
                 f"{median(query) / 1e3:.3f} kqps; " + m.speed.describe())
    metrics = {
        "setup_s": metric(median(setup), "s"),
        "ingest_mops": metric(median(
            [r / p.scale for r, p in zip(ingest, m.closed_writes)]) / 1e6,
            "Mops"),
        "window_p50_us": metric(median(barrier), "us"),
        "window_tail_us": metric(b_tail["value"], "us"),
        "query_kqps": metric(median(
            [r / p.scale for r, p in zip(query, m.closed_reads)]) / 1e3,
            "kqps"),
        "estimate_p50_ms": metric(median(estimate), "ms"),
        "estimate_tail_ms": metric(e_tail["value"], "ms"),
        "mem_mb": metric(m.rss, "MiB"),
    }
    return {"lines": lines, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _traced(work: str, seed: int, seconds: float, specs: List[Dict],
            lines: List[str]) -> Dict:
    """The nominal open-loop schedule on an untraced server, which then
    climbs the rate ladder, and on a traced server."""
    runs = []
    dump = None
    for traced in (False, True):
        spans_path = os.path.join(work, "spans.json") if traced else None
        srv = Server(os.path.join(work, "state"), spans_path)
        try:
            srv.set_up(specs)
            runs.append(_measure(srv, seed, seconds, closed=False,
                                 ladder=not traced))
        finally:
            srv.stop()
        if traced:
            with open(spans_path) as fh:
                dump = json.load(fh)
    attempted = failed = 0
    for i, m in enumerate(runs):
        writes = [o for p in m.phases for o in p.writes]
        reads = [o for p in m.phases for o in p.reads]
        a, f, notes = verify(seed, writes, reads, m.reports,
                             dump["stats"] if i else None)
        attempted += a
        failed += f
        lines += notes
    plain = runs[0]
    rate, where = sustainable_rate([plain.nominal] + plain.ladder)
    for phase in [plain.nominal] + plain.ladder:
        lines.append(
            f"  step {phase.rate:>7.0f} records/s: ingest tail "
            f"{phase.ingest_tail()['value']:8.2f} ms, sent "
            f"{len(phase.writes)}/{phase.planned}, failed "
            f"{phase.failures()}, "
            f"{'meets' if phase.sustained() else 'misses'} the "
            f"{INGEST_TAIL_LIMIT_MS:g} ms limit")
    lines.append(f"sustainable rate {rate / 1e3:.2f} krps ({where})")
    layers, more, bad = _layers(seed, plain, runs[1].phases, dump)
    layers["open_loop.sustainable_rate_krps"] = metric(rate / 1e3, "krps")
    return {"lines": lines + more, "attempted": attempted,
            "failed": failed + bad, "metrics": layers}


def _layers(seed: int, plain: Measured, traced: List[Phase], dump: Dict):
    """Per-layer metrics: client spans joined to the server's spans."""
    lines: List[str] = []
    bad = 0
    rec = spans.Recorder()
    client: Dict[str, List[int]] = {"ingest": [], "window": [],
                                    "estimate": []}
    outcomes = [o for p in traced for o in p.writes + p.reads]
    for out in outcomes:
        route = out.request.route
        client[route].append(rec.add(f"http.{route}", out.sent, out.done,
                                     spans.ROOT))
    base = rec.extend(dump["spans"])
    server: Dict[str, List[int]] = {"ingest": [], "window": [],
                                    "estimate": []}
    route_of = {"service.ingest": "ingest", "service.end_window": "window",
                "service.estimate": "estimate"}
    for sid in range(base, len(rec.names)):
        route = route_of.get(rec.names[sid])
        if route is not None and rec.parents[sid] < 0:
            server[route].append(sid)
    for route in client:
        if len(server[route]) != len(client[route]):
            bad += 1
            lines.append(f"trace: {len(client[route])} client {route} "
                         f"calls but {len(server[route])} server spans")
        for c, s in zip(client[route], server[route]):
            rec.parents[s] = c
    info = spans.self_times(rec)
    lines.append(f"trace: {len(rec.names)} spans in {info['trees']} trees; "
                 f"max |sum(self) - root| = "
                 f"{info['max_tree_error'] * 1e9:.1f} ns")
    if info["max_tree_error"] > 1e-6:
        bad += 1
        lines.append("trace check failed: self times do not add up")
    dur = spans.by_name(rec, np.asarray(rec.ends) - np.asarray(rec.starts))
    selfs = spans.by_name(rec, info["self"])
    n_windows = max(1, dur.get("core.insert_window", np.zeros(0)).size)

    def mean(group, name, scale):
        vals = group.get(name)
        return float(vals.mean() * scale) if vals is not None and \
            vals.size else 0.0

    def per_window_us(name):
        vals = dur.get(name)
        return float(vals.sum() / n_windows * 1e6) if vals is not None \
            else 0.0

    window_self = (selfs.get("core.insert_window", np.zeros(0)).sum() +
                   selfs.get("core.ingest_window", np.zeros(0)).sum())
    tenant_stats = dump["tenant_stats"]
    counts = [flat_ingest_counts(seed, [o for p in phases for o in p.writes])
              for phases in ([plain.nominal], traced[:1])]
    if counts[0] != counts[1]:
        bad += 1
        lines.append(f"flat tenant stats() counts did not repeat: {counts}")
    depth = [json.loads(o.response).get("queue_depth", 0)
             for o in outcomes
             if o.request.route == "ingest" and o.status == 200]
    stage_total = max(1, sum(dump["stages"].values()))
    rtt = {flag: np.mean([o.done - o.sent for p in phases
                          for o in p.writes + p.reads])
           for flag, phases in (("plain", [plain.nominal]),
                                ("traced", traced[:1]))}
    layers = {
        "hashing.canonicalize_us": metric(
            per_window_us("hashing.canonicalize"), "us"),
        "core.burst_us": metric(per_window_us("core.burst"), "us"),
        "core.cold_us": metric(per_window_us("core.cold"), "us"),
        "core.hot_us": metric(per_window_us("core.hot"), "us"),
        "core.end_us": metric(per_window_us("core.end"), "us"),
        "core.window_self_us": metric(window_self / n_windows * 1e6, "us"),
        "core.numpy_calls_per_window": metric(0.0, "count"),
        **{k: metric(v, "ratio") for k, v in counts[1].items()},
        "core.query_us": metric(mean(dur, "core.query", 1e6), "us"),
        **{f"core.query_stage_share.{k}": metric(
            dump["stages"].get(k, 0) / stage_total, "ratio")
           for k in ("l1", "l2", "hot")},
        "sliding.insert_window_us": metric(
            mean(dur, "sliding.insert_window", 1e6), "us"),
        "service.ingest_us": metric(mean(dur, "service.ingest", 1e6), "us"),
        "service.queue_wait_ms": metric(
            mean(dur, "service.queue_wait", 1e3), "ms"),
        "service.barrier_ms": metric(
            mean(dur, "service.end_window", 1e3), "ms"),
        "service.barrier_self_ms": metric(
            mean(selfs, "service.end_window", 1e3), "ms"),
        "service.estimate_us": metric(
            mean(dur, "service.estimate", 1e6), "us"),
        "service.queue_depth_max": metric(max(depth, default=0), "count"),
        "service.coalesced_chunks_per_window": metric(
            sum(s["coalesced_batches_total"] for s in tenant_stats.values())
            / max(1, sum(s["windows_total"]
                         for s in tenant_stats.values())), "count"),
        **{f"open_loop.{k}": metric(v, "ms")
           for k, v in plain.open_loop().items()},
        **{f"http.self_ms.{route}": metric(
            mean(selfs, f"http.{route}", 1e3), "ms") for route in client},
        **{f"http.request_bytes.{route}": metric(np.mean(
            [len(o.request.body) for o in outcomes
             if o.request.route == route]), "bytes") for route in client},
        **{f"http.response_bytes.{route}": metric(np.mean(
            [len(o.response) for o in outcomes
             if o.request.route == route]), "bytes") for route in client},
        "persist.checkpoint_ms": metric(
            mean(dur, "persist.checkpoint", 1e3), "ms"),
        "persist.checkpoint_bytes": metric(np.mean(
            rec.values.get("persist.checkpoint_bytes", [0.0])),
            "bytes"),
        "loadgen.lag_tail_ms": metric(tail(
            plain.nominal.lag_ms(), 99.0)["value"], "ms"),
        "trace.overhead_ratio": metric(
            rtt["traced"] / rtt["plain"] - 1.0, "ratio"),
    }
    lines.append("core.numpy_calls_per_window is counted on the library "
                 "workloads only (sys.setprofile would stall the server)")
    return layers, lines, bad
