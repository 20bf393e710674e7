"""In-memory span recorder and the wrappers that feed it.

A span is ``(name, start, end, parent, rid)``: ``parent`` is the index
of the span that caused it (``-1`` for a root) and ``rid`` the window or
request it belongs to.  Spans are kept in flat lists while a run is
traced and written out (or summarized) once it ends.

The wrappers sit around the public functions each layer exposes and are
patched in where the callers look the names up, so no file of the
program changes.  A layer's self time is its span's duration minus the
part of that interval its child spans cover; over one span tree the
self times add up to the root's duration exactly when every child lies
inside its parent and siblings do not overlap, which
:func:`self_times` checks.
"""

from __future__ import annotations

import collections
import functools
import os
import sys
from typing import Callable, Dict, List, Optional

import numpy as np

from common import now

AUTO = -2          # parent: take the innermost open span (or none)
ROOT = -1


class Recorder:
    """Flat, append-only span store with a stack for nesting."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.rids: List[object] = []
        self.stack: List[int] = []
        self.rid: object = None
        self.values: Dict[str, List[float]] = collections.defaultdict(list)

    def open(self, name: str, parent: int = AUTO, push: bool = True,
             start: Optional[float] = None) -> int:
        if parent == AUTO:
            parent = self.stack[-1] if self.stack else ROOT
        sid = len(self.names)
        self.names.append(name)
        self.starts.append(now() if start is None else start)
        self.ends.append(0.0)
        self.parents.append(parent)
        self.rids.append(self.rid)
        if push:
            self.stack.append(sid)
        return sid

    def close(self, sid: int, pop: bool = True) -> None:
        self.ends[sid] = now()
        if pop and self.stack and self.stack[-1] == sid:
            self.stack.pop()

    def add(self, name: str, start: float, end: float, parent: int,
            rid: object = None) -> int:
        sid = self.open(name, parent=parent, push=False, start=start)
        self.ends[sid] = end
        if rid is not None:
            self.rids[sid] = rid
        return sid

    def to_dict(self) -> Dict[str, list]:
        return {"names": self.names, "starts": self.starts,
                "ends": self.ends, "parents": self.parents,
                "rids": [r if isinstance(r, (int, str)) or r is None
                         else str(r) for r in self.rids],
                "values": dict(self.values)}

    def extend(self, data: Dict[str, list]) -> int:
        """Append spans exported by another recorder; returns the offset
        added to their indices."""
        base = len(self.names)
        self.names += data["names"]
        self.starts += data["starts"]
        self.ends += data["ends"]
        self.parents += [p + base if p >= 0 else p for p in data["parents"]]
        self.rids += data["rids"]
        for key, vals in data.get("values", {}).items():
            self.values[key] += vals
        return base


def self_times(rec: Recorder) -> Dict[str, object]:
    """Per-span self time, plus the check that each tree's self times sum
    to its root's duration.

    Children are clipped to their parent's interval and merged where
    they overlap, so ``self = duration - covered``; a child outside its
    parent or overlapping siblings makes the per-tree sum drift from the
    root duration, which ``max_tree_error`` reports (seconds).
    """
    n = len(rec.names)
    starts = np.asarray(rec.starts)
    ends = np.asarray(rec.ends)
    children: Dict[int, List[int]] = collections.defaultdict(list)
    for sid, parent in enumerate(rec.parents):
        if parent >= 0:
            children[parent].append(sid)
    selfs = ends - starts
    for parent, kids in children.items():
        lo, hi = starts[parent], ends[parent]
        covered = 0.0
        cur_lo = cur_hi = None
        for kid in sorted(kids, key=lambda k: starts[k]):
            a, b = max(starts[kid], lo), min(ends[kid], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        selfs[parent] -= covered
    root_of = np.empty(n, dtype=np.int64)
    for sid in range(n):      # parents always precede their children
        p = rec.parents[sid]
        root_of[sid] = sid if p < 0 else root_of[p]
    tree_self = np.bincount(root_of, weights=selfs, minlength=n)
    roots = np.asarray([p < 0 for p in rec.parents], dtype=bool)
    errors = np.abs(tree_self[roots] - (ends - starts)[roots])
    return {
        "self": selfs,
        "max_tree_error": float(errors.max()) if errors.size else 0.0,
        "trees": int(roots.sum()),
    }


def by_name(rec: Recorder, values: np.ndarray) -> Dict[str, np.ndarray]:
    groups: Dict[str, List[int]] = collections.defaultdict(list)
    for sid, name in enumerate(rec.names):
        groups[name].append(sid)
    return {name: values[np.asarray(ids)] for name, ids in groups.items()}


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _sync(rec: Recorder, name: str, fn: Callable,
          parent_of: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = AUTO
        if parent_of is not None and not rec.stack:
            parent = parent_of(args)
        sid = rec.open(name, parent=parent)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(sid)
    wrapper.__wrapped_by_perfbench__ = fn
    return wrapper


STAGES = ("burst", "cold", "hot", "end")


def install_core(rec: Recorder,
                 parent_of: Optional[Callable] = None) -> None:
    """Wrap canonicalize, the kernel ingest with its stage timings,
    ``insert_window`` (flat and sliding) and ``query``.

    ``parent_of(args)`` names the parent of a call made with no span
    open (the service's barrier for a window its worker applies).
    """
    import repro.core.hypersistent as hyp
    import repro.core.sliding as sliding

    hyp.canonical_keys = _sync(rec, "hashing.canonicalize",
                               hyp.canonical_keys)
    kernel_ingest = hyp.ingest_window

    def ingest_window(sketch, keys, timings=None):
        stages: Dict[str, float] = {}
        sid = rec.open("core.ingest_window")
        try:
            return kernel_ingest(sketch, keys, stages)
        finally:
            rec.close(sid)
            # the kernel reports stage durations, not their start times;
            # lay them end to end from the call's start
            t = rec.starts[sid]
            for stage in STAGES:
                spent = stages.get(stage, 0.0)
                rec.add("core." + stage, t, t + spent, sid)
                t += spent
                if timings is not None:
                    timings[stage] = timings.get(stage, 0.0) + spent

    hyp.ingest_window = ingest_window
    cls = hyp.HypersistentSketch
    cls.insert_window = _sync(rec, "core.insert_window", cls.insert_window,
                              parent_of)
    cls.query = _sync(rec, "core.query", cls.query)
    scls = sliding.SlidingHypersistentSketch
    scls.insert_window = _sync(rec, "sliding.insert_window",
                               scls.insert_window, parent_of)


def install_service(rec: Recorder, services: List[object],
                    stage_counts: Dict[str, int]) -> None:
    """Wrap the service core (ingest, barrier, estimate) and checkpoint
    writes; capture the running :class:`SketchService` in ``services``.

    A barrier's span is the parent of its queue wait (barrier entry to
    the start of the window it closes), of that window's
    ``insert_window`` and of the checkpoint it triggers.
    """
    import repro.persist.checkpoint as checkpoint
    import repro.service.service as service_mod

    svc_cls = service_mod.SketchService
    barriers: Dict[str, collections.deque] = collections.defaultdict(
        collections.deque)
    waiting: Dict[int, bool] = {}

    def tenant_of(sketch) -> Optional[str]:
        for svc in services:
            for name, tenant in svc.tenants.items():
                if tenant.sketch is sketch:
                    return name
        return None

    def parent_of(args) -> int:
        name = tenant_of(args[0]) if args else None
        if name is None or not barriers[name]:
            return ROOT
        sid = barriers[name][0]
        if waiting.pop(sid, False):
            rec.add("service.queue_wait", rec.starts[sid], now(), sid,
                    rec.rids[sid])
        return sid

    install_core(rec, parent_of)

    orig_start = svc_cls.start

    async def start(self):
        services.append(self)
        return await orig_start(self)

    svc_cls.start = start
    counters = collections.Counter()

    orig_ingest = svc_cls.ingest

    async def ingest(self, name, items):
        rec.rid = ("ingest", counters["ingest"])
        counters["ingest"] += 1
        sid = rec.open("service.ingest", parent=ROOT, push=False)
        try:
            return await orig_ingest(self, name, items)
        finally:
            rec.close(sid, pop=False)

    svc_cls.ingest = ingest
    orig_end_window = svc_cls.end_window

    async def end_window(self, name, count=1):
        rec.rid = ("window", counters["window"])
        counters["window"] += 1
        sid = rec.open("service.end_window", parent=ROOT, push=False)
        barriers[name].append(sid)
        waiting[sid] = True
        try:
            return await orig_end_window(self, name, count)
        finally:
            barriers[name].popleft()
            waiting.pop(sid, None)
            rec.close(sid, pop=False)

    svc_cls.end_window = end_window
    orig_estimate = svc_cls.estimate

    def estimate(self, name, keys):
        rec.rid = ("estimate", counters["estimate"])
        counters["estimate"] += 1
        sid = rec.open("service.estimate", parent=ROOT)
        try:
            return orig_estimate(self, name, keys)
        finally:
            rec.close(sid)
            tenant = self.tenants.get(name)
            sketch = getattr(tenant, "sketch", None)
            if hasattr(sketch, "resolving_stage"):   # flat tenants
                for key in keys:
                    stage_counts[sketch.resolving_stage(key)] += 1

    svc_cls.estimate = estimate

    saver = checkpoint.save_run_checkpoint

    def save_run_checkpoint(sketch, path, *args, **kwargs):
        parent = parent_of((sketch,))
        sid = rec.open("persist.checkpoint", parent=parent)
        try:
            return saver(sketch, path, *args, **kwargs)
        finally:
            rec.close(sid)
            rec.values["persist.checkpoint_bytes"].append(
                float(os.path.getsize(path)))

    checkpoint.save_run_checkpoint = save_run_checkpoint
    service_mod.save_run_checkpoint = save_run_checkpoint


# ----------------------------------------------------------------------
# deterministic numpy call count
# ----------------------------------------------------------------------
def count_numpy_calls(fn: Callable[[], None]) -> int:
    """C-function calls into numpy made while ``fn`` runs, as seen by
    ``sys.setprofile``: numpy functions and methods of numpy objects
    (arrays, ufuncs).  Arithmetic operators on arrays raise no call
    event and are not counted."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "c_call":
            module = getattr(arg, "__module__", None) or ""
            owner = getattr(arg, "__self__", None)
            if module.startswith("numpy") or (
                    owner is not None
                    and type(owner).__module__.startswith("numpy")):
                count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count
