"""The asyncio multi-tenant sketch service core (transport-agnostic).

:class:`SketchService` multiplexes independent tenants on one event
loop.  The write path is a per-tenant **coalescing queue**: ``ingest``
appends raw item chunks to the tenant's queue (constant work, no sketch
access), and a per-tenant worker task drains them into the pending
window buffer; ``end_window`` enqueues a barrier that concatenates the
buffered chunks and applies them as **one** ``insert_window`` call on
the tenant's batch engine — so a window fed as N small HTTP posts costs
one fused kernel pass, exactly like the offline harness's whole-window
path.  Because commands are FIFO per tenant, the barrier's completion
acknowledges every prior ingest; the ``service-equivalence`` verify
invariant proves the resulting estimates, reports, and snapshot bytes
are bit-identical to an offline :func:`~repro.experiments.harness
.run_stream` over the same windows.

Crash recovery reuses :mod:`repro.persist`: tenants created with
``checkpoint_every > 0`` write an atomic CRC-framed checkpoint every K
closed windows (plus one on graceful shutdown) into the service's state
directory, carrying the tenant spec in ``meta``.  A restarted service
scans the directory and rebuilds every tenant at its last checkpointed
window boundary; clients read ``windows_done`` from tenant status and
replay from there, finishing bit-identical to a never-killed run.

The read path (estimate / explain / report / find-persistent) is
synchronous — sketch queries are cheap and safe mid-window.
"""

from __future__ import annotations

import asyncio
from itertools import chain
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..common.errors import (
    AdmissionError,
    ServiceError,
    SnapshotError,
    UnknownTenantError,
)
from ..common.hashing import canonical_keys, first_invalid_key
from ..obs.catalog import bind_sketch
from ..obs.exporters import to_prometheus
from ..obs.registry import MetricsRegistry
from ..persist.checkpoint import (
    CheckpointPolicy,
    read_run_checkpoint,
    save_run_checkpoint,
)
from ..persist.state import restore_tagged
from .tenants import (
    AdmissionController,
    TenantSpec,
    TenantStats,
    apply_engine,
    build_sketch,
)

PathLike = Union[str, Path]

#: Per-tenant queue capacity (pending commands before ingest pushes back).
DEFAULT_QUEUE_LIMIT = 1024

#: Suffix of per-tenant checkpoint files inside the state directory.
CKPT_SUFFIX = ".ckpt"

#: Marker distinguishing service checkpoints in their ``meta``.
META_SERVICE_KEY = "service_tenant"


class _Tenant:
    """Runtime state of one tenant (sketch + queue + worker task)."""

    def __init__(self, spec: TenantSpec, sketch, queue_limit: int,
                 ckpt_path: Optional[Path], windows_done: int = 0):
        self.spec = spec
        self.sketch = sketch
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_limit)
        self.pending: List[Any] = []
        self.pending_items = 0
        self.windows_done = windows_done
        self.stats = TenantStats()
        self.policy: Optional[CheckpointPolicy] = None
        if ckpt_path is not None and spec.checkpoint_every > 0:
            self.policy = CheckpointPolicy(
                ckpt_path, every=spec.checkpoint_every,
                meta={META_SERVICE_KEY: True, "spec": spec.to_dict()},
            )
        self.ckpt_path = ckpt_path
        self.task: Optional[asyncio.Task] = None

    def status(self) -> Dict[str, Any]:
        return {
            "name": self.spec.name,
            "spec": self.spec.to_dict(),
            "windows_done": self.windows_done,
            "pending_items": self.pending_items,
            "queue_depth": self.queue.qsize(),
            "memory_bytes": int(self.sketch.memory_bytes),
            "checkpoint": (str(self.ckpt_path)
                           if self.policy is not None else None),
            "stats": self.stats.to_dict(),
        }


class SketchService:
    """Async multi-tenant persistence-sketch server core.

    Transport-agnostic: the HTTP layer (:mod:`repro.service.http`) maps
    routes onto these methods one-to-one, and tests/invariants drive
    them directly under ``asyncio.run``.  Start with :meth:`start`
    (recovers checkpointed tenants), stop with :meth:`close` (writes a
    final checkpoint per checkpointed tenant).
    """

    def __init__(
        self,
        max_memory_bytes: Optional[int] = None,
        state_dir: Optional[PathLike] = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        registry: Optional[MetricsRegistry] = None,
    ):
        if queue_limit < 1:
            raise ServiceError("queue_limit must be >= 1")
        self.admission = AdmissionController(max_memory_bytes)
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.queue_limit = int(queue_limit)
        self.registry = registry if registry is not None else \
            MetricsRegistry()
        self.tenants: Dict[str, _Tenant] = {}
        self.requests_total = 0
        self._closed = False
        self._bind_service_gauges()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> List[str]:
        """Recover checkpointed tenants from the state directory.

        Returns the recovered tenant names (sorted).  Unreadable or
        foreign checkpoint files are skipped loudly via
        :class:`ServiceError` — a torn file must never become a silently
        empty tenant.
        """
        recovered = []
        if self.state_dir is None:
            return recovered
        self.state_dir.mkdir(parents=True, exist_ok=True)
        for path in sorted(self.state_dir.glob(f"*{CKPT_SUFFIX}")):
            name = path.name[: -len(CKPT_SUFFIX)]
            if name in self.tenants:
                continue
            try:
                payload = read_run_checkpoint(path)
            except SnapshotError as exc:
                raise ServiceError(
                    f"state dir holds unusable checkpoint {path.name}: "
                    f"{exc}"
                ) from exc
            meta = payload.get("meta") or {}
            if not meta.get(META_SERVICE_KEY):
                raise ServiceError(
                    f"{path.name} is a run checkpoint, not a service "
                    f"tenant checkpoint"
                )
            spec = TenantSpec.from_dict(meta["spec"])
            if spec.name != name:
                raise ServiceError(
                    f"checkpoint {path.name} carries spec for tenant "
                    f"{spec.name!r}"
                )
            self.admission.admit(spec)
            sketch = restore_tagged(payload["sketch"])
            apply_engine(sketch, spec.engine)
            tenant = _Tenant(spec, sketch, self.queue_limit, path,
                             windows_done=int(payload["windows_done"]))
            self._install(tenant)
            recovered.append(name)
        return recovered

    async def close(self) -> None:
        """Stop every tenant worker; checkpoint checkpointed tenants."""
        if self._closed:
            return
        self._closed = True
        for tenant in list(self.tenants.values()):
            await self._stop_worker(tenant)
            self._final_checkpoint(tenant)

    def _final_checkpoint(self, tenant: _Tenant) -> None:
        if tenant.policy is None:
            return
        save_run_checkpoint(
            tenant.sketch, tenant.ckpt_path, tenant.windows_done,
            meta=tenant.policy.meta,
        )
        tenant.stats.checkpoints_total += 1

    async def _stop_worker(self, tenant: _Tenant) -> None:
        if tenant.task is None or tenant.task.done():
            return
        future = asyncio.get_running_loop().create_future()
        await tenant.queue.put(("stop", None, future))
        await future
        await tenant.task

    # ------------------------------------------------------------------
    # tenant management
    # ------------------------------------------------------------------
    async def create_tenant(self, raw_spec: Dict[str, Any]) -> Dict:
        """Admit and build a tenant; returns its status dict.

        Admission control runs before any sketch memory is allocated:
        duplicate names raise :class:`ServiceError`, and budgets past
        the server cap raise :class:`AdmissionError` (HTTP 429).
        """
        self._guard_open()
        spec = TenantSpec.from_dict(raw_spec)
        if spec.name in self.tenants:
            raise ServiceError(f"tenant {spec.name!r} already exists")
        self.admission.admit(spec)
        try:
            sketch = build_sketch(spec)
        except Exception:
            self.admission.release(spec)
            raise
        ckpt_path = None
        if spec.checkpoint_every > 0:
            if self.state_dir is None:
                self.admission.release(spec)
                raise ServiceError(
                    "checkpoint_every needs a service state_dir"
                )
            self.state_dir.mkdir(parents=True, exist_ok=True)
            ckpt_path = self.state_dir / f"{spec.name}{CKPT_SUFFIX}"
        tenant = _Tenant(spec, sketch, self.queue_limit, ckpt_path)
        self._install(tenant)
        return tenant.status()

    def _install(self, tenant: _Tenant) -> None:
        self.tenants[tenant.spec.name] = tenant
        tenant.task = asyncio.get_running_loop().create_task(
            self._worker(tenant)
        )
        self._bind_tenant_gauges(tenant)

    async def delete_tenant(self, name: str) -> Dict:
        """Stop and drop a tenant, freeing its admission budget.

        Its checkpoint file (if any) is left on disk — deleting a tenant
        is an operator action, not evidence destruction; remove the file
        to prevent recovery on the next start.
        """
        tenant = self._tenant(name)
        # unregister before the first await: while the worker drains,
        # concurrent requests (including a second delete) must see the
        # tenant as gone instead of racing the teardown
        del self.tenants[name]
        await self._stop_worker(tenant)
        self.admission.release(tenant.spec)
        return {"deleted": name}

    def _tenant(self, name: str) -> _Tenant:
        try:
            return self.tenants[name]
        except KeyError:
            raise UnknownTenantError(f"unknown tenant {name!r}") from None

    def _guard_open(self) -> None:
        if self._closed:
            raise ServiceError("service is shut down")

    # ------------------------------------------------------------------
    # write path: coalescing ingest queue
    # ------------------------------------------------------------------
    async def ingest(self, name: str, items: List[Any]) -> Dict:
        """Queue a chunk of occurrences for the tenant's open window.

        The chunk is only type-checked here (every item must be a key
        :func:`~repro.common.hashing.canonical_key` accepts; a bad one
        rejects the whole chunk, so the barrier never fails on it) and
        enqueued whole; canonicalization runs once per window, over the
        coalesced chunks, in the next barrier's single ``insert_window``
        call.  A full queue raises :class:`AdmissionError`
        (backpressure, HTTP 429) instead of buffering unboundedly.
        """
        self._guard_open()
        tenant = self._tenant(name)
        if isinstance(items, (str, bytes, dict)) or \
                not hasattr(items, "__len__"):
            raise ServiceError(
                "items must be an array of keys (one per occurrence)"
            )
        items = list(items)
        try:
            _check_keys(items, "items")
        except ServiceError:
            tenant.stats.items_rejected_total += len(items)
            raise
        try:
            tenant.queue.put_nowait(("items", items, None))
        except asyncio.QueueFull:
            tenant.stats.rejected_total += 1
            raise AdmissionError(
                f"tenant {name!r} ingest queue is full "
                f"({self.queue_limit} pending commands); retry after the "
                f"next window barrier"
            ) from None
        tenant.stats.ingests_total += 1
        return {
            "queued": len(items),
            "queue_depth": tenant.queue.qsize(),
        }

    async def end_window(self, name: str, count: int = 1) -> Dict:
        """Close ``count`` windows; resolves when they are applied.

        The barrier awaits the worker, so a 200 response means every
        chunk ingested before it is inside the sketch and the window
        clock advanced — the property the kill-and-resume tests lean on.
        """
        self._guard_open()
        tenant = self._tenant(name)
        if count < 1:
            raise ServiceError("window count must be >= 1")
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        await tenant.queue.put(("window", int(count), future))
        await future
        return {
            "windows_done": tenant.windows_done,
            "pending_items": tenant.pending_items,
        }

    async def checkpoint_tenant(self, name: str) -> Dict:
        """Force an immediate checkpoint at the current boundary."""
        self._guard_open()
        tenant = self._tenant(name)
        if tenant.policy is None:
            raise ServiceError(
                f"tenant {name!r} was created without checkpoint_every"
            )
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        await tenant.queue.put(("checkpoint", None, future))
        await future
        return {"checkpoint": str(tenant.ckpt_path),
                "windows_done": tenant.windows_done}

    async def _worker(self, tenant: _Tenant) -> None:
        """Per-tenant command loop: drain chunks, apply window barriers.

        FIFO per tenant; independent tenants interleave freely on the
        loop.  Exceptions land on the command's future (barriers) or
        stop the worker loudly (chunk appends never raise).
        """
        while True:
            kind, payload, future = await tenant.queue.get()
            try:
                if kind == "items":
                    tenant.pending.append(payload)
                    tenant.pending_items += len(payload)
                    tenant.stats.items_total += len(payload)
                elif kind == "window":
                    for _ in range(payload):
                        self._close_window(tenant)
                    future.set_result(tenant.windows_done)
                elif kind == "checkpoint":
                    save_run_checkpoint(
                        tenant.sketch, tenant.ckpt_path,
                        tenant.windows_done, meta=tenant.policy.meta,
                    )
                    tenant.stats.checkpoints_total += 1
                    future.set_result(tenant.windows_done)
                elif kind == "stop":
                    future.set_result(None)
                    return
            except Exception as exc:  # surface on the awaiting caller
                if future is not None and not future.done():
                    future.set_exception(exc)
                else:
                    raise
            finally:
                tenant.queue.task_done()

    def _close_window(self, tenant: _Tenant) -> None:
        """Coalesce the buffered chunks into one ``insert_window``."""
        chunks = tenant.pending
        items = list(chain.from_iterable(chunks))
        tenant.pending = []
        tenant.pending_items = 0
        tenant.sketch.insert_window(items)
        tenant.windows_done += 1
        tenant.stats.windows_total += 1
        tenant.stats.coalesced_batches_total += len(chunks)
        if tenant.policy is not None:
            before = tenant.policy.writes
            tenant.policy.window_closed(tenant.sketch, tenant.windows_done)
            tenant.stats.checkpoints_total += tenant.policy.writes - before

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def estimate(self, name: str, keys: List[Any]) -> Dict:
        """Per-key persistence estimates from the tenant's sketch."""
        tenant = self._tenant(name)
        _check_keys(keys, "keys")
        tenant.stats.queries_total += 1
        # fold the batch once; the sketch (both panels, when sliding)
        # then sees canonical ints, which canonicalize to themselves
        query = tenant.sketch.query
        return {
            "windows_done": tenant.windows_done,
            "estimates": {str(key): int(query(canon)) for key, canon
                          in zip(keys, canonical_keys(keys).tolist())},
        }

    def explain(self, name: str, key: Any) -> Dict:
        """Decision audit for one key (flat/sharded/sliding aware)."""
        tenant = self._tenant(name)
        _check_keys([key], "key")
        tenant.stats.queries_total += 1
        explanation = tenant.sketch.explain(key)
        if isinstance(explanation, dict):  # sliding: per-panel audits
            payload = {panel: _explanation_dict(exp)
                       for panel, exp in explanation.items()}
        else:
            payload = _explanation_dict(explanation)
        return {"key": str(key), "explanation": payload,
                "estimate": int(tenant.sketch.query(key))}

    def report(self, name: str, threshold: int) -> Dict:
        """Items whose estimate passes ``threshold`` (Hot Part union)."""
        tenant = self._tenant(name)
        tenant.stats.queries_total += 1
        if threshold < 1:
            raise ServiceError("threshold must be >= 1")
        reported = tenant.sketch.report(int(threshold))
        return {
            "threshold": int(threshold),
            "windows_done": tenant.windows_done,
            "items": {str(key): int(value)
                      for key, value in sorted(reported.items())},
        }

    def find_persistent(self, name: str, alpha: float) -> Dict:
        """The paper's finding task: report at ``ceil(alpha * windows)``.

        Sliding tenants threshold against the covered recent range
        (their estimates never span more than ``horizon`` windows).
        """
        tenant = self._tenant(name)
        if not 0 < alpha <= 1:
            raise ServiceError("alpha must be in (0, 1]")
        span = tenant.windows_done
        if tenant.spec.kind == "sliding":
            span = getattr(tenant.sketch, "coverage", span)
        threshold = max(1, int(alpha * span))
        out = self.report(name, threshold)
        out["alpha"] = float(alpha)
        out["span_windows"] = span
        return out

    def tenant_status(self, name: str) -> Dict:
        return self._tenant(name).status()

    def list_tenants(self) -> Dict:
        return {
            "tenants": [self.tenants[name].status()
                        for name in sorted(self.tenants)],
            "reserved_bytes": self.admission.reserved_bytes,
            "max_memory_bytes": self.admission.max_memory_bytes,
        }

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        """Prometheus exposition snapshot (the ``/metrics`` endpoint)."""
        return to_prometheus(self.registry)

    def _bind_service_gauges(self) -> None:
        self.registry.gauge(
            "service_tenants", help="Live tenant count",
            fn=lambda: float(len(self.tenants)),
        )
        self.registry.gauge(
            "service_reserved_bytes",
            help="Memory budget reserved across tenants",
            fn=lambda: float(self.admission.reserved_bytes),
        )
        self.registry.gauge(
            "service_admission_rejections_total",
            help="Tenants rejected by the memory budget",
            fn=lambda: float(self.admission.rejections),
        )
        self.registry.gauge(
            "service_requests_total",
            help="HTTP requests handled (all routes)",
            fn=lambda: float(self.requests_total),
        )

    def _bind_tenant_gauges(self, tenant: _Tenant) -> None:
        labels = {"tenant": tenant.spec.name}
        rows = (
            ("service_tenant_windows_total", "Windows closed",
             lambda t: float(t.windows_total)),
            ("service_tenant_items_total", "Occurrences ingested",
             lambda t: float(t.items_total)),
            ("service_tenant_coalesced_batches_total",
             "Ingest chunks coalesced into window barriers",
             lambda t: float(t.coalesced_batches_total)),
            ("service_tenant_queries_total", "Read-path requests",
             lambda t: float(t.queries_total)),
            ("service_tenant_checkpoints_total", "Checkpoints written",
             lambda t: float(t.checkpoints_total)),
            ("service_tenant_rejected_total",
             "Ingest chunks rejected by backpressure",
             lambda t: float(t.rejected_total)),
            ("service_tenant_items_rejected_total",
             "Ingest items refused at the edge (chunks holding a non-key)",
             lambda t: float(t.items_rejected_total)),
        )
        stats = tenant.stats
        for gauge_name, help_text, read in rows:
            self.registry.gauge(
                gauge_name, help=help_text, labels=labels,
                fn=(lambda read=read, s=stats: read(s)),
            )
        self.registry.gauge(
            "service_tenant_queue_depth", help="Pending ingest commands",
            labels=labels,
            fn=(lambda t=tenant: float(t.queue.qsize())),
        )
        sketch = tenant.sketch
        if hasattr(sketch, "shards"):
            for i, shard in enumerate(sketch.shards):
                bind_sketch(self.registry, shard,
                            labels={**labels, "shard": str(i)})
        else:
            bind_sketch(self.registry, sketch, labels=labels)


def _check_keys(keys: List[Any], field: str) -> None:
    """Reject a batch holding any item that is not a key (HTTP 400)."""
    bad = first_invalid_key(keys)
    if bad is not None:
        item = keys[bad]
        where = f"{field}[{bad}]" if field != "key" else field
        raise ServiceError(
            f"{where} is not a key: {type(item).__name__} {item!r:.60}; "
            f"keys are integers or UTF-8 strings (nothing was applied)"
        )


def _explanation_dict(explanation) -> Dict[str, Any]:
    """JSON-able view of an :class:`~repro.obs.trace.Explanation`."""
    if hasattr(explanation, "to_dict"):
        return explanation.to_dict()
    out = {}
    for field_name in getattr(explanation, "__dataclass_fields__", {}):
        value = getattr(explanation, field_name)
        if field_name == "events":
            value = [str(event) for event in value]
        elif not isinstance(value, (int, float, str, bool, type(None))):
            value = str(value)
        out[field_name] = value
    return out
