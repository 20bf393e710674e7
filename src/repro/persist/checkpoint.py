"""Checkpoint-every-K-windows policy and resume-from-window recovery.

A long trace replay (or a live stream) survives a crash by persisting the
sketch at window boundaries — the only points where sketch state is
self-contained (no open Burst Filter window, no half-applied flags).  The
checkpoint file carries, besides the class-tagged sketch state, enough
run context to make resumption safe: how many windows were completed and
the identity of the trace being replayed, so resuming against the wrong
trace fails loudly instead of silently merging two streams.

Because every stage's ``state_dict`` captures *all* mutable state — down
to the Hot Part's RNG and per-window salt — a resumed run replays only
the tail windows and finishes with estimates bit-identical to a run that
was never interrupted.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..common.errors import SnapshotError
from .codec import read_frame, write_frame
from .state import restore_tagged, tagged_state

PathLike = Union[str, Path]

#: Payload kind for trace-replay checkpoints.
KIND_TRACE_RUN = "trace-run"

#: Payload kind for live stream-driver checkpoints.
KIND_STREAM_DRIVER = "stream-driver"


class CheckpointPolicy:
    """Write a checkpoint every ``every`` closed windows.

    Attach to :func:`repro.experiments.harness.run_stream` via its
    ``checkpoint=`` argument (or drive it manually through
    :meth:`window_closed`).  Each write is atomic, so the previous
    checkpoint survives any crash during the next one.
    """

    def __init__(self, path: PathLike, every: int = 1,
                 meta: Optional[Dict[str, Any]] = None):
        if every < 1:
            raise SnapshotError("checkpoint interval must be >= 1 window")
        self.path = Path(path)
        self.every = int(every)
        self.meta = dict(meta) if meta else {}
        self.writes = 0

    def window_closed(self, sketch: Any, windows_done: int,
                      trace: Any = None) -> None:
        """Checkpoint if ``windows_done`` hits the interval."""
        if windows_done % self.every == 0:
            save_run_checkpoint(sketch, self.path, windows_done,
                                trace=trace, meta=self.meta)
            self.writes += 1


def _trace_identity(trace: Any) -> Dict[str, Any]:
    return {
        "name": str(getattr(trace, "name", "")),
        "n_records": int(trace.n_records),
        "n_windows": int(trace.n_windows),
    }


def save_run_checkpoint(
    sketch: Any, path: PathLike, windows_done: int, trace: Any = None,
    meta: Optional[Dict[str, Any]] = None,
) -> None:
    """Atomically persist a mid-replay sketch at a window boundary.

    ``windows_done`` is the number of *completed* windows (the resume
    point); ``trace`` pins the checkpoint to the stream being replayed;
    ``meta`` carries caller context (algorithm label, memory budget, seed)
    that :func:`resume` hands back and the CLI uses to rebuild reference
    runs.
    """
    if windows_done < 0:
        raise SnapshotError("windows_done must be >= 0")
    payload = {
        "kind": KIND_TRACE_RUN,
        "windows_done": int(windows_done),
        "trace": _trace_identity(trace) if trace is not None else None,
        "meta": dict(meta) if meta else {},
        "sketch": tagged_state(sketch),
    }
    write_frame(path, payload)


def read_run_checkpoint(path: PathLike) -> Dict[str, Any]:
    """Read a trace-run checkpoint payload (validated, sketch untouched)."""
    payload = read_frame(path)
    if not isinstance(payload, dict) or payload.get("kind") != KIND_TRACE_RUN:
        raise SnapshotError(
            f"{path} is not a trace-run checkpoint "
            f"(kind={payload.get('kind') if isinstance(payload, dict) else None!r})"
        )
    for field in ("windows_done", "sketch"):
        if field not in payload:
            raise SnapshotError(f"trace-run checkpoint lacks {field!r}")
    return payload


def load_run_checkpoint(
    path: PathLike,
) -> Tuple[Any, int, Dict[str, Any]]:
    """Restore ``(sketch, windows_done, payload)`` from a checkpoint."""
    payload = read_run_checkpoint(path)
    sketch = restore_tagged(payload["sketch"])
    windows_done = int(payload["windows_done"])
    if windows_done < 0:
        raise SnapshotError(
            f"checkpoint claims {windows_done} completed windows"
        )
    return sketch, windows_done, payload


def resume(path: PathLike, trace: Any, batched: Optional[bool] = None,
           strict: bool = True, engine: Optional[str] = None) -> Any:
    """Restore a checkpointed run and replay only the remaining windows.

    Returns the finished sketch, bit-identical (for the deterministic
    replacement policy, and for ``random`` too — the RNG state is part of
    the checkpoint) to one that streamed the whole trace uninterrupted.

    ``strict`` (default) verifies the trace identity recorded at
    checkpoint time — name, record count, window count — and raises
    :class:`SnapshotError` on any mismatch; pass ``strict=False`` to
    resume against a renamed or re-cut trace at your own risk.

    ``batched`` selects the replay path exactly like
    :func:`~repro.experiments.harness.run_stream`: default prefers the
    sketch's whole-window ``insert_window``, ``False`` forces the
    record-at-a-time loop.  Both are bit-equivalent.

    ``engine`` re-applies a batch ingestion backend to the restored
    sketch before the tail replay (engines are runtime-only state, never
    checkpointed; a restored sketch otherwise replays on its default).
    Raises :class:`~repro.common.errors.ConfigError` when the restored
    sketch has no engine selector, instead of silently ignoring it.
    """
    sketch, windows_done, payload = load_run_checkpoint(path)
    if engine is not None:
        if not hasattr(sketch, "engine"):
            from ..common.errors import ConfigError

            raise ConfigError(
                f"restored {type(sketch).__name__} has no engine "
                f"selector; cannot apply engine={engine!r}"
            )
        sketch.engine = engine
    recorded = payload.get("trace")
    if strict and recorded is not None:
        actual = _trace_identity(trace)
        if recorded != actual:
            raise SnapshotError(
                f"checkpoint was taken against trace {recorded}, "
                f"resuming against {actual}; pass strict=False to override"
            )
    if windows_done > trace.n_windows:
        raise SnapshotError(
            f"checkpoint completed {windows_done} windows but the trace "
            f"has only {trace.n_windows}"
        )
    replay_tail(sketch, trace, windows_done, batched=batched)
    return sketch


def replay_tail(sketch: Any, trace: Any, windows_done: int,
                batched: Optional[bool] = None) -> int:
    """Feed windows ``[windows_done, n_windows)`` of ``trace`` into
    ``sketch``; returns how many windows were replayed."""
    use_batched = (
        hasattr(sketch, "insert_window") if batched is None else batched
    )
    tail = range(windows_done, trace.n_windows)
    if use_batched:
        window_arrays = trace.window_arrays()
        for wid in tail:
            sketch.insert_window(window_arrays[wid])
    else:
        window_items = dict(trace.windows())
        for wid in tail:
            for item in window_items[wid]:
                sketch.insert(item)
            sketch.end_window()
    return len(tail)
