"""Class-tagged state trees: save/restore any registered sketch.

The codec (:mod:`repro.persist.codec`) moves *data*; this module moves
*objects*.  A sketch that implements ``state_dict()`` / ``from_state()``
is wrapped as ``{"class": <registered name>, "state": <tree>}`` and the
name — not an arbitrary import path, as pickle would use — selects the
restoring class from an explicit allowlist.  Loading a checkpoint can
therefore only ever construct the handful of sketch types this package
ships, no matter what the file claims.
"""

from __future__ import annotations

import inspect
from pathlib import Path
from typing import Any, Dict, Optional, Type, Union

from ..common.errors import SnapshotError
from .codec import read_frame, write_frame

PathLike = Union[str, Path]

#: Allowlist of restorable classes, populated lazily (importing the core
#: modules at module load would cycle back into ``repro.core``).
_REGISTRY: Dict[str, Type] = {}


def _registry() -> Dict[str, Type]:
    if not _REGISTRY:
        from ..core.burst_filter import BurstFilter
        from ..core.cold_filter import ColdFilter
        from ..core.hot_part import HotPart
        from ..core.hypersistent import HypersistentSketch
        from ..core.sharded import ShardedSketch
        from ..core.sliding import SlidingHypersistentSketch

        for klass in (
            BurstFilter,
            ColdFilter,
            HotPart,
            HypersistentSketch,
            ShardedSketch,
            SlidingHypersistentSketch,
        ):
            _REGISTRY[klass.__name__] = klass
        # tag of the separate SIMD filter class earlier versions wrote;
        # BurstFilter.from_state decodes its layout as a "simd" filter
        _REGISTRY["VectorizedBurstFilter"] = BurstFilter
    return _REGISTRY


def register_class(klass: Type) -> Type:
    """Add a class to the restore allowlist (usable as a decorator).

    The class must implement the persistence contract *with the right
    method kinds*, not merely carry the attribute names:

    * ``state_dict`` — a plain method, callable on instances (it
      captures ``self``'s state);
    * ``from_state`` — a ``classmethod`` or ``staticmethod``
      (:func:`restore_tagged` calls it on the class, with no instance in
      existence yet).

    A ``hasattr`` check alone would accept e.g. an instance-method
    ``from_state`` and only blow up later, deep inside a checkpoint
    load; failing here keeps the error next to its cause.  Third-party
    shard types plugged into :class:`~repro.core.sharded.ShardedSketch`
    register here to become checkpointable.
    """
    if not inspect.isclass(klass):
        raise TypeError(
            f"register_class expects a class, got "
            f"{type(klass).__name__}"
        )
    state_dict = inspect.getattr_static(klass, "state_dict", None)
    if state_dict is None or not callable(
            getattr(klass, "state_dict", None)):
        raise TypeError(
            f"{klass.__name__} must implement state_dict() "
            f"(a plain method returning the state tree)"
        )
    if isinstance(state_dict, (classmethod, staticmethod)):
        raise TypeError(
            f"{klass.__name__}.state_dict must be a plain method "
            f"callable on instances, not a "
            f"{type(state_dict).__name__}; it captures per-instance "
            f"state"
        )
    from_state = inspect.getattr_static(klass, "from_state", None)
    if from_state is None:
        raise TypeError(
            f"{klass.__name__} must implement from_state() "
            f"(a classmethod rebuilding an instance from a state tree)"
        )
    if not isinstance(from_state, (classmethod, staticmethod)):
        raise TypeError(
            f"{klass.__name__}.from_state must be a classmethod or "
            f"staticmethod — restore calls it on the class before any "
            f"instance exists"
        )
    _registry()[klass.__name__] = klass
    return klass


def tagged_state(obj: Any) -> Dict[str, Any]:
    """Wrap an object's state tree with its registered class name."""
    name = type(obj).__name__
    if name not in _registry():
        raise SnapshotError(
            f"{name} is not registered for persistence "
            f"(see repro.persist.register_class)"
        )
    return {"class": name, "state": obj.state_dict()}


def restore_tagged(tagged: Any) -> Any:
    """Rebuild an object from a class-tagged state tree.

    Structural problems — a non-dict, an unknown class name, a state the
    class rejects — all raise :class:`SnapshotError`.
    """
    if not isinstance(tagged, dict) or "class" not in tagged \
            or "state" not in tagged:
        raise SnapshotError("checkpoint payload is not a tagged state tree")
    name = tagged["class"]
    klass = _registry().get(name)
    if klass is None:
        raise SnapshotError(
            f"checkpoint names unknown class {name!r}; only registered "
            f"sketch types can be restored"
        )
    try:
        return klass.from_state(tagged["state"])
    except SnapshotError:
        raise
    except Exception as exc:
        raise SnapshotError(
            f"checkpoint state for {name} is invalid: {exc}"
        ) from exc


def save_state(obj: Any, path: PathLike) -> None:
    """Atomically write ``obj``'s tagged state tree to ``path``."""
    write_frame(path, tagged_state(obj))


def load_state(path: PathLike, expected_class: Optional[type] = None) -> Any:
    """Load and rebuild an object saved with :func:`save_state`.

    When ``expected_class`` is given, a checkpoint holding any other type
    is rejected (guards callers that hand the file to type-specific code).
    """
    obj = restore_tagged(read_frame(path))
    if expected_class is not None and not isinstance(obj, expected_class):
        raise SnapshotError(
            f"checkpoint holds {type(obj).__name__}, "
            f"expected {expected_class.__name__}"
        )
    return obj
