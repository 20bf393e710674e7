"""Deterministic seeded hashing for sketches.

The paper's C++ implementation uses BOBHash with a distinct random seed per
hash function.  We reproduce the same *structure* — an indexed family of
independent-looking hash functions over 64-bit keys — with a splitmix64-style
finalizer, which passes standard avalanche tests and is fast in pure Python.

All hashing in this package goes through :class:`HashFamily` so that results
are reproducible across runs and platforms (Python's built-in ``hash`` is
salted per process for str/bytes and is never used).

Two call styles are supported everywhere:

* scalar (``mix``, ``HashFamily.index``) for record-at-a-time insertion;
* columnar (``mix_array``, ``HashFamily.indexes_batch``) running the same
  splitmix64 rounds over whole ``numpy.uint64`` arrays in a handful of
  vectorized operations, for the batch-ingestion fast path.  The two styles
  are bit-identical: ``mix_array(keys, s)[i] == mix(int(keys[i]), s)``.
"""

from __future__ import annotations

import operator
from array import array
from typing import (
    Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

import numpy as np

MASK64 = (1 << 64) - 1

ItemKey = Union[int, str, bytes]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# Golden-ratio increments used to derive per-function seeds from a base seed.
_SEED_STEP = 0x9E3779B97F4A7C15

#: Version of the bytes/str canonicalization scheme.  v1 was per-byte
#: FNV-1a; v2 folds 8-byte little-endian chunks through the 64-bit FNV
#: prime and finishes with splitmix64 (~8x fewer multiplies).  The constant
#: is part of the on-disk/seed contract: snapshots and fixed-seed tests are
#: only comparable between builds with equal ``HASH_VERSION``.
HASH_VERSION = 2


def _fnv1a_bytes_v1(data: bytes) -> int:
    """The v1 (``HASH_VERSION == 1``) per-byte FNV-1a fold.

    Kept as the reference implementation for the chunked v2 scheme's
    benchmark delta (``benchmarks/bench_ingestion_paths.py``); not used by
    :func:`canonical_key` anymore.
    """
    value = _FNV_OFFSET
    for byte in data:
        value = ((value ^ byte) * _FNV_PRIME) & MASK64
    return value


def _chunked_bytes_v2(data: bytes) -> int:
    """The v2 bytes fold: 8-byte chunks through FNV-64, splitmix finish.

    Length is folded in up front so prefixes of each other ("ab" / "abc")
    and zero-padded tails cannot collide trivially; the final splitmix64
    round restores full avalanche after the weaker chunk multiplies.
    """
    n = len(data)
    value = (_FNV_OFFSET ^ n) & MASK64
    full = n & ~7
    for ofs in range(0, full, 8):
        chunk = int.from_bytes(data[ofs:ofs + 8], "little")
        value = ((value ^ chunk) * _FNV_PRIME) & MASK64
    if n != full:
        chunk = int.from_bytes(data[full:], "little")
        value = ((value ^ chunk) * _FNV_PRIME) & MASK64
    return splitmix64(value)


def canonical_key(item: ItemKey) -> int:
    """Map an item identifier to a canonical unsigned 64-bit integer.

    Integers (anything with ``__index__``: ``int``, ``bool``, numpy
    integer scalars) are masked to 64 bits; strings are UTF-8 encoded and
    byte strings are hashed with the chunked FNV/splitmix fold (versioned
    via :data:`HASH_VERSION`).  Anything else raises :class:`TypeError`.
    The mapping is deterministic across processes, unlike the built-in
    ``hash``.
    """
    if isinstance(item, int):
        return item & MASK64
    if isinstance(item, str):
        item = item.encode("utf-8")
    if isinstance(item, bytes):
        return _chunked_bytes_v2(item)
    try:
        return operator.index(item) & MASK64
    except TypeError:
        raise TypeError(
            f"unsupported item key type: {type(item).__name__}"
        ) from None


def canonical_keys(
    items: Union[Sequence[ItemKey], np.ndarray],
) -> np.ndarray:
    """Canonicalize a whole batch of item identifiers to ``uint64``.

    The columnar counterpart of :func:`canonical_key`, equal to
    ``[canonical_key(x) for x in items]`` element for element (or raising
    the same exception).  It dispatches on the items' Python types, never
    on what numpy can parse, so numeric strings stay strings:

    * integer arrays convert in one vectorized pass (two's-complement
      wrapping of signed dtypes matches the scalar ``& MASK64``), and so
      do integer lists in ``[0, 2**64)``;
    * lists of ``str``/``bytes`` run the v2 fold across rows at once
      (:func:`_fold_rows`), in memory proportional to their total bytes;
    * anything else — mixed types, out-of-range ints — goes through the
      scalar function per element.
    """
    if isinstance(items, np.ndarray):
        if items.dtype == np.uint64:
            return items
        if np.issubdtype(items.dtype, np.integer):
            return items.astype(np.uint64)
        items = items.tolist() if items.dtype.kind in "SU" else list(items)
    elif not isinstance(items, (list, tuple)):
        items = list(items)
    try:
        # array("Q") takes exactly the __index__ types canonical_key
        # treats as integers, and rejects str, bytes and floats
        return np.frombuffer(array("Q", items), dtype=np.uint64)
    except OverflowError:  # a negative or >= 2**64 int: mask per element
        pass
    except TypeError:
        kinds = set(map(type, items))
        if kinds <= {str, bytes}:
            return _fold_rows(*_pack_rows(items, kinds))
    return np.array([canonical_key(item) for item in items],
                    dtype=np.uint64)


def first_invalid_key(items: Sequence[Any]) -> Optional[int]:
    """Index of the first item :func:`canonical_key` rejects, else ``None``.

    The edge check for untrusted batches (the service's ``/ingest``): a
    batch it passes canonicalizes without error.  Plain ``int``/``bool``/
    ``str``/``bytes`` batches are checked by type in one pass (strings
    must also encode to UTF-8, which rules out lone surrogates); other
    types are tried item by item.
    """
    kinds = set(map(type, items))
    if kinds <= {int, bool, bytes}:
        return None
    if kinds <= {int, bool, str, bytes}:
        texts = items if kinds == {str} else \
            [item for item in items if type(item) is str]
        try:
            "".join(texts).encode("utf-8")
            return None
        except UnicodeEncodeError:
            pass
    for index, item in enumerate(items):
        try:
            canonical_key(item)
        except (TypeError, UnicodeEncodeError):
            return index
    return None


def _pack_rows(items: Sequence[Union[str, bytes]],
               kinds: Set[type]) -> Tuple[bytes, np.ndarray]:
    """UTF-8 encode a str/bytes batch into one buffer plus row lengths."""
    n = len(items)
    if kinds == {str}:
        joined = "".join(items)
        if joined.isascii():  # one byte per character: lengths carry over
            return (joined.encode("ascii"),
                    np.fromiter(map(len, items), dtype=np.int64, count=n))
        items = [item.encode("utf-8") for item in items]
    elif kinds != {bytes}:
        items = [item.encode("utf-8") if type(item) is str else item
                 for item in items]
    return (b"".join(items),
            np.fromiter(map(len, items), dtype=np.int64, count=n))


#: The column loop of :func:`_fold_rows` runs for at most
#: ``max(_MIN_COLUMNS, chunks of the _WIDE-th longest row)`` columns; the
#: few rows longer than that take the scalar loop, so one long key cannot
#: stretch the column loop over rows that finished long before.
_WIDE = 32
_MIN_COLUMNS = 16


def _fold_rows(data: bytes, lens: np.ndarray) -> np.ndarray:
    """:func:`_chunked_bytes_v2` of every row of ``data``, as ``uint64``.

    Row ``i`` is the next ``lens[i]`` bytes of ``data``.  Its 8-byte
    little-endian chunks (the last one zero-padded) are read straight out
    of ``data`` through an unaligned ``uint64`` view, so the whole batch
    costs O(total bytes) memory — never rows x longest row.  Rows are
    ranked by chunk count, and column ``j`` folds chunk ``j`` into the
    ranked prefix of rows that have one: ``(v ^ chunk) * FNV_PRIME``,
    wrapping in ``uint64`` exactly as the masked Python ints do.
    """
    n = lens.size
    out = np.empty(n, dtype=np.uint64)
    if not n:
        return out
    starts = np.cumsum(lens) - lens
    counts = (lens + 7) >> 3
    order = np.argsort(-counts, kind="stable")
    ranked = counts[order]
    width = min(int(ranked[0]),
                max(int(ranked[min(_WIDE, n - 1)]), _MIN_COLUMNS))
    wide = int(np.count_nonzero(ranked > width))
    for row in order[:wide].tolist():
        start = int(starts[row])
        out[row] = _chunked_bytes_v2(data[start:start + int(lens[row])])
    rows, counts = order[wide:], ranked[wide:]
    lens = lens[rows]
    firsts = np.cumsum(counts) - counts
    total = int(firsts[-1] + counts[-1])
    # byte offset of every chunk, row by row (unaligned uint64 reads;
    # eight zero bytes of padding keep the last one in bounds)
    offsets = np.repeat(starts[rows] - 8 * firsts, counts)
    offsets += np.arange(0, 8 * total, 8, dtype=np.int64)
    words = np.ndarray((len(data) + 1,), dtype="<u8",
                       buffer=data + bytes(8), strides=(1,))
    chunks = words[offsets].astype(np.uint64, copy=False)
    has = counts > 0
    tail_bytes = (lens - 8 * counts + 8)[has].astype(np.uint64)
    chunks[(firsts + counts - 1)[has]] &= \
        np.uint64(MASK64) >> (np.uint64(64) - 8 * tail_bytes)
    value = np.uint64(_FNV_OFFSET) ^ lens.astype(np.uint64)
    prime = np.uint64(_FNV_PRIME)
    live = counts.size - np.searchsorted(
        counts[::-1], np.arange(width), side="right")
    for column, k in enumerate(live.tolist()):
        value[:k] = (value[:k] ^ chunks[firsts[:k] + column]) * prime
    out[rows] = _splitmix_rounds(value)
    return out


def splitmix64(x: int) -> int:
    """One round of the splitmix64 finalizer (full avalanche on 64 bits)."""
    x = (x + _SEED_STEP) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def mix(key: int, seed: int) -> int:
    """Hash a canonical 64-bit key under a 64-bit seed."""
    return splitmix64((key ^ seed) & MASK64)


def _splitmix_rounds(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer rounds on pre-seeded ``uint64``."""
    x = x + np.uint64(_SEED_STEP)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def mix_array(keys: np.ndarray, seed: int) -> np.ndarray:
    """Vectorized :func:`mix` over a ``uint64`` key array.

    Runs the identical splitmix64 rounds elementwise (``uint64`` arithmetic
    wraps modulo 2**64 exactly like the masked Python-int version), so
    ``mix_array(keys, s)[i] == mix(int(keys[i]), s)`` for every element.
    """
    return _splitmix_rounds(keys ^ np.uint64(seed & MASK64))


class HashFamily:
    """A family of ``count`` independent seeded hash functions.

    Mirrors the paper's "BOBHash with distinct random seeds per function".

    >>> fam = HashFamily(count=2, seed=7)
    >>> idx = fam.indexes(12345, width=100)
    >>> len(idx), all(0 <= i < 100 for i in idx)
    (2, True)
    """

    __slots__ = ("count", "seeds")

    def __init__(self, count: int, seed: int):
        if count < 1:
            raise ValueError("hash family needs at least one function")
        self.count = count
        self.seeds: List[int] = [
            splitmix64((seed + i * _SEED_STEP) & MASK64) for i in range(count)
        ]

    def hash(self, key: int, i: int) -> int:
        """Full 64-bit hash of ``key`` under the ``i``-th function."""
        return mix(key, self.seeds[i])

    def index(self, key: int, i: int, width: int) -> int:
        """Bucket index of ``key`` under function ``i`` in ``[0, width)``."""
        return mix(key, self.seeds[i]) % width

    def indexes(self, key: int, width: int) -> List[int]:
        """Bucket indexes of ``key`` under every function in the family."""
        return [mix(key, s) % width for s in self.seeds]

    def sign(self, key: int, i: int = 0) -> int:
        """A +1/-1 hash (used by WavingSketch)."""
        return 1 if mix(key, self.seeds[i]) & 1 else -1

    def hash_batch(self, keys: np.ndarray, i: int = 0) -> np.ndarray:
        """Vectorized :meth:`hash` over a ``uint64`` key array."""
        return mix_array(keys, self.seeds[i])

    def index_batch(self, keys: np.ndarray, i: int, width: int) -> np.ndarray:
        """Vectorized :meth:`index`: bucket of every key under function ``i``.

        Returns ``int64`` indexes in ``[0, width)`` that agree elementwise
        with the scalar ``index`` (unsigned modulo on non-negative values).
        """
        return (mix_array(keys, self.seeds[i])
                % np.uint64(width)).astype(np.int64)

    def indexes_batch(self, keys: np.ndarray, width: int) -> np.ndarray:
        """Vectorized :meth:`indexes`: shape ``(count, len(keys))`` indexes.

        Row ``i`` holds every key's bucket under the ``i``-th function —
        the columnar layout the Cold Filter's grouped gather/scatter wants.
        All rows run through one fused splitmix pass on the ``(count, n)``
        seeded matrix; elementwise it is exactly ``mix(key, seeds[i])``.
        """
        seeds = np.array(self.seeds, dtype=np.uint64)
        mixed = _splitmix_rounds(keys[None, :] ^ seeds[:, None])
        return (mixed % np.uint64(width)).astype(np.int64)

    def state_dict(self) -> Dict[str, Any]:
        """Exact state as plain values (see :mod:`repro.persist`).

        The *derived* seeds are stored (not the constructor seed), so a
        restored family hashes identically even if the derivation formula
        ever changes between versions.
        """
        return {"count": self.count, "seeds": list(self.seeds)}

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "HashFamily":
        """Rebuild a family with the exact saved per-function seeds."""
        obj = cls.__new__(cls)
        obj.count = int(state["count"])
        obj.seeds = [int(s) for s in state["seeds"]]
        if len(obj.seeds) != obj.count or obj.count < 1:
            raise ValueError("hash family state is inconsistent")
        return obj


def derive_seed(base: int, *salts: int) -> int:
    """Derive a child seed from a base seed and integer salts.

    Used to give each sketch component (and each time window, where the
    paper reseeds per window) an independent stream of randomness.
    """
    value = base & MASK64
    for salt in salts:
        value = splitmix64((value ^ (salt & MASK64)) & MASK64)
    return value


def fingerprint(item: ItemKey, bits: int = 32, seed: int = 0x5EED) -> int:
    """A short fingerprint of an item, e.g. the 4-byte IDs used in the paper."""
    if not 1 <= bits <= 64:
        raise ValueError("fingerprint bits must be in [1, 64]")
    return mix(canonical_key(item), seed) & ((1 << bits) - 1)


def iter_canonical(items: Iterable[ItemKey]) -> Iterable[int]:
    """Canonicalize a stream of item identifiers."""
    for item in items:
        yield canonical_key(item)
