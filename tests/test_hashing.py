"""Unit tests for repro.common.hashing."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hashing import (
    MASK64,
    HashFamily,
    canonical_key,
    canonical_keys,
    derive_seed,
    fingerprint,
    first_invalid_key,
    iter_canonical,
    mix,
    splitmix64,
)
from repro.core import ENGINES, HSConfig, HypersistentSketch


class TestCanonicalKey:
    def test_int_passthrough(self):
        assert canonical_key(42) == 42

    def test_int_masked_to_64_bits(self):
        assert canonical_key(1 << 80) == 0
        assert canonical_key((1 << 64) + 5) == 5

    def test_negative_int_wraps(self):
        assert canonical_key(-1) == MASK64

    def test_str_deterministic(self):
        assert canonical_key("10.0.0.1") == canonical_key("10.0.0.1")

    def test_str_and_equivalent_bytes_agree(self):
        assert canonical_key("abc") == canonical_key(b"abc")

    def test_distinct_strings_differ(self):
        assert canonical_key("a") != canonical_key("b")

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            canonical_key(3.14)

    def test_iter_canonical(self):
        assert list(iter_canonical([1, "a"])) == [1, canonical_key("a")]


class TestSplitmix:
    def test_range(self):
        for x in (0, 1, MASK64, 123456789):
            assert 0 <= splitmix64(x) <= MASK64

    def test_deterministic(self):
        assert splitmix64(99) == splitmix64(99)

    def test_avalanche_on_low_bit(self):
        a, b = splitmix64(2), splitmix64(3)
        differing = bin(a ^ b).count("1")
        assert differing > 16  # a single-bit flip should scramble widely

    def test_mix_depends_on_seed(self):
        assert mix(5, 1) != mix(5, 2)


class TestHashFamily:
    def test_requires_positive_count(self):
        with pytest.raises(ValueError):
            HashFamily(0, seed=1)

    def test_functions_disagree(self):
        fam = HashFamily(3, seed=7)
        values = {fam.hash(12345, i) for i in range(3)}
        assert len(values) == 3

    def test_index_in_range(self):
        fam = HashFamily(4, seed=3)
        for key in range(200):
            for idx in fam.indexes(key, 17):
                assert 0 <= idx < 17

    def test_indexes_matches_index(self):
        fam = HashFamily(3, seed=9)
        assert fam.indexes(555, 101) == [
            fam.index(555, i, 101) for i in range(3)
        ]

    def test_same_seed_reproducible(self):
        a = HashFamily(2, seed=21)
        b = HashFamily(2, seed=21)
        assert a.indexes(777, 50) == b.indexes(777, 50)

    def test_different_seed_differs_somewhere(self):
        a = HashFamily(1, seed=1)
        b = HashFamily(1, seed=2)
        assert any(
            a.index(k, 0, 1000) != b.index(k, 0, 1000) for k in range(20)
        )

    def test_sign_is_plus_minus_one(self):
        fam = HashFamily(1, seed=5)
        signs = {fam.sign(k) for k in range(100)}
        assert signs == {-1, 1}

    def test_distribution_roughly_uniform(self):
        fam = HashFamily(1, seed=13)
        width = 10
        counts = [0] * width
        n = 5000
        for k in range(n):
            counts[fam.index(k, 0, width)] += 1
        expected = n / width
        assert all(0.8 * expected < c < 1.2 * expected for c in counts)


class TestDerivedSeeds:
    def test_derive_seed_changes_with_salt(self):
        assert derive_seed(1, 2) != derive_seed(1, 3)

    def test_derive_seed_deterministic(self):
        assert derive_seed(9, 1, 2) == derive_seed(9, 1, 2)

    def test_fingerprint_width(self):
        assert 0 <= fingerprint("x", bits=8) < 256

    def test_fingerprint_bits_validated(self):
        with pytest.raises(ValueError):
            fingerprint("x", bits=0)
        with pytest.raises(ValueError):
            fingerprint("x", bits=65)

    def test_fingerprint_deterministic(self):
        assert fingerprint("flow") == fingerprint("flow")


def _scalar(items):
    """``[canonical_key(x) for x in items]`` as uint64, or the exception
    type it raises."""
    try:
        return np.array([canonical_key(x) for x in items], dtype=np.uint64)
    except (TypeError, UnicodeEncodeError) as exc:
        return type(exc)


def _batch(items):
    try:
        return canonical_keys(items)
    except (TypeError, UnicodeEncodeError) as exc:
        return type(exc)


_texts = st.text(max_size=40)  # every 8-byte boundary, non-ASCII, NULs
_nul_texts = st.text(alphabet="a\x00\u00e9", max_size=40)
_blobs = st.binary(max_size=40)
_ints = st.integers(min_value=-(1 << 70), max_value=1 << 70)
_numeric = st.integers(min_value=-(10 ** 25), max_value=10 ** 25).map(str)
_junk = st.one_of(st.floats(allow_nan=False), st.none(),
                  st.lists(st.integers(), max_size=2))
_key_lists = st.one_of(
    st.lists(st.one_of(_texts, _nul_texts), max_size=30),
    st.lists(_blobs, max_size=30),
    st.lists(_numeric, max_size=30),
    st.lists(_ints, max_size=30),
    st.lists(st.one_of(_texts, _blobs, _ints, _numeric), max_size=30),
    st.lists(st.one_of(_texts, _ints, _junk), max_size=10),
)


class TestCanonicalKeys:
    """``canonical_keys`` is ``canonical_key`` applied element by element."""

    @settings(max_examples=300, deadline=None)
    @given(items=_key_lists)
    def test_batch_equals_scalar_or_both_raise(self, items):
        want, got = _scalar(items), _batch(items)
        if isinstance(want, type):
            assert got is want
        else:
            assert got.dtype == np.uint64
            assert got.tolist() == want.tolist()
        assert (first_invalid_key(items) is None) == \
            (not isinstance(want, type))

    def test_every_length_through_two_chunks(self):
        rows = [bytes(range(1, n + 1)) for n in range(41)]
        rows += [b"\x00" * n for n in range(41)]
        rows += [b"ab\x00" * n for n in range(14)]
        assert canonical_keys(rows).tolist() == \
            [canonical_key(row) for row in rows]

    def test_rows_past_the_column_loop_take_the_scalar_fold(self):
        rows = [b"m" * n for n in (0, 7, 130, 200, 999)]
        rows += [bytes([i]) * (i % 41) for i in range(200)]
        assert canonical_keys(rows).tolist() == \
            [canonical_key(row) for row in rows]

    def test_numeric_strings_stay_strings(self):
        assert canonical_keys(["123", "456"]).tolist() == \
            [canonical_key("123"), canonical_key("456")]
        assert canonical_keys(["123", "456"]).tolist() != [123, 456]
        assert canonical_keys([b"7"]).tolist() == [canonical_key(b"7")]

    def test_floats_and_containers_raise_like_the_scalar(self):
        for items in ([1.5, 2], [2, 1.5], [[1]], [None], ["a", {}]):
            with pytest.raises(TypeError):
                canonical_keys(items)
        with pytest.raises(UnicodeEncodeError):
            canonical_keys(["ok", "\ud800"])

    def test_integer_inputs(self):
        assert canonical_keys([-1, 1 << 64, 5]).tolist() == [MASK64, 0, 5]
        assert canonical_keys([True, 2]).tolist() == [1, 2]
        assert canonical_key(np.int64(-2)) == MASK64 - 1
        assert canonical_keys([np.uint64(9), 3]).tolist() == [9, 3]
        assert canonical_keys(np.array([-1], dtype=np.int8)).tolist() == \
            [MASK64]
        assert canonical_keys(iter([4, 5])).tolist() == [4, 5]
        assert canonical_keys([]).dtype == np.uint64

    def test_string_arrays(self):
        words = np.array(["flow", "x\u00e9", ""])
        assert canonical_keys(words).tolist() == \
            [canonical_key(w) for w in ["flow", "x\u00e9", ""]]
        with pytest.raises(TypeError):
            canonical_keys(np.array([1.5]))

    def test_long_key_among_short_folds_in_linear_memory(self):
        short = [f"10.0.{i % 256}.{i // 256}:{i}>192.168.0.1:80/6"
                 for i in range(2000)]
        items = short[:1000] + ["k" * (1 << 20)] + short[1000:]
        total = sum(len(item) for item in items)
        tracemalloc.start()
        try:
            got = canonical_keys(items)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tolist() == [canonical_key(item) for item in items]
        # a rows x longest-row slab would take ~2 GiB here
        assert peak < 8 * total

    @pytest.mark.parametrize("engine", ENGINES)
    def test_numeric_string_windows_key_as_strings(self, engine):
        sketch = HypersistentSketch(
            HSConfig(memory_bytes=16 * 1024, seed=3), engine=engine)
        for _ in range(3):
            sketch.insert_window(["123", "456"])
        assert sketch.query("123") == 3
        assert sketch.query(123) == 0


class TestFirstInvalidKey:
    def test_accepts_keys(self):
        assert first_invalid_key([]) is None
        assert first_invalid_key([1, True, "a", b"b", -5, 1 << 90]) is None
        assert first_invalid_key([np.int64(1)]) is None

    def test_names_the_first_offender(self):
        assert first_invalid_key([1, 2, [1], None]) == 2
        assert first_invalid_key(["a", 2.0]) == 1
        assert first_invalid_key(["a", "b\udc80"]) == 1
        assert first_invalid_key([{"k": 1}]) == 0
