"""Property tests: the batch paths are bit-for-bit the scalar path.

The batch-ingestion pipeline (``insert_batch`` / ``insert_window`` across
Burst Filter, Cold Filter, Hot Part, and the composed sketch, on the
default kernel engine) claims exact equivalence with the record-at-a-time
loop — identical state, identical ``query()`` and ``report()`` answers,
identical instrumentation counters.  Hypothesis hunts for windowed streams
that break the claim.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HSConfig, HypersistentSketch, make_hypersistent_simd
from repro.core.burst_filter import BurstFilter
from repro.core.cold_filter import ColdFilter
from repro.core.hot_part import HotPart
from repro.core.kernels import group_ranks, plan_burst_admission
from repro.obs import (
    MetricsRegistry,
    bind_sketch,
    parse_prometheus,
    sketch_metrics,
    to_prometheus,
)
from repro.obs.catalog import LEGACY_SKETCH_KEYS

# windowed streams: per window, a small list of item keys (dup-heavy so
# burst absorption, CU escalation, and hot promotion all get exercised)
windows_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=40), max_size=60),
    min_size=1,
    max_size=25,
)

batch_strategy = st.lists(
    st.integers(min_value=0, max_value=25), min_size=0, max_size=80
)


def scalar_feed(sketch, windows):
    for items in windows:
        for item in items:
            sketch.insert(item)
        sketch.end_window()
    return sketch


def batched_feed(sketch, windows):
    for items in windows:
        sketch.insert_window(np.array(items, dtype=np.uint64))
    return sketch


def all_keys(windows):
    return sorted({item for items in windows for item in items})


class TestSketchEquivalence:
    @given(windows=windows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_batch_fed_equals_scalar_fed(self, windows):
        # tiny memory so every structure saturates and every corner fires
        config = HSConfig.for_estimation(2 * 1024, len(windows), seed=9)
        scalar = scalar_feed(HypersistentSketch(config), windows)
        batched = batched_feed(HypersistentSketch(config), windows)
        assert scalar.stats() == batched.stats()
        for key in all_keys(windows):
            assert scalar.query(key) == batched.query(key)
        assert scalar.report(1) == batched.report(1)

    @given(windows=windows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_registry_counters_identical_across_paths(self, windows):
        # the canonical telemetry view, not just the legacy stats() dict,
        # must agree between record-at-a-time and batch ingestion
        config = HSConfig.for_estimation(2 * 1024, len(windows), seed=9)
        scalar = scalar_feed(HypersistentSketch(config), windows)
        batched = batched_feed(HypersistentSketch(config), windows)
        assert sketch_metrics(scalar) == sketch_metrics(batched)

    @given(windows=windows_strategy)
    @settings(max_examples=20, deadline=None)
    def test_prometheus_snapshot_matches_stats_on_both_paths(self, windows):
        config = HSConfig.for_estimation(2 * 1024, len(windows), seed=9)
        for feed in (scalar_feed, batched_feed):
            sketch = feed(HypersistentSketch(config), windows)
            registry = MetricsRegistry()
            bind_sketch(registry, sketch)
            parsed = parse_prometheus(to_prometheus(registry))
            stats = sketch.stats()
            for legacy_key, canonical in LEGACY_SKETCH_KEYS.items():
                if legacy_key in stats:
                    assert parsed[(canonical, ())] == stats[legacy_key]

    @given(windows=windows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_simd_build_batch_equals_scalar_fed(self, windows):
        config = HSConfig.for_estimation(2 * 1024, len(windows), seed=9)
        scalar = scalar_feed(HypersistentSketch(config), windows)
        batched = batched_feed(make_hypersistent_simd(config), windows)
        for key in all_keys(windows):
            assert scalar.query(key) == batched.query(key)
        assert scalar.report(1) == batched.report(1)

    @given(windows=windows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_insert_batch_open_window_equals_scalar(self, windows):
        # insert_batch keeps the window open; close it separately
        config = HSConfig.for_estimation(2 * 1024, len(windows), seed=3)
        scalar = scalar_feed(HypersistentSketch(config), windows)
        batched = HypersistentSketch(config)
        for items in windows:
            batched.insert_batch(items)
            batched.end_window()
        assert scalar.stats() == batched.stats()
        for key in all_keys(windows):
            assert scalar.query(key) == batched.query(key)


class TestBurstFilterEquivalence:
    @given(batches=st.lists(batch_strategy, min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_plain_insert_batch_matches_scalar(self, batches):
        scalar = BurstFilter(4, 3, seed=7)
        batched = BurstFilter(4, 3, seed=7)
        for batch in batches:
            expected = np.array(
                [scalar.insert(k) for k in batch], dtype=bool
            )
            got = batched.insert_batch(np.array(batch, dtype=np.uint64))
            assert np.array_equal(expected, got)
        assert scalar.hash_ops == batched.hash_ops
        assert scalar.compare_ops == batched.compare_ops
        assert scalar.absorbed == batched.absorbed
        assert scalar.overflowed == batched.overflowed
        assert list(scalar.drain()) == batched.drain_array().tolist()

    @given(batches=st.lists(batch_strategy, min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_vectorized_insert_batch_matches_scalar(self, batches):
        scalar = BurstFilter(4, 3, seed=7, compare_model="simd")
        batched = BurstFilter(4, 3, seed=7, compare_model="simd")
        for batch in batches:
            expected = np.array(
                [scalar.insert(k) for k in batch], dtype=bool
            )
            got = batched.insert_batch(np.array(batch, dtype=np.uint64))
            assert np.array_equal(expected, got)
        assert scalar.absorbed == batched.absorbed
        assert scalar.overflowed == batched.overflowed
        # the vectorized scan costs a fixed lane-block count per insert,
        # batched or not
        assert scalar.compare_ops == batched.compare_ops
        assert list(scalar.drain()) == batched.drain_array().tolist()

    @given(batch=batch_strategy)
    @settings(max_examples=60, deadline=None)
    def test_vectorized_matches_plain_decisions(self, batch):
        plain = BurstFilter(4, 3, seed=7)
        vector = BurstFilter(4, 3, seed=7, compare_model="simd")
        keys = np.array(batch, dtype=np.uint64)
        assert np.array_equal(
            plain.insert_batch(keys), vector.insert_batch(keys)
        )
        assert list(plain.drain()) == list(vector.drain())


class TestStageBatchEquivalence:
    @given(batches=st.lists(batch_strategy, min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_cold_filter_insert_batch_matches_scalar(self, batches):
        def build():
            return ColdFilter(l1_width=16, l2_width=8, delta1=3, delta2=6,
                              d1=2, d2=2, seed=11)

        scalar, batched = build(), build()
        for batch in batches:
            expected = np.array(
                [scalar.insert(k) for k in batch], dtype=bool
            )
            got = batched.insert_batch(np.array(batch, dtype=np.uint64))
            assert np.array_equal(expected, got)
            scalar.end_window()
            batched.end_window()
        for key in range(26):
            assert scalar.query(key) == batched.query(key)
        assert scalar.hash_ops == batched.hash_ops
        assert scalar.l1_hits == batched.l1_hits
        assert scalar.l2_hits == batched.l2_hits
        assert scalar.overflows == batched.overflows

    @given(batches=st.lists(batch_strategy, min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_hot_part_insert_batch_matches_scalar(self, batches):
        scalar = HotPart(2, 2, seed=13)
        batched = HotPart(2, 2, seed=13)
        for batch in batches:
            for key in batch:
                scalar.insert(key)
            batched.insert_batch(np.array(batch, dtype=np.uint64))
            scalar.end_window()
            batched.end_window()
        assert scalar.items() == batched.items()
        assert scalar.replacements == batched.replacements
        assert scalar.hash_ops == batched.hash_ops


class TestColumnarPrimitives:
    @given(groups=st.lists(st.integers(min_value=0, max_value=6),
                           max_size=50))
    @settings(max_examples=80, deadline=None)
    def test_group_ranks(self, groups):
        arr = np.array(groups, dtype=np.int64)
        ranks = group_ranks(arr)
        seen = {}
        for value, rank in zip(groups, ranks.tolist()):
            assert rank == seen.get(value, 0)
            seen[value] = rank + 1

    @given(batch=batch_strategy, capacity=st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_plan_reproduces_reference_admission(self, batch, capacity):
        keys = np.array(batch, dtype=np.uint64)
        plan = plan_burst_admission(
            keys, lambda u: (u % np.uint64(3)).astype(np.int64), capacity
        )
        buckets = {}
        compares = 0
        for i, key in enumerate(batch):
            bucket = buckets.setdefault(key % 3, [])
            hit = False
            for stored in bucket:
                compares += 1
                if stored == key:
                    hit = True
                    break
            if hit:
                assert plan.absorbed[i]
            elif len(bucket) < capacity:
                bucket.append(key)
                assert plan.absorbed[i]
            else:
                assert not plan.absorbed[i]
        assert plan.scan_compares == compares
        stored_keys = [k for b in sorted(buckets) for k in buckets[b]]
        assert sorted(plan.unique_keys[plan.stored].tolist()) == \
            sorted(stored_keys)
