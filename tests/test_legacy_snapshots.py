"""Snapshots written by earlier versions keep decoding, and stay exact.

``tests/fixtures/legacy_snapshots/`` holds checkpoints written by the
version that still had a separate SIMD Burst Filter class
(``VectorizedBurstFilter``: full key matrix with an empty-cell sentinel,
``int32`` ``fill`` vector) next to the plain ``BurstFilter`` layout:

* ``simd_sketch.ckpt`` / ``scalar_sketch.ckpt`` — a SIMD-build and a plain
  ``HypersistentSketch`` saved mid-window, with keys still in the Burst
  Filter (2 KiB, ``delta1=2``, ``delta2=3``, so the Hot Part replaces);
* ``vectorized_burst.ckpt`` / ``burst.ckpt`` — standalone filters of 16
  buckets x 4 cells holding keys;
* ``expected.json`` — what that version computed after loading each file
  and continuing: the sketches ingest the ``tail`` windows, the filters
  insert the ``probe`` keys and drain.

Every comparison below is against those recorded results.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.common.errors import SnapshotError
from repro.core import HypersistentSketch
from repro.core.burst_filter import BurstFilter
from repro.persist import (
    decode_state,
    encode_state,
    load_state,
    restore_tagged,
    tagged_state,
)

FIXTURES = Path(__file__).parent / "fixtures" / "legacy_snapshots"


@pytest.fixture(scope="module")
def expected():
    return json.loads((FIXTURES / "expected.json").read_text())


def _continue_sketch(sketch, expected, feed):
    for window in expected["tail"]:
        keys = np.array(window, dtype=np.uint64)
        if feed == "window":
            sketch.insert_window(keys)
        else:
            for key in window:
                sketch.insert(key)
            sketch.end_window()
    return {
        "stats": sketch.stats(),
        "report": [list(pair) for pair in sorted(sketch.report(1).items())],
        "estimates": [sketch.query(k) for k in expected["query_keys"]],
    }


class TestLegacySketchSnapshots:
    @pytest.mark.parametrize("name, model", [
        ("simd_sketch", "simd"), ("scalar_sketch", "scalar"),
    ])
    @pytest.mark.parametrize("feed", ["window", "record"])
    def test_decodes_and_ingests_like_the_writer(self, expected, name,
                                                 model, feed):
        sketch = load_state(FIXTURES / f"{name}.ckpt", HypersistentSketch)
        assert sketch.burst.compare_model == model
        assert sketch.engine == "kernel"
        assert len(sketch.burst) > 0  # saved with an open window
        assert sketch.verify_state() == []
        got = _continue_sketch(sketch, expected, feed)
        assert got == expected[name]

    def test_simd_sketch_resaves_in_the_current_layout(self, expected):
        sketch = load_state(FIXTURES / "simd_sketch.ckpt")
        state = sketch.state_dict()
        assert state["burst_kind"] == "simd"
        assert "fill" not in state["burst"]
        again = restore_tagged(decode_state(encode_state(
            tagged_state(sketch))))
        assert encode_state(again.state_dict()) == encode_state(state)
        assert _continue_sketch(again, expected, "window") == \
            expected["simd_sketch"]


class TestLegacyBurstFilterSnapshots:
    @pytest.mark.parametrize("name, model", [
        ("vectorized_burst", "simd"), ("burst", "scalar"),
    ])
    def test_decodes_and_ingests_like_the_writer(self, expected, name,
                                                 model):
        burst = load_state(FIXTURES / f"{name}.ckpt")
        assert isinstance(burst, BurstFilter)
        assert burst.compare_model == model
        assert burst.verify_state() == []
        absorbed = [bool(burst.insert(k)) for k in expected["probe"]]
        fills = [int(f) for f in burst.bucket_fills()]
        drained = burst.drain_array().tolist()
        counters = [burst.hash_ops, burst.compare_ops, burst.absorbed,
                    burst.overflowed]
        assert absorbed == expected[name]["absorbed"]
        assert fills == expected[name]["fills"]
        assert drained == expected[name]["drained"]
        assert counters == expected[name]["counters"]

    @pytest.mark.parametrize("bad_fill", [9, -3])
    def test_out_of_range_legacy_fill_is_rejected(self, bad_fill):
        """A corrupt ``fill`` must fail the load, not leak the empty-cell
        sentinel downstream as a key at the next drain."""
        tagged = decode_state(
            (FIXTURES / "vectorized_burst.ckpt").read_bytes())
        assert tagged["class"] == "VectorizedBurstFilter"
        fill = np.array(tagged["state"]["fill"], copy=True)
        fill[0] = bad_fill
        tagged["state"]["fill"] = fill
        with pytest.raises(SnapshotError):
            restore_tagged(tagged)

    @pytest.mark.parametrize("bad_fill", [9, -3])
    def test_out_of_range_legacy_fill_rejected_in_a_sketch(self, bad_fill):
        tagged = decode_state((FIXTURES / "simd_sketch.ckpt").read_bytes())
        burst_state = tagged["state"]["burst"]
        fill = np.array(burst_state["fill"], copy=True)
        fill[0] = bad_fill
        burst_state["fill"] = fill
        with pytest.raises(SnapshotError):
            restore_tagged(tagged)

    def test_unknown_compare_model_is_rejected(self):
        state = BurstFilter(4, 4, seed=1).state_dict()
        state["compare_model"] = "avx512"
        with pytest.raises(ValueError, match="compare model"):
            BurstFilter.from_state(state)

    def test_burst_kind_must_match_the_filter_model(self):
        state = HypersistentSketch(memory_bytes=4096).state_dict()
        state["burst_kind"] = "simd"
        with pytest.raises(ValueError, match="disagrees"):
            HypersistentSketch.from_state(state)


class TestSimdModelRoundTrip:
    def test_simd_filter_round_trips_as_simd(self):
        burst = BurstFilter(8, 4, seed=3, compare_model="simd")
        for key in range(20):
            burst.insert(key)
        again = restore_tagged(decode_state(encode_state(
            tagged_state(burst))))
        assert again.compare_model == "simd"
        assert encode_state(again.state_dict()) == \
            encode_state(burst.state_dict())
        for key in range(40):
            assert again.insert(key) == burst.insert(key)
        assert again.compare_ops == burst.compare_ops
