"""Tests for capture_stream_batch — the vectorised frequency sweep.

The batch capture must be a pure reorganisation of the per-frequency
path: for every frequency, the captured words and late masks equal a
``capture_stream`` call with the same rng seed, bit for bit.
"""

import numpy as np
import pytest

from repro.errors import TimingError
from repro.fabric.jitter import JitterModel
from repro.netlist.core import bits_from_ints
from repro.netlist.multipliers import unsigned_array_multiplier
from repro.timing.capture import capture_stream, capture_stream_batch
from repro.timing.simulator import simulate_transitions

FREQS = (220.0, 280.0, 340.0, 420.0)


def _multiplier_timing(n_stream=300, seed=0):
    c = unsigned_array_multiplier(8, 8).compile()
    nd = np.where(c.lut_mask, 0.15, 0.0)
    ed = np.where(c.lut_mask[:, None], 0.05, 0.0) * np.ones((1, 4))
    rng = np.random.default_rng(seed)
    ins = {
        "a": bits_from_ints(rng.integers(0, 256, n_stream), 8),
        "b": bits_from_ints(rng.integers(0, 256, n_stream), 8),
    }
    return simulate_transitions(c, ins, nd, ed)


class TestBatchEquivalence:
    def test_bitwise_equal_to_serial_captures(self):
        t = _multiplier_timing()
        batch = capture_stream_batch(t, "p", FREQS, setup_ns=0.2)
        for fi, f in enumerate(FREQS):
            single = capture_stream(t, "p", f, setup_ns=0.2)
            assert np.array_equal(batch.captured[fi], single.captured_ints())
            assert np.array_equal(batch.ideal, single.ideal_ints())
            assert batch.late_counts[fi] == int(single.late_mask.sum())

    def test_bitwise_equal_with_jitter(self):
        t = _multiplier_timing(seed=1)
        jitter = JitterModel(sigma_ns=0.05, bound_ns=0.15)
        rngs = [np.random.default_rng(100 + i) for i in range(len(FREQS))]
        batch = capture_stream_batch(t, "p", FREQS, jitter=jitter, rngs=rngs)
        for fi, f in enumerate(FREQS):
            single = capture_stream(
                t, "p", f, jitter=jitter, rng=np.random.default_rng(100 + fi)
            )
            assert np.array_equal(batch.captured[fi], single.captured_ints())

    def test_errors_shape_and_content(self):
        t = _multiplier_timing()
        batch = capture_stream_batch(t, "p", FREQS)
        errors = batch.errors()
        assert errors.shape == (len(FREQS), t.n_transitions)
        for fi, f in enumerate(FREQS):
            single = capture_stream(t, "p", f)
            expected = single.captured_ints() - single.ideal_ints()
            assert np.array_equal(errors[fi], expected)

    def test_monotone_errors_in_frequency(self):
        """More capture failures as the clock rises (paper Sec. III-C)."""
        t = _multiplier_timing()
        batch = capture_stream_batch(t, "p", FREQS)
        assert list(batch.late_counts) == sorted(batch.late_counts)


class TestBatchEdgeCases:
    """Capture compares bit by bit only the (frequency, cycle) pairs whose
    latest output bit misses the window; these pin its corners."""

    @staticmethod
    def _assert_matches_serial(t, freqs, setup_ns=0.0, jitter=None, seeds=None):
        rngs = None if seeds is None else [np.random.default_rng(s) for s in seeds]
        batch = capture_stream_batch(
            t, "p", freqs, setup_ns=setup_ns, jitter=jitter, rngs=rngs
        )
        for fi, f in enumerate(freqs):
            rng = None if seeds is None else np.random.default_rng(seeds[fi])
            single = capture_stream(
                t, "p", f, setup_ns=setup_ns, jitter=jitter, rng=rng
            )
            assert np.array_equal(batch.captured[fi], single.captured_ints())
            assert np.array_equal(batch.ideal, single.ideal_ints())
            assert batch.late_counts[fi] == int(single.late_mask.sum())
        assert batch.captured.dtype == batch.ideal.dtype == np.int64
        assert batch.late_counts.dtype == np.int64
        return batch

    def test_slow_clock_has_no_candidate_cycle(self):
        t = _multiplier_timing()
        batch = self._assert_matches_serial(t, (5.0, 10.0), setup_ns=0.2)
        assert not batch.late_counts.any()
        assert np.array_equal(batch.captured, np.tile(batch.ideal, (2, 1)))

    @pytest.mark.parametrize("setup_ns", [2.5, 3.0])
    def test_window_at_or_below_zero(self, setup_ns):
        """400 MHz is a 2.5 ns period: the window is 0 or -0.5 ns."""
        t = _multiplier_timing()
        batch = self._assert_matches_serial(t, (400.0, 220.0), setup_ns=setup_ns)
        settle = t.output_settle("p")
        if setup_ns > 2.5:  # bits that settle at 0 are late too
            assert batch.late_counts[0] == settle.size
        else:
            assert batch.late_counts[0] == int((settle > 0).sum())

    def test_jitter_with_unsorted_repeated_frequencies(self):
        t = _multiplier_timing(seed=2)
        jitter = JitterModel(sigma_ns=0.05, bound_ns=0.15)
        freqs = (340.0, 220.0, 420.0, 220.0, 280.0)
        batch = self._assert_matches_serial(
            t, freqs, setup_ns=0.2, jitter=jitter, seeds=[7, 8, 9, 10, 11]
        )
        # Bits are late, and more of them at 420 than at 340 MHz.
        assert batch.late_counts[2] > batch.late_counts[0] > 0


class TestBatchValidation:
    def test_jitter_requires_rngs(self):
        t = _multiplier_timing()
        with pytest.raises(TimingError):
            capture_stream_batch(
                t, "p", FREQS, jitter=JitterModel(sigma_ns=0.1, bound_ns=0.3)
            )

    def test_rng_count_must_match(self):
        t = _multiplier_timing()
        jitter = JitterModel(sigma_ns=0.1, bound_ns=0.3)
        with pytest.raises(TimingError):
            capture_stream_batch(
                t, "p", FREQS, jitter=jitter, rngs=[np.random.default_rng(0)]
            )

    def test_empty_frequency_list_rejected(self):
        t = _multiplier_timing()
        with pytest.raises(TimingError):
            capture_stream_batch(t, "p", ())

    def test_unknown_bus_rejected(self):
        t = _multiplier_timing()
        with pytest.raises(TimingError):
            capture_stream_batch(t, "nope", FREQS)
