"""Shard payloads survive the trip through the process pool bit for bit.

The pool pickles the plan into each worker's initializer, each shard
into a task, and each shard result back to the parent.  Those round
trips must not perturb a single byte, or a pooled sweep would disagree
with an inline one about the work or its numbers.
"""

import pickle
from multiprocessing.reduction import ForkingPickler

import numpy as np

from repro.parallel.engine import Shard, ShardResult, SweepPlan


def _round_trip(obj):
    """Serialise as the pool's task and result queues do."""
    return pickle.loads(ForkingPickler.dumps(obj))


def _shard():
    rng = np.random.default_rng(5)
    return Shard(
        li=1,
        location=(4, 12),
        start=8,
        multiplicands=np.arange(8, 12, dtype=np.int64),
        stimulus=rng.integers(0, 1 << 8, size=4 * 41, dtype=np.int64),
    )


class TestDescriptorRoundTrips:
    def test_shard_round_trip_is_bit_exact(self):
        shard = _shard()
        back = _round_trip(shard)
        assert back.li == shard.li
        assert back.location == shard.location
        assert back.start == shard.start
        assert back.multiplicands.dtype == shard.multiplicands.dtype
        assert back.multiplicands.tobytes() == shard.multiplicands.tobytes()
        assert back.stimulus.dtype == shard.stimulus.dtype
        assert back.stimulus.tobytes() == shard.stimulus.tobytes()

    def test_plan_round_trip(self):
        plan = SweepPlan(
            w_data=8,
            w_coeff=8,
            seed=11,
            freqs_mhz=(280.0, 320.0),
            achieved_mhz=(279.999999, 1 / 3),
            n_samples=40,
        )
        assert _round_trip(plan) == plan

    def test_result_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(0)
        result = ShardResult(
            li=1,
            start=4,
            variance=rng.random((3, 5)),
            mean=rng.standard_normal((3, 5)) * 1e-7,
            error_rate=rng.random((3, 5)),
        )
        back = _round_trip(result)
        assert (back.li, back.start) == (result.li, result.start)
        assert back.variance.tobytes() == result.variance.tobytes()
        assert back.mean.tobytes() == result.mean.tobytes()
        assert back.error_rate.tobytes() == result.error_rate.tobytes()

    def test_nan_cells_survive_the_wire(self):
        grid = np.array([[np.nan, 1.0]])
        result = ShardResult(li=0, start=0, variance=grid, mean=grid, error_rate=grid)
        back = _round_trip(result)
        assert np.isnan(back.variance[0, 0]) and back.variance[0, 1] == 1.0
