"""Chaos suite: injected faults vs the hardened sweep engine.

The acceptance property throughout: a recovered sweep is *bit-identical*
to the fault-free serial sweep.  ``run_shard`` is a pure function of
``(device, plan, shard)`` — stimulus is pre-drawn and every capture
derives its generator from an explicit seed path — so retries can change
wall-clock and attempt counts but never a single number in E(m, f).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.characterization import characterize_multiplier
from repro.config import ResilienceSettings
from repro.errors import SweepFailedError
from repro.faults import FaultPlan, FaultSpec

#: Wait-free retries: the chaos suite exercises the retry *logic*, not
#: the backoff wall-clock.
FAST = ResilienceSettings(backoff_base_s=0.0, backoff_jitter=0.0)
FAST_DEGRADED = ResilienceSettings(
    backoff_base_s=0.0, backoff_jitter=0.0, allow_degraded=True
)


def _grids_equal(a, b) -> bool:
    return (
        np.array_equal(a.variance, b.variance)
        and np.array_equal(a.mean, b.mean)
        and np.array_equal(a.error_rate, b.error_rate)
    )


@pytest.fixture(scope="module")
def baseline(device, small_char_config):
    """The fault-free serial sweep every chaos run must reproduce."""
    return characterize_multiplier(device, 8, 8, small_char_config(), seed=3, jobs=1)


class TestTransientFaultRecovery:
    def test_single_crash_recovers_bit_identical(self, device, small_char_config, baseline):
        plan = FaultPlan(specs=(FaultSpec(kind="crash", li=0, start=0, times=1),), seed=1)
        chaos = characterize_multiplier(
            device, 8, 8, small_char_config(), seed=3, jobs=1,
            resilience=FAST, faults=plan,
        )
        assert _grids_equal(chaos, baseline)
        assert chaos.outcome.status == "complete"
        assert not chaos.degraded
        assert (0, 0) in chaos.outcome.retried
        report = chaos.outcome.reports[0]
        assert report.attempts[0].outcome == "error"
        assert report.attempts[1].outcome == "ok"
        assert report.disposition == "recovered"

    def test_corrupt_result_detected_and_retried(self, device, small_char_config, baseline):
        plan = FaultPlan(specs=(FaultSpec(kind="corrupt", li=1, start=4, times=1),), seed=2)
        chaos = characterize_multiplier(
            device, 8, 8, small_char_config(), seed=3, jobs=1,
            resilience=FAST, faults=plan,
        )
        assert _grids_equal(chaos, baseline)
        assert chaos.outcome.status == "complete"
        [report] = [r for r in chaos.outcome.reports if (r.li, r.start) == (1, 4)]
        assert report.attempts[0].outcome == "invalid"
        assert report.disposition == "recovered"

    def test_multi_attempt_fault_exhausts_then_recovers(self, device, small_char_config, baseline):
        plan = FaultPlan(specs=(FaultSpec(kind="crash", li=0, start=8, times=2),), seed=5)
        chaos = characterize_multiplier(
            device, 8, 8, small_char_config(), seed=3, jobs=1,
            resilience=FAST, faults=plan,
        )
        assert _grids_equal(chaos, baseline)
        [report] = [r for r in chaos.outcome.reports if (r.li, r.start) == (0, 8)]
        assert report.n_attempts == 3  # two injected failures + the recovery
        assert report.disposition == "recovered"


class TestQuarantine:
    def test_persistent_fault_quarantines_exactly(self, device, small_char_config, baseline):
        plan = FaultPlan(specs=(FaultSpec(kind="crash", li=0, start=4, times=-1),), seed=6)
        chaos = characterize_multiplier(
            device, 8, 8, small_char_config(), seed=3, jobs=1,
            resilience=FAST_DEGRADED, faults=plan,
        )
        assert chaos.outcome.status == "degraded"
        assert chaos.degraded
        assert chaos.outcome.quarantined == ((0, 4),)
        # Quarantined cells are NaN — never zeros, which would read as a
        # legitimate "no errors observed" statistic.
        assert np.all(np.isnan(chaos.variance[0, 4:8, :]))
        assert np.all(np.isnan(chaos.mean[0, 4:8, :]))
        assert np.all(np.isnan(chaos.error_rate[0, 4:8, :]))
        # Every other cell is bit-identical to the fault-free sweep.
        mask = np.ones_like(baseline.variance, dtype=bool)
        mask[0, 4:8, :] = False
        assert np.array_equal(chaos.variance[mask], baseline.variance[mask])
        assert np.array_equal(chaos.mean[mask], baseline.mean[mask])

    def test_persistent_fault_raises_without_allow_degraded(self, device, small_char_config):
        plan = FaultPlan(specs=(FaultSpec(kind="crash", li=0, start=4, times=-1),), seed=6)
        with pytest.raises(SweepFailedError, match="quarantined") as exc:
            characterize_multiplier(
                device, 8, 8, small_char_config(), seed=3, jobs=1,
                resilience=FAST, faults=plan,
            )
        assert exc.value.outcome.quarantined == ((0, 4),)

    def test_everything_failing_is_failed_even_when_degraded_allowed(
        self, device, small_char_config
    ):
        plan = FaultPlan(specs=(FaultSpec(kind="crash", times=-1),), seed=7)
        with pytest.raises(SweepFailedError, match="failed"):
            characterize_multiplier(
                device, 8, 8, small_char_config(), seed=3, jobs=1,
                resilience=FAST_DEGRADED, faults=plan,
            )

    def test_quarantine_attempt_budget_is_respected(self, device, small_char_config):
        plan = FaultPlan(specs=(FaultSpec(kind="crash", li=1, start=0, times=-1),), seed=8)
        policy = ResilienceSettings(
            max_retries=3, backoff_base_s=0.0, backoff_jitter=0.0, allow_degraded=True
        )
        chaos = characterize_multiplier(
            device, 8, 8, small_char_config(), seed=3, jobs=1,
            resilience=policy, faults=plan,
        )
        [report] = [r for r in chaos.outcome.reports if (r.li, r.start) == (1, 0)]
        assert report.n_attempts == 1 + policy.max_retries
        assert report.disposition == "quarantined"


class TestChaosProperty:
    @settings(max_examples=5, deadline=None)
    @given(
        kind=st.sampled_from(["crash", "corrupt"]),
        li=st.integers(0, 1),
        start=st.sampled_from([0, 4, 8]),
        times=st.integers(1, 2),
        chaos_seed=st.integers(0, 2**16),
    )
    def test_any_transient_plan_recovers_bit_identical(
        self, device, small_char_config, baseline, kind, li, start, times, chaos_seed
    ):
        """Property: every transient fault plan within the retry budget
        yields a complete sweep bit-identical to the fault-free one, and
        quarantines nothing."""
        plan = FaultPlan(
            specs=(FaultSpec(kind=kind, li=li, start=start, times=times),),
            seed=chaos_seed,
        )
        chaos = characterize_multiplier(
            device, 8, 8, small_char_config(), seed=3, jobs=1,
            resilience=FAST, faults=plan,
        )
        assert _grids_equal(chaos, baseline)
        assert chaos.outcome.status == "complete"
        assert chaos.outcome.quarantined == ()
        assert set(chaos.outcome.retried) == {(li, start)}

    @settings(max_examples=3, deadline=None)
    @given(
        li=st.integers(0, 1),
        start=st.sampled_from([0, 4, 8]),
        chaos_seed=st.integers(0, 2**16),
    )
    def test_any_persistent_plan_quarantines_exactly_its_target(
        self, device, small_char_config, li, start, chaos_seed
    ):
        plan = FaultPlan(
            specs=(FaultSpec(kind="crash", li=li, start=start, times=-1),),
            seed=chaos_seed,
        )
        chaos = characterize_multiplier(
            device, 8, 8, small_char_config(), seed=3, jobs=1,
            resilience=FAST_DEGRADED, faults=plan,
        )
        assert chaos.outcome.status == "degraded"
        assert chaos.outcome.quarantined == ((li, start),)


class TestPoolChaos:
    @pytest.mark.slow
    def test_pool_crash_recovers_bit_identical(self, device, small_char_config, baseline):
        plan = FaultPlan(specs=(FaultSpec(kind="crash", li=0, start=0, times=1),), seed=9)
        chaos = characterize_multiplier(
            device, 8, 8, small_char_config(), seed=3, jobs=2,
            resilience=FAST, faults=plan,
        )
        assert _grids_equal(chaos, baseline)
        assert chaos.outcome.status == "complete"
        assert (0, 0) in chaos.outcome.retried

    @pytest.mark.slow
    def test_hung_worker_times_out_and_falls_back_inline(
        self, device, small_char_config, baseline
    ):
        plan = FaultPlan(
            specs=(FaultSpec(kind="hang", li=0, start=0, times=1, hang_s=2.0),),
            seed=10,
        )
        policy = ResilienceSettings(
            shard_timeout_s=0.25, backoff_base_s=0.0, backoff_jitter=0.0
        )
        chaos = characterize_multiplier(
            device, 8, 8, small_char_config(), seed=3, jobs=2,
            resilience=policy, faults=plan,
        )
        assert _grids_equal(chaos, baseline)
        assert chaos.outcome.status == "complete"
        assert chaos.outcome.fallback_inline
        [report] = [r for r in chaos.outcome.reports if (r.li, r.start) == (0, 0)]
        assert any(a.outcome == "timeout" for a in report.attempts)


class TestOutcomePlumbing:
    def test_outcome_as_dict_is_json_ready(self, device, small_char_config):
        import json

        plan = FaultPlan(specs=(FaultSpec(kind="crash", li=0, start=0, times=1),), seed=1)
        chaos = characterize_multiplier(
            device, 8, 8, small_char_config(), seed=3, jobs=1,
            resilience=FAST, faults=plan,
        )
        data = json.loads(json.dumps(chaos.outcome.as_dict()))
        assert data["status"] == "complete"
        assert data["n_shards"] == len(chaos.outcome.reports)
        assert data["total_attempts"] > data["n_shards"]

    def test_saved_archive_round_trips_nan_cells(self, device, small_char_config, tmp_path):
        from repro.characterization import CharacterizationResult

        plan = FaultPlan(specs=(FaultSpec(kind="crash", li=0, start=4, times=-1),), seed=6)
        chaos = characterize_multiplier(
            device, 8, 8, small_char_config(), seed=3, jobs=1,
            resilience=FAST_DEGRADED, faults=plan,
        )
        path = tmp_path / "chaos.npz"
        chaos.save(path)
        loaded = CharacterizationResult.load(path)
        # The outcome is execution provenance, not data — it does not
        # survive the .npz round-trip, but the NaN cells do, and they are
        # enough to flag the archive as degraded.
        assert loaded.outcome is None
        assert loaded.degraded
        assert np.all(np.isnan(loaded.variance[0, 4:8, :]))
