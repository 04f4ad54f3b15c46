"""Execution-plan cache: memoisation, counters, fingerprints."""

import pytest

from repro.kernels import (
    clear_plan_cache,
    netlist_fingerprint,
    plan_cache_size,
    plan_for,
)
from repro.netlist.generators import generate
from repro.obs import runtime as obs


@pytest.fixture()
def mult5():
    return generate("unsigned_multiplier", 5, 4).compile()


class TestPlanCache:
    def test_hit_miss_counters(self, mult5):
        clear_plan_cache()
        with obs.observability(trace=False, metrics=True) as observer:
            p1 = plan_for(mult5)
            p2 = plan_for(mult5)
            counters = observer.metrics.snapshot().counters
        assert p1 is p2
        assert counters["kernels.plan.calls"] == 2
        assert counters["kernels.plan.hits"] == 1
        assert plan_cache_size() >= 1

    def test_structural_identity_shares_plans(self):
        clear_plan_cache()
        a = generate("unsigned_multiplier", 4, 4).compile()
        b = generate("unsigned_multiplier", 4, 4).compile()
        assert a is not b
        assert netlist_fingerprint(a) == netlist_fingerprint(b)
        assert plan_for(a) is plan_for(b)
        assert plan_cache_size() == 1

    def test_fingerprint_distinguishes_geometry(self):
        a = generate("unsigned_multiplier", 4, 4).compile()
        c = generate("unsigned_multiplier", 4, 5).compile()
        assert netlist_fingerprint(a) != netlist_fingerprint(c)

    def test_fingerprint_is_stable_string(self, mult5):
        f1 = netlist_fingerprint(mult5)
        f2 = netlist_fingerprint(mult5)
        assert f1 == f2
        assert isinstance(f1, str) and len(f1) == 64  # sha256 hex

    def test_plan_shape(self, mult5):
        plan = plan_for(mult5)
        assert plan.n_nodes == mult5.n_nodes
        assert plan.n_groups >= 1
        assert len(plan.levels) == len(mult5.level_groups)
        assert len(mult5.timing_levels) == len(mult5.level_groups)
