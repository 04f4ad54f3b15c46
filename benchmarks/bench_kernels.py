"""Micro-benchmarks of the library's hot kernels.

Unlike the figure benches (one-shot experiment replays) these use
pytest-benchmark's statistical timing, so regressions in the vectorised
hot paths show up directly.
"""

import numpy as np

from repro.core.bayesian import GibbsConfig, sample_projection_vector
from repro.models.prior import CoefficientPrior
from repro.netlist.core import bits_from_ints
from repro.netlist.multipliers import unsigned_array_multiplier
from repro.synthesis import SynthesisFlow
from repro.timing.capture import capture_stream
from repro.timing.simulator import simulate_transitions
from tests.conftest import make_synthetic_error_model

N_STREAM = 4000


def _placed(ctx):
    return SynthesisFlow(ctx.device).run(
        unsigned_array_multiplier(8, 8), anchor=(0, 0), seed=0
    )


def _inputs():
    rng = np.random.default_rng(0)
    return {
        "a": bits_from_ints(rng.integers(0, 256, N_STREAM), 8),
        "b": bits_from_ints(rng.integers(0, 256, N_STREAM), 8),
    }


def test_functional_evaluation_throughput(ctx, benchmark):
    placed = _placed(ctx)
    out = benchmark(placed.netlist.evaluate, _inputs())
    assert out["p"].shape == (N_STREAM, 16)


def test_transition_simulation_throughput(ctx, benchmark):
    placed = _placed(ctx)
    res = benchmark(
        simulate_transitions,
        placed.netlist,
        _inputs(),
        placed.node_delay,
        placed.edge_delay,
    )
    assert res.settle.shape[1] == N_STREAM - 1


def test_capture_throughput(ctx, benchmark):
    placed = _placed(ctx)
    timing = simulate_transitions(
        placed.netlist, _inputs(), placed.node_delay, placed.edge_delay
    )
    cap = benchmark(capture_stream, timing, "p", 320.0, placed.setup_ns)
    assert cap.n_cycles == N_STREAM - 1


def test_gibbs_sampling_throughput(ctx, benchmark):
    rng = np.random.default_rng(0)
    x = np.linalg.qr(rng.normal(size=(6, 6)))[0][:, :1] @ rng.normal(size=(1, 100))
    x = 0.5 * x / np.abs(x).max()
    prior = CoefficientPrior.from_error_model(
        make_synthetic_error_model(8), 310.0, 4.0
    )
    oc = np.zeros_like(prior.values)
    cfg = GibbsConfig(burn_in=50, n_samples=150, thin=10)

    def run():
        return sample_projection_vector(x, prior, oc, np.random.default_rng(1), cfg)

    s = benchmark(run)
    assert s.values.shape == (6,)
