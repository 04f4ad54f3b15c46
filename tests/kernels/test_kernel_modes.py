"""End-to-end byte-equality of the library's kernel and the oracle.

A full characterisation sweep (placement, timing, jittered capture,
statistics) runs twice: as the library ships it, and with the
interpreted oracle of ``tests/kernels/oracle.py`` substituted for
``CompiledNetlist.evaluate`` and for ``simulate_transitions`` wherever a
``repro`` module binds it.  The grids must be equal bit for bit, inline
and through the process pool, whose fork-started workers inherit the
substitution.  A spy logs the pid of every oracle simulation, so the
tests also fail if the oracle did not run in the process that was meant
to run the sweep.
"""

import os
import sys

import numpy as np
import pytest

from repro.characterization import CharacterizationConfig, characterize_multiplier
from repro.netlist.core import CompiledNetlist
from repro.timing import simulator
from tests.kernels import oracle


def _sweep(device, jobs: int):
    cfg = CharacterizationConfig(
        freqs_mhz=(300.0, 360.0, 420.0),
        n_samples=60,
        multiplicands=tuple(range(8)),
        n_locations=2,
    )
    return characterize_multiplier(device, 6, 3, cfg, seed=5, jobs=jobs)


def _oracle_sweep(device, jobs: int, log):
    """The sweep with every netlist evaluation routed through the oracle.

    Returns the result and the pids that ran the oracle simulator, as
    logged by a spy around it.
    """

    def spy(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return oracle.simulate_transitions(*args, **kwargs)

    library = simulator.simulate_transitions
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CompiledNetlist, "evaluate", oracle.evaluate)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "repro":
                continue
            if getattr(module, "simulate_transitions", None) is library:
                patch.setattr(module, "simulate_transitions", spy)
        result = _sweep(device, jobs)
    pids = log.read_text().split() if log.exists() else []
    return result, {int(pid) for pid in pids}


def _assert_grids_equal(got, ref):
    for grid in ("variance", "mean", "error_rate"):
        np.testing.assert_array_equal(
            getattr(got, grid).view(np.uint64), getattr(ref, grid).view(np.uint64)
        )
    np.testing.assert_array_equal(got.freqs_mhz, ref.freqs_mhz)


class TestEndToEndByteEquality:
    def test_characterization_grids_equal_inline(self, device, tmp_path):
        got = _sweep(device, jobs=1)
        ref, pids = _oracle_sweep(device, 1, tmp_path / "calls.log")
        assert pids == {os.getpid()}
        _assert_grids_equal(got, ref)

    @pytest.mark.slow
    def test_characterization_grids_equal_pooled(self, device, tmp_path):
        got = _sweep(device, jobs=2)
        ref, pids = _oracle_sweep(device, 2, tmp_path / "calls.log")
        assert pids - {os.getpid()}, "the oracle never ran in a pool worker"
        _assert_grids_equal(got, ref)
