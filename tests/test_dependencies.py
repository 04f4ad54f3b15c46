"""The library runs on NumPy and the standard library: SciPy stays out.

Importing SciPy used to be most of every process's cold start, so these
tests keep it from creeping back into the import closure or the two
calls that once needed it (the die's smoothed variation field and the
area model's Student-t quantile).
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_flow_runs_with_scipy_unimportable():
    proc = _run(
        """
        import sys
        sys.modules["scipy"] = None  # any `import scipy...` now raises ImportError

        import repro, repro.cli, repro.cli_flow, repro.eval.figures, repro.eval.tables
        from repro.fabric import make_device
        from repro.models.area_model import AreaSample, fit_area_model

        device = make_device(7)
        samples = [
            AreaSample(wl, 40 * wl + 3 * wl * wl + run, run, (0, 0))
            for wl in (3, 5, 7, 9) for run in range(3)
        ]
        print(fit_area_model(samples)._t95, device.variation.factors.shape)
        """
    )
    assert proc.returncode == 0, proc.stderr
    t95, _ = proc.stdout.split(maxsplit=1)
    assert 2.2 < float(t95) < 2.3  # dof 9


def test_import_loads_no_scipy_module():
    proc = _run(
        """
        import sys
        import repro, repro.cli, repro.cli_flow, repro.eval.figures, repro.eval.tables
        print(sorted(m for m in sys.modules if m.startswith("scipy")))
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
