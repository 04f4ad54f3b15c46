"""Tiny workspaces for the stage-job suite.

Each test drives :mod:`repro.stages` the way a long-running host would:
whole stages as jobs, several at once, on one shared cache, cancelled
or faulted part way.  The stages place through the process-wide default
cache, so jobs run in one process share it.
"""

from __future__ import annotations

from repro.config import TableISettings
from repro.fabric.device import make_device
from repro.workspace import Workspace

#: One-word-length settings: a full characterise job in well under a
#: second, while still running the real sweep engine end to end.
TINY = TableISettings(
    n_characterization=40,
    n_train=20,
    n_test=20,
    burn_in=5,
    n_samples=10,
    q=2,
    min_coeff_wordlength=3,
    max_coeff_wordlength=3,
    input_wordlength=5,
    clock_frequency_mhz=300.0,
)

#: Three word-lengths: a job with artefact boundaries to cancel at.
THREE_WORDLENGTHS = TableISettings(
    n_characterization=40,
    n_train=20,
    n_test=20,
    burn_in=5,
    n_samples=10,
    q=2,
    min_coeff_wordlength=3,
    max_coeff_wordlength=5,
    input_wordlength=5,
    clock_frequency_mhz=300.0,
)

SERIAL = 1234
SEED = 7


def make_workspace(root, settings: TableISettings = TINY) -> Workspace:
    """Initialise a workspace with the suite's canonical tiny identity."""
    ws = Workspace(root)
    ws.initialize(make_device(SERIAL), settings, seed=SEED)
    return ws
