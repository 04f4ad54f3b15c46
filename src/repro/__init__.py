"""repro — reproduction of "Over-Clocking of Linear Projection Designs
Through Device Specific Optimisations" (Duarte & Bouganis, IPDPSW 2014).

The library implements the paper's complete system on a simulated FPGA
substrate:

* :mod:`repro.fabric` — device model with intra-die process variation,
  routing delays, operating conditions, PLL and clock jitter;
* :mod:`repro.netlist` — LUT-level arithmetic generators (generic array
  multipliers, Baugh-Wooley, CCMs, MACs);
* :mod:`repro.timing` — static timing analysis and the over-clocking
  (transition-aware) timing simulator;
* :mod:`repro.synthesis` — placement, conservative tool reports, area
  reports;
* :mod:`repro.characterization` — the multiplier characterisation
  framework (paper Sec. III);
* :mod:`repro.models` — error model E(m, f), area model, coefficient
  prior, run-time model;
* :mod:`repro.core` — KLT, quantisation, Gibbs sampling, objective T,
  Pareto selection and Algorithm 1 (paper Secs. IV-V);
* :mod:`repro.circuits` — the projection datapath and the three
  evaluation domains (paper Sec. VI);
* :mod:`repro.framework` — :class:`~repro.framework.OptimizationFramework`,
  the end-to-end Fig. 2 flow;
* :mod:`repro.eval` — experiment drivers regenerating every figure and
  table of the paper's evaluation;
* :mod:`repro.obs` — opt-in trace spans and counters across the whole
  pipeline (off by default; never changes the numbers).

Quickstart
----------
>>> from repro import make_device, OptimizationFramework, TableISettings
>>> import numpy as np
>>> from repro.datasets import low_rank_gaussian
>>> device = make_device(serial=42)
>>> settings = TableISettings().scaled(0.02)   # scaled-down demo
>>> fw = OptimizationFramework(device, settings, seed=1)
>>> x = low_rank_gaussian(settings.p, 3, settings.n_train,
...                       np.random.default_rng(0))
>>> designs = fw.optimize(x, beta=4.0).designs  # doctest: +SKIP
"""

from . import obs
from .config import TableISettings, TimingConfig
from .errors import ReproError
from .fabric import CYCLONE_III_3C16, FPGADevice, OperatingConditions, make_device
from .framework import OptimizationFramework
from .circuits import Domain

__version__ = "1.0.0"

__all__ = [
    "TableISettings",
    "TimingConfig",
    "ReproError",
    "CYCLONE_III_3C16",
    "FPGADevice",
    "OperatingConditions",
    "make_device",
    "OptimizationFramework",
    "Domain",
    "obs",
    "__version__",
]
