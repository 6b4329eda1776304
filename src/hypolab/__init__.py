"""hypolab: a desk-scale numerical laboratory for kinetic hypocoercivity.

Assembles the underdamped kinetic generator and the gap-shifted corrector on
a discretized phase space, checks the operator identities and bounds behind
the explicit decay estimate, evaluates the closed-form friction/rate pipeline,
and confirms the exponential decay both by PDE evolution and by stochastic
simulation.

The modules are the API, each imported by its path (``from hypolab.sampler
import run_ensemble``); ``import hypolab`` alone loads neither numpy nor scipy.
"""

__version__ = "0.1.0"

import os

# Every dense product and eigensolve here is on one n_x x n_x position block;
# at the grids run (n_x <= 512) a second BLAS thread costs more than it saves.
# Set before the first numpy import; a value already in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var
