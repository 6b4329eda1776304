"""hypolab: a desk-scale numerical laboratory for kinetic hypocoercivity.

Assembles the underdamped kinetic generator and the gap-shifted corrector on
a discretized phase space, checks the operator identities and bounds behind
the explicit decay estimate, evaluates the closed-form friction/rate pipeline,
and confirms the exponential decay both by PDE evolution and by stochastic
simulation.
"""

__version__ = "0.1.0"

from .corrector import (
    Corrector,
    DissipationReport,
    ModifiedFunctional,
    bochner_residual,
    build_corrector,
    dissipation_form_min_eig,
    operator_norm,
    verify_corrector_bounds,
)
from .discretize import (
    HermiteBasis,
    OperatorSet,
    StructureReport,
    WeightedGrid,
    assemble_operators,
    bochner_test_suite,
    build_grid,
    build_velocity_basis,
    check_structure,
    compose_generator,
    poincare_constant,
)
from .evolve import (
    DecayTrace,
    estimate_rate,
    initial_condition,
    integrate,
    lyapunov_derivative_check,
    verify_decay_bound,
)
from .model import (
    GibbsModel,
    Potential,
    cosine_bump,
    default_domain,
    double_well,
    eval_potential,
    gibbs_model,
    hessian_lower_bound,
    quadratic,
)
from .sampler import (
    EnsembleTrace,
    SdeConfig,
    estimate_observable_decay,
    run_ensemble,
    step_baoab,
)
from .tuning import (
    TuningResult,
    check_ratio_consistency,
    dissipation_matrix,
    optimize_friction,
    rate,
)

__all__ = [
    "__version__",
    "Corrector",
    "DissipationReport",
    "DecayTrace",
    "EnsembleTrace",
    "GibbsModel",
    "HermiteBasis",
    "ModifiedFunctional",
    "OperatorSet",
    "Potential",
    "SdeConfig",
    "StructureReport",
    "TuningResult",
    "WeightedGrid",
    "assemble_operators",
    "bochner_residual",
    "bochner_test_suite",
    "build_corrector",
    "build_grid",
    "build_velocity_basis",
    "check_ratio_consistency",
    "check_structure",
    "compose_generator",
    "cosine_bump",
    "default_domain",
    "dissipation_form_min_eig",
    "dissipation_matrix",
    "double_well",
    "estimate_observable_decay",
    "estimate_rate",
    "eval_potential",
    "gibbs_model",
    "hessian_lower_bound",
    "initial_condition",
    "integrate",
    "lyapunov_derivative_check",
    "operator_norm",
    "optimize_friction",
    "poincare_constant",
    "quadratic",
    "rate",
    "run_ensemble",
    "step_baoab",
    "verify_corrector_bounds",
    "verify_decay_bound",
]
