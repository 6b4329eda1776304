"""Phase-space discretization: weighted grid, Hermite velocity basis, operators.

Coordinate convention.  States are stored in *orthonormalized* coordinates:
a function f(x, v) with Hermite coefficients F[i, k] at grid node i becomes the
vector (sqrt(w_i) * F[i, k]).ravel() (position index major), so the weighted
L^2(mu) inner product is the plain dot product and weighted adjoints are plain
transposes.  The constant function 1 is the unit vector sqrt(w) (x) e_0.

Operator factorization over kron(position, velocity):

    Grad    = forward-difference gradient on the position factor
              (stops at the last node; kills the constant exactly)
    L_o     = -Grad^T Grad                (self-adjoint, <= 0, simple kernel)
    L_s     = -number operator            (diagonal, entry -k on Hermite mode k)
    L_a     = kron(Grad, raise) - kron(Grad^T, lower)

The ladder form of L_a discretizes v d_x - U'(x) d_v through
v = lower + raise, d_v = lower, d_x ~ Grad, d_x^* ~ Grad^T.  It is
antisymmetric by structure, annihilates constants exactly (mean conservation
to machine precision), and closes the operator algebra used by the dissipation
estimates: (L_a Pi_v)^T (L_a Pi_v) = -L_o Pi_v holds exactly, so the corrector
bounds are tested against the estimate logic rather than stencil mismatch.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import (
    ConfigurationError,
    DegenerateGapError,
    DomainTooSmallError,
    PreconditionError,
    StructuralAssemblyError,
    WeightUnderflowError,
)
from .model import GibbsModel, eval_potential

CONFINEMENT_MARGIN = 10.0
EXACT_TOL = 1e-12


@dataclass
class WeightedGrid:
    """Uniform nodes on [-L, L] with normalized Gibbs weights."""

    model: GibbsModel
    half_width: float
    n_x: int
    nodes: np.ndarray
    spacing: float
    weights: np.ndarray
    sqrt_weights: np.ndarray


def build_grid(model: GibbsModel, half_width: float, n_x: int) -> WeightedGrid:
    """Build the weighted position grid; checks confinement and weight floor."""
    if n_x < 16:
        raise ConfigurationError(f"grid.n_x = {n_x}: need n_x >= 16")
    if half_width <= 0:
        raise ConfigurationError("grid half_width must be positive")
    nodes = np.linspace(-half_width, half_width, n_x)
    U = eval_potential(model.potential, nodes)[0]
    u_min = U.min()
    if min(U[0], U[-1]) - u_min < CONFINEMENT_MARGIN:
        raise DomainTooSmallError(
            f"U(+-{half_width}) - min U = {min(U[0], U[-1]) - u_min:.3f} < "
            f"{CONFINEMENT_MARGIN}; enlarge the domain"
        )
    w = np.exp(-(U - u_min))
    total = w.sum()
    if total == 0.0:
        raise WeightUnderflowError("all Gibbs weights underflowed to zero")
    w = w / total
    if np.any(w == 0.0):
        raise WeightUnderflowError(
            "Gibbs weights underflow to zero near the boundary; "
            "reduce grid half_width"
        )
    return WeightedGrid(
        model=model,
        half_width=float(half_width),
        n_x=n_x,
        nodes=nodes,
        spacing=nodes[1] - nodes[0],
        weights=w,
        sqrt_weights=np.sqrt(w),
    )


@dataclass
class HermiteBasis:
    """Truncated Hermite ladder data in velocity.

    lowering maps mode k to sqrt(k) * mode (k-1)  (the derivative d/dv);
    raising is its transpose; eigenvalues k of the number operator
    raising @ lowering.
    """

    n_v: int
    eigenvalues: np.ndarray
    lowering: np.ndarray
    raising: np.ndarray


def build_velocity_basis(n_v: int) -> HermiteBasis:
    if n_v < 4:
        raise ConfigurationError(f"n_v = {n_v}: need at least 4 Hermite modes")
    k = np.arange(n_v)
    lowering = np.diag(np.sqrt(k[1:].astype(float)), 1)
    return HermiteBasis(
        n_v=n_v,
        eigenvalues=k.astype(float),
        lowering=lowering,
        raising=lowering.T.copy(),
    )


@dataclass
class OperatorSet:
    """All discretized operators on the tensor space, plus the discrete gap.

    Position-factor matrices are dense (n_x small); full-space matrices are
    sparse CSR.  lo_x is -Grad_x^T Grad_x (negative semidefinite, matching the
    sign of the overdamped generator).  m_h is filled by poincare_constant.
    """

    grid: WeightedGrid
    basis: HermiteBasis
    n: int
    grad_x: np.ndarray
    lo_x: np.ndarray
    la: sp.csr_matrix
    ls: sp.csr_matrix
    lo: sp.csr_matrix
    pi_v: sp.csr_matrix
    const_vec: np.ndarray
    m_h: float | None = field(default=None)

    @property
    def n_x(self) -> int:
        return self.grid.n_x

    @property
    def n_v(self) -> int:
        return self.basis.n_v

    def mean(self, f: np.ndarray) -> float:
        """Weighted mean <1, f>_mu in orthonormalized coordinates."""
        return float(self.const_vec @ f)

    def project_mean_zero(self, f: np.ndarray) -> np.ndarray:
        """Apply P_0, removing the mu-mean component."""
        return f - self.const_vec * (self.const_vec @ f)

    def lift_position(self, values: np.ndarray) -> np.ndarray:
        """Orthonormalized phase-space state of a pure-position function."""
        coeffs = self.grid.sqrt_weights * np.asarray(values, dtype=float)
        state = np.zeros((self.n_x, self.n_v))
        state[:, 0] = coeffs
        return state.ravel()


def assemble_operators(grid: WeightedGrid, basis: HermiteBasis) -> OperatorSet:
    n_x, n_v = grid.n_x, basis.n_v
    h, sq = grid.spacing, grid.sqrt_weights

    grad_x = np.zeros((n_x, n_x))
    idx = np.arange(n_x - 1)
    grad_x[idx, idx] = -1.0 / h
    grad_x[idx, idx + 1] = sq[:-1] / sq[1:] / h

    lo_x = -(grad_x.T @ grad_x)
    lo_x = (lo_x + lo_x.T) / 2  # exact symmetry regardless of BLAS order

    gx = sp.csr_matrix(grad_x)
    low = sp.csr_matrix(basis.lowering)
    high = sp.csr_matrix(basis.raising)
    ix = sp.identity(n_x, format="csr")
    iv = sp.identity(n_v, format="csr")

    la = (sp.kron(gx, high) - sp.kron(gx.T, low)).tocsr()
    ls = sp.kron(ix, sp.diags(-basis.eigenvalues), format="csr")
    lo = sp.kron(sp.csr_matrix(lo_x), iv, format="csr")
    e00 = sp.diags(np.r_[1.0, np.zeros(n_v - 1)])
    pi_v = sp.kron(ix, e00, format="csr")

    const = np.zeros((n_x, n_v))
    const[:, 0] = sq

    return OperatorSet(
        grid=grid,
        basis=basis,
        n=n_x * n_v,
        grad_x=grad_x,
        lo_x=lo_x,
        la=la,
        ls=ls,
        lo=lo,
        pi_v=pi_v,
        const_vec=const.ravel(),
    )


def poincare_constant(ops: OperatorSet) -> float:
    """Smallest nonzero eigenvalue of -L_o on the position factor.

    Dense symmetric eigensolve; stores the result into ops.m_h.
    """
    ev = sla.eigvalsh(-ops.lo_x)
    if ev[1] < 1e-10:
        raise DegenerateGapError(
            f"second eigenvalue of -L_o is {ev[1]:.3e}; grid or domain degenerate"
        )
    ops.m_h = float(ev[1])
    return ops.m_h


def compose_generator(ops: OperatorSet, gamma: float) -> sp.csr_matrix:
    """L = L_a + gamma * L_s."""
    if gamma <= 0:
        raise ConfigurationError(f"gamma = {gamma}: friction must be positive")
    return (ops.la + gamma * ops.ls).tocsr()


def bochner_test_suite(grid: WeightedGrid) -> dict:
    """Pure-position test functions sampled on the grid."""
    x = grid.nodes
    return {
        "one": np.ones_like(x),
        "hermite1": x,
        "hermite2": x**2,
        "gauss_bump": np.exp(-(x**2) / 2),
        "sine": np.sin(x),
    }


@dataclass
class StructureReport:
    """Residuals from the operator identity checks.

    exact: identities that hold to machine precision by construction
    (antisymmetry, symmetry, projectors, kernel relations, velocity Poincare).
    recorded: identities carrying a discretization story (operator form of the
    lifted Dirichlet identity, Gaussian fourth-moment consequence), reported
    as relative residuals on a smooth pure-position test suite.
    """

    exact: dict
    recorded: dict

    def worst_exact(self) -> float:
        return max(self.exact.values())

    def as_dict(self) -> dict:
        return {"exact": dict(self.exact), "recorded": dict(self.recorded)}


def check_structure(ops: OperatorSet) -> StructureReport:
    """Verify the operator identities; raise on any exact-check failure."""
    if ops.m_h is None:
        raise PreconditionError("run poincare_constant(ops) before check_structure")
    la, ls, lo, pi = ops.la, ops.ls, ops.lo, ops.pi_v
    exact = {}
    exact["la_antisymmetry"] = _spmax(la + la.T)
    exact["ls_symmetry"] = _spmax(ls - ls.T)
    exact["lo_symmetry"] = _spmax(lo - lo.T)
    exact["pi_idempotent"] = _spmax(pi @ pi - pi)
    exact["pi_symmetric"] = _spmax(pi - pi.T)
    exact["pi_commutes_lo"] = _spmax(pi @ lo - lo @ pi)
    exact["transport_average_adjoint"] = _spmax((la @ pi).T + pi @ la)
    exact["average_sandwich_zero"] = _spmax(pi @ la @ pi)
    exact["ls_kernel_is_ran_pi"] = _spmax(ls @ pi)
    # the reverse containment: every non-averaged mode is damped at rate >= 1
    fast_rates = -ls.diagonal()[np.tile(ops.basis.eigenvalues >= 1, ops.n_x)]
    exact["ls_gap_on_fast_modes"] = float(max(0.0, 1.0 - fast_rates.min()))
    exact["generator_kills_constants"] = float(
        np.abs(la @ ops.const_vec).max() + np.abs(ls @ ops.const_vec).max()
    )

    # Gaussian velocity Poincare: ||(1-Pi)f||^2 <= ||d_v f||^2 is the
    # diagonal comparison k >= 1 on Hermite modes; exact in this basis.
    k = ops.basis.eigenvalues
    exact["velocity_poincare"] = float(max(0.0, np.max((k >= 1) * 1.0 - k)))

    recorded = {}
    lift_worst = 0.0
    moment_worst = 0.0
    lapi = (la @ pi).tocsr()
    for name, values in bochner_test_suite(ops.grid).items():
        if name == "one":  # both sides vanish: a relative residual is 0/0
            continue
        f = ops.lift_position(values)
        f = f / np.linalg.norm(f)
        lhs = lapi.T @ (lapi @ f)
        rhs = -(lo @ (pi @ f))
        lift_worst = max(lift_worst, float(np.linalg.norm(lhs - rhs)))
        # fourth-moment consequence: ||(1-Pi) L_a^2 h||^2 = 2 ||D^2 h||^2,
        # with D^2 applied to f's mode-0 column (its only nonzero one)
        la2 = la @ (la @ f)
        left = np.linalg.norm(la2 - pi @ la2) ** 2
        d2 = ops.grad_x @ (ops.grad_x @ f[::ops.n_v])
        right = 2 * np.linalg.norm(d2) ** 2
        scale = max(right, 1e-30)
        moment_worst = max(moment_worst, abs(left - right) / scale)
    recorded["lifted_dirichlet_residual"] = lift_worst
    recorded["fourth_moment_relative"] = moment_worst

    worst = max(exact.values())
    if worst > EXACT_TOL:
        bad = {k: v for k, v in exact.items() if v > EXACT_TOL}
        raise StructuralAssemblyError(f"exact structural checks failed: {bad}")
    return StructureReport(exact=exact, recorded=recorded)


def _spmax(matrix: sp.spmatrix) -> float:
    m = abs(matrix)
    return float(m.max()) if m.nnz else 0.0
