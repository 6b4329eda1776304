"""Gap-shifted corrector, modified Lyapunov/dissipation functionals, bounds.

The corrector is A = (alpha - L_o)^{-1} (L_a Pi_v)^T with alpha = m_h by
default.  (L_a Pi_v)^T = -Pi_v L_a = kron(Grad^T, e_0 e_1^T) maps Hermite
mode 1 to mode 0 only, so A = kron(B, e_0 e_1^T) with the n_x x n_x position
block B = (alpha - L_o)^{-1} Grad^T: one Cholesky solve of the SPD shifted
position operator.

Verified bounds, each the norm of one position block of the ladder algebra
(L_a A maps mode 1 to mode 1; A L_a (1 - Pi_v) maps mode 2 to mode 0 through
the lowering coefficient sqrt(2)):

    ||A||                 = s_max(B)                  <=  1 / (2 sqrt(m_h))
    ||L_a A||             = s_max(Grad B)             <=  1
    ||A L_a (1 - Pi_v)||  = sqrt(2) s_max(B Grad^T)   <=  sqrt(2 + K / (2 m_h))

The first bound is attained: the singular values of B are s / (m_h + s^2)
over the singular values s of Grad, and s = sqrt(m_h) is one of them.
Also checked: coercivity of the dissipation quadratic form on the mean-zero
subspace against lambda_coer.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretize import OperatorSet, compose_generator
from .errors import ConfigurationError, NumericalError, PreconditionError
from .model import eval_potential
from .tuning import rate


@dataclass
class Corrector:
    """Shifted corrector: its mode-1 -> mode-0 position block and the
    assembled phase-space matrix, with the operator set and shift."""

    ops: OperatorSet
    alpha: float
    block: np.ndarray
    matrix: sp.csr_matrix


def build_corrector(ops: OperatorSet, alpha: float | None = None) -> Corrector:
    """Assemble A = (alpha I - L_o)^{-1} (L_a Pi_v)^T = kron(B, e_0 e_1^T).

    alpha defaults to the discrete gap m_h (requires poincare_constant first).
    """
    if alpha is None:
        if ops.m_h is None:
            raise PreconditionError("corrector needs m_h; run poincare_constant")
        alpha = ops.m_h
    if alpha <= 0:
        raise ConfigurationError(f"corrector shift alpha = {alpha} must be positive")

    try:
        chol = sla.cho_factor(alpha * np.eye(ops.n_x) - ops.lo_x)
    except sla.LinAlgError as exc:  # pragma: no cover - SPD by construction
        raise NumericalError(f"factorization of (alpha - L_o) failed: {exc}")
    block = sla.cho_solve(chol, ops.grad_x.T)
    e01 = sp.csr_matrix(([1.0], ([0], [1])), shape=(ops.n_v, ops.n_v))
    matrix = sp.kron(block, e01, format="csr")
    return Corrector(ops=ops, alpha=float(alpha), block=block, matrix=matrix)


@dataclass
class ModifiedFunctional:
    """The modified L^2 functional of a corrector at (L, eps), the one place
    its formulas are written:

        H(f) = (1/2)||f||^2 - eps <A f, f>
        D(f) = -<L f, f> + eps (<A L f, f> + <A f, L f>)

    D = -dH/dt along df/dt = L f.  Both are meant for mean-zero states; the
    caller checks that.
    """

    corrector: Corrector
    L: sp.spmatrix
    eps: float

    def values(self, f: np.ndarray):
        """(H(f), D(f)) from three matvecs: A f, L f and A (L f)."""
        A, eps = self.corrector.matrix, self.eps
        af = A @ f
        lf = self.L @ f
        return (
            0.5 * f @ f - eps * (af @ f),
            -(lf @ f) + eps * ((A @ lf) @ f + af @ lf),
        )

    def form(self) -> sp.csc_matrix:
        """Sparse symmetric matrix Q with D(f) = f^T Q f."""
        A, L = self.corrector.matrix, self.L
        al = (A @ L).tocsr()
        atl = (A.T @ L).tocsr()
        q = -(L + L.T) / 2 + self.eps * ((al + al.T) / 2 + (atl + atl.T) / 2)
        return q.tocsc()


def operator_norm(matrix) -> float:
    """Largest singular value by a dense SVD.

    The bound checks pass the n_x x n_x position blocks of the corrector
    algebra, never a phase-space matrix, so a dense SVD is cheap and accurate
    to roundoff.
    """
    dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)
    return float(sla.svdvals(dense)[0])


@dataclass
class DissipationReport:
    """Measured corrector norms and coercivity numbers vs their bounds."""

    norm_a: float
    norm_la_a: float
    norm_a_la_fast: float
    bound_a: float
    bound_la_a: float
    bound_a_la_fast: float
    min_eig_q: float | None = None
    min_eig_residual: float | None = None
    min_eig_iterations: int | None = None
    lambda_coer: float | None = None

    @property
    def slack(self) -> float:
        return self.min_eig_q - self.lambda_coer

    @property
    def ratios(self):
        return (
            self.norm_a / self.bound_a,
            self.norm_la_a / self.bound_la_a,
            self.norm_a_la_fast / self.bound_a_la_fast,
        )

    @property
    def excess(self):
        """Positive part of (measured/bound - 1) for each norm bound."""
        return tuple(max(0.0, r - 1.0) for r in self.ratios)

    @property
    def norm_a_exact_residual(self) -> float:
        """|norm_A - bound_A| / bound_A: the bound on ||A|| is attained."""
        return abs(self.norm_a - self.bound_a) / self.bound_a

    def as_dict(self) -> dict:
        d = {
            "norm_A": self.norm_a,
            "norm_LaA": self.norm_la_a,
            "norm_ALa_fast": self.norm_a_la_fast,
            "bound_A": self.bound_a,
            "bound_LaA": self.bound_la_a,
            "bound_ALa_fast": self.bound_a_la_fast,
            "ratios": list(self.ratios),
            "norm_A_exact_residual": self.norm_a_exact_residual,
        }
        if self.min_eig_q is not None:
            d.update(
                min_eig_Q=self.min_eig_q,
                min_eig_residual=self.min_eig_residual,
                min_eig_iterations=self.min_eig_iterations,
                lambda_coer=self.lambda_coer,
                slack=self.slack,
            )
        return d


def verify_corrector_bounds(c: Corrector) -> DissipationReport:
    """Measure ||A||, ||L_a A||, ||A L_a (1 - Pi_v)|| against the bounds.

    Each norm is the largest singular value of one position block (see the
    module docstring).  Requires the gap-shifted corrector (alpha = m_h).
    """
    ops = c.ops
    if ops.m_h is None or abs(c.alpha - ops.m_h) > 1e-12 * max(ops.m_h or 1.0, 1.0):
        raise PreconditionError("corrector bounds are stated for alpha = m_h")
    m = ops.m_h
    K = ops.grid.model.K
    norm_a = operator_norm(c.block)
    norm_la_a = operator_norm(ops.grad_x @ c.block)
    norm_fast = float(np.sqrt(2.0)) * operator_norm(c.block @ ops.grad_x.T)
    return DissipationReport(
        norm_a=norm_a,
        norm_la_a=norm_la_a,
        norm_a_la_fast=norm_fast,
        bound_a=1.0 / (2.0 * np.sqrt(m)),
        bound_la_a=1.0,
        bound_a_la_fast=float(np.sqrt(2.0 + K / (2.0 * m))),
    )


def _min_eig_shift_invert(q, u, sigma, tol=1e-12, max_iter=10000, seed=0):
    """Smallest eigenvalue of q on the complement of u by shifted inverse
    iteration: (Rayleigh quotient rho, residual ||P(q x) - rho x||, iterations).

    The mean direction u is pushed out of the window by a rank-one penalty,
    handled through the Sherman-Morrison update of the factorized shift.  rho
    is an upper bound on the eigenvalue it converged to; rho - residual is a
    lower bound on it.
    """
    n = q.shape[0]
    penalty = 10.0 * float(abs(q).max()) * n
    try:
        lu = spla.splu(q - sigma * sp.identity(n, format="csc"))
    except RuntimeError as exc:
        raise NumericalError(f"shift-invert factorization failed: {exc}")
    mu = lu.solve(u)
    denom = 1.0 + penalty * float(u @ mu)

    def solve(b):
        y = lu.solve(b)
        return y - mu * (penalty * float(u @ y) / denom)

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x -= u * (u @ x)
    x /= np.linalg.norm(x)
    rho = 0.0
    for iteration in range(1, max_iter + 1):
        y = solve(x)
        y -= u * (u @ y)  # keep the iterate in the mean-zero subspace
        ny = np.linalg.norm(y)
        if ny == 0.0:
            raise NumericalError("inverse iteration collapsed to zero")
        x = y / ny
        qx = q @ x
        rho_new = float(x @ qx)
        if abs(rho_new - rho) <= tol * max(abs(rho_new), 1.0):
            qx -= u * (u @ qx) + rho_new * x
            return rho_new, float(np.linalg.norm(qx)), iteration
        rho = rho_new
    raise NumericalError(f"inverse iteration did not converge in {max_iter} steps")


def dissipation_form_min_eig(c: Corrector, eps: float, gamma: float):
    """Smallest eigenvalue of the dissipation form on the mean-zero subspace,
    as (value, residual, iterations) of shifted inverse iteration on the
    sparse form; value - residual is a lower bound on it.
    """
    ops = c.ops
    if ops.m_h is None or abs(c.alpha - ops.m_h) > 1e-12 * max(ops.m_h or 1.0, 1.0):
        raise PreconditionError("coercivity is stated for alpha = m_h")
    lam = rate(ops.m_h, ops.grid.model.K)[0]
    q = ModifiedFunctional(c, compose_generator(ops, gamma), eps).form()
    return _min_eig_shift_invert(q, ops.const_vec, sigma=-max(lam, 1e-3))


def bochner_residual(ops: OperatorSet, h_values: np.ndarray) -> float:
    """Residual of the integrated curvature identity for a position function.

    r = ||L_o h||^2 - ||D^2 h||^2 - sum_i U''(x_i) |(D h)(x_i)|^2 w_i
    with D the discrete gradient applied in orthonormalized coordinates.
    Also asserts the inequality form with the closed-form K (always true by
    construction of r; raises NumericalError if violated by roundoff).
    """
    grid = ops.grid
    hh = grid.sqrt_weights * np.asarray(h_values, dtype=float)
    g1 = ops.grad_x @ hh
    g2 = ops.grad_x @ g1
    lo_h = ops.lo_x @ hh
    d2u = eval_potential(grid.model.potential, grid.nodes)[2]
    r = float(lo_h @ lo_h - g2 @ g2 - g1 @ (d2u * g1))
    K = grid.model.K
    lhs = float(g2 @ g2)
    rhs = float(lo_h @ lo_h) + K * float(g1 @ g1) + abs(r)
    if lhs > rhs * (1 + 1e-12) + 1e-30:
        raise NumericalError("curvature inequality violated beyond roundoff")
    return r
