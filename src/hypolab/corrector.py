"""Gap-shifted corrector, modified Lyapunov/dissipation functionals, bounds.

The corrector is the paper's A_m = (m - L_o)^{-1} (L_a Pi_v)^T, shifted by
the discrete gap m = m_h.  (L_a Pi_v)^T = -Pi_v L_a = kron(Grad^T, e_0 e_1^T)
maps Hermite mode 1 to mode 0 only, so A = kron(B, e_0 e_1^T) with the
n_x x n_x position block B = (m_h - L_o)^{-1} Grad^T: one Cholesky solve of
the shifted position operator, SPD because m_h > 0.

Verified bounds, each the norm of one position block of the ladder algebra
(L_a A maps mode 1 to mode 1; A L_a (1 - Pi_v) maps mode 2 to mode 0 through
the lowering coefficient sqrt(2)):

    ||A||                 = s_max(B)                  <=  1 / (2 sqrt(m_h))
    ||L_a A||             = s_max(Grad B)             <=  1
    ||A L_a (1 - Pi_v)||  = sqrt(2) s_max(B Grad^T)   <=  sqrt(2 + K / (2 m_h))

The first bound is attained: the singular values of B are s / (m_h + s^2)
over the singular values s of Grad, and s = sqrt(m_h) is one of them.
Also checked: coercivity of the dissipation quadratic form

    Q = -(L + L^T)/2 + eps (sym(A L) + sym(A^T L)),   sym(X) = (X + X^T)/2,

on the mean-zero subspace against lambda_coer.  With the Hermite raising
matrix R, N = diag(k) and L = Grad (x) R - Grad^T (x) R^T - gamma I (x) N,

    A L   = B Grad (x) e_0 e_0^T - sqrt(2) B Grad^T (x) e_0 e_2^T
            - gamma B (x) e_0 e_1^T,
    A^T L = -B^T Grad^T (x) e_1 e_1^T,

so Q is gamma k on each Hermite mode k >= 3, coupled to no other mode, and
on modes 0-2 it is the 3 x 3 matrix of n_x x n_x position blocks

    Q_00 = eps sym(B Grad)
    Q_01 = -(eps gamma / 2) B
    Q_02 = -(eps / sqrt(2)) B Grad^T
    Q_11 = gamma I - eps sym(B^T Grad^T)
    Q_12 = 0
    Q_22 = 2 gamma I

One dense eigensolve of that 3 n_x x 3 n_x block gives the smallest
eigenvalue of Q on the mean-zero subspace: it is at most 2 gamma (Q_22), and
the rest of Q is 3 gamma or more.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.blas import dsyr, dsyr2

from .discretize import OperatorSet
from .errors import PreconditionError
from .model import eval_potential


@dataclass
class Corrector:
    """Gap-shifted corrector: its mode-1 -> mode-0 position block and the
    assembled phase-space matrix, with the operator set.

    Every computation goes through the block; matrix is kept because the
    benchmark reports its nonzero count (corrector.nnz_A) and the tests use
    it as the phase-space reference for the block algebra.
    """

    ops: OperatorSet
    block: np.ndarray
    matrix: sp.csr_matrix

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x from the position block: B times x's Hermite mode 1, on mode 0."""
        n_v = self.ops.n_v
        out = np.zeros_like(x)
        out[::n_v] = self.block @ x[1::n_v]
        return out


def build_corrector(ops: OperatorSet) -> Corrector:
    """Assemble A = (m_h I - L_o)^{-1} (L_a Pi_v)^T = kron(B, e_0 e_1^T);
    needs m_h from poincare_constant."""
    if ops.m_h is None:
        raise PreconditionError("corrector needs m_h; run poincare_constant")
    chol = sla.cho_factor(ops.m_h * np.eye(ops.n_x) - ops.lo_x)
    block = sla.cho_solve(chol, ops.grad_x.T)
    e01 = sp.csr_matrix(([1.0], ([0], [1])), shape=(ops.n_v, ops.n_v))
    matrix = sp.kron(block, e01, format="csr")
    return Corrector(ops=ops, block=block, matrix=matrix)


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

    def products(self, f: np.ndarray):
        """The three matvecs H and D are built from: (A f, L f, A L f)."""
        lf = self.L @ f
        return self.corrector.apply(f), lf, self.corrector.apply(lf)

    def values(self, f: np.ndarray, products):
        """(H(f), D(f)) from f's products (A f, L f, A L f)."""
        return (
            0.5 * f @ f - self.eps * (products[0] @ f),
            self.dissipation(f, products, f, products),
        )

    def dissipation(self, f, f_products, g, g_products) -> float:
        """d(f, g) = -<L f, g> + eps (<A L f, g> + <A f, L g>), the bilinear
        form with D(f) = d(f, f), from the products of f and of g."""
        af, lf, alf = f_products
        return -(lf @ g) + self.eps * (alf @ g + af @ g_products[1])


def operator_norm(matrix) -> float:
    """Largest singular value by a dense SVD.

    The bound checks pass the n_x x n_x position blocks of the corrector
    algebra, never a phase-space matrix, so a dense SVD is cheap and accurate
    to roundoff.
    """
    return float(sla.svdvals(matrix)[0])


@dataclass
class DissipationReport:
    """Measured corrector norms vs their bounds."""

    norm_a: float
    norm_la_a: float
    norm_a_la_fast: float
    bound_a: float
    bound_la_a: float
    bound_a_la_fast: float

    @property
    def ratios(self):
        return (
            self.norm_a / self.bound_a,
            self.norm_la_a / self.bound_la_a,
            self.norm_a_la_fast / self.bound_a_la_fast,
        )

    @property
    def norm_a_exact_residual(self) -> float:
        """|norm_A - bound_A| / bound_A: the bound on ||A|| is attained."""
        return abs(self.norm_a - self.bound_a) / self.bound_a

    def as_dict(self) -> dict:
        return {
            "norm_A": self.norm_a,
            "norm_LaA": self.norm_la_a,
            "norm_ALa_fast": self.norm_a_la_fast,
            "bound_A": self.bound_a,
            "bound_LaA": self.bound_la_a,
            "bound_ALa_fast": self.bound_a_la_fast,
            "ratios": list(self.ratios),
            "norm_A_exact_residual": self.norm_a_exact_residual,
        }


def verify_corrector_bounds(c: Corrector) -> DissipationReport:
    """Measure ||A||, ||L_a A||, ||A L_a (1 - Pi_v)|| against the bounds.

    Each norm is the largest singular value of one position block (see the
    module docstring).
    """
    ops = c.ops
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


def dissipation_block(c: Corrector, eps: float, gamma: float) -> np.ndarray:
    """The Hermite mode 0-2 block of Q in position-major order,
    dense[k::3, l::3] = Q_kl (see the module docstring), Fortran-ordered."""
    b, g = c.block, c.ops.grad_x
    n_x = len(b)
    eye = np.eye(n_x)
    bg = b @ g
    gb = g @ b
    dense = np.zeros((3 * n_x, 3 * n_x), order="F")
    dense[::3, ::3] = (eps / 2) * (bg + bg.T)
    dense[::3, 1::3] = -(eps * gamma / 2) * b
    dense[::3, 2::3] = -(eps / np.sqrt(2.0)) * (b @ g.T)
    dense[1::3, 1::3] = gamma * eye - (eps / 2) * (gb + gb.T)  # B^T G^T = (G B)^T
    dense[2::3, 2::3] = 2.0 * gamma * eye
    dense[1::3, ::3] = dense[::3, 1::3].T
    dense[2::3, ::3] = dense[::3, 2::3].T
    return dense


def dissipation_form_min_eig(c: Corrector, eps: float, gamma: float):
    """Smallest eigenvalue of the dissipation form Q on the mean-zero subspace,
    as (value, residual); value - residual is a lower bound on it.

    Q is the mode 0-2 block, which holds the mean direction u, next to
    gamma k on each mode k >= 3 (see the module docstring).  The higher modes
    need no solve: the block's smallest eigenvalue on u^perp is at most
    2 gamma, the value of Q on any mode-2 state (Q_22 = 2 gamma I, and mode 2
    is orthogonal to u), so it is below their 3 gamma.  The block is deflated
    to u^perp as P Q P + s u u^T, with s above its norm, and solved densely;
    it is then built again for the residual ||P(Q x) - value x|| of the
    eigenvector, so one 3 n_x x 3 n_x buffer is alive at a time.
    """
    u = np.zeros(3 * c.ops.n_x)
    u[::3] = c.ops.grid.sqrt_weights
    dense = dissipation_block(c, eps, gamma)
    qu = dense @ u
    shift = 2.0 * sla.norm(dense, 1)
    dense = dsyr2(-1.0, u, qu, lower=1, a=dense, overwrite_a=1)
    dense = dsyr(float(u @ qu) + shift, u, lower=1, a=dense, overwrite_a=1)
    (rho,), x = sla.eigh(dense, lower=True, overwrite_a=True, check_finite=False,
                         subset_by_index=[0, 0])
    del dense
    x = x[:, 0] - u * (u @ x[:, 0])
    x /= np.linalg.norm(x)
    r = dissipation_block(c, eps, gamma) @ x
    r -= u * (u @ r) + rho * x
    return float(rho), float(np.linalg.norm(r))


def bochner_residual(ops: OperatorSet, h_values: np.ndarray) -> tuple[float, float]:
    """Curvature identity and inequality for a position function h, as
    (residual, slack).

    residual = ||L_o h||^2 - ||D^2 h||^2 - sum_i U''(x_i) |(D h)(x_i)|^2 w_i
    is the discretization error of the integrated identity, with D the
    discrete gradient in orthonormalized coordinates.  slack is the relative
    slack of the inequality ||D^2 h||^2 <= ||L_o h||^2 + K ||D h||^2 that the
    closed-form K gives, (rhs - lhs) / |rhs|: negative where the inequality
    fails, NaN where both sides vanish (h constant).
    """
    grid = ops.grid
    hh = grid.sqrt_weights * np.asarray(h_values, dtype=float)
    g1 = ops.grad_x @ hh
    g2 = ops.grad_x @ g1
    lo_h = ops.lo_x @ hh
    d2u = eval_potential(grid.model.potential, grid.nodes)[2]
    residual = float(lo_h @ lo_h - g2 @ g2 - g1 @ (d2u * g1))
    lhs = float(g2 @ g2)
    rhs = float(lo_h @ lo_h) + grid.model.K * float(g1 @ g1)
    return residual, (rhs - lhs) / abs(rhs) if rhs else math.nan
