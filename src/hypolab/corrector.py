"""Gap-shifted corrector, modified Lyapunov/dissipation functionals, bounds.

The corrector is the paper's A_m = (m - L_o)^{-1} (L_a Pi_v)^T, shifted by
the discrete gap m = m_h.  (L_a Pi_v)^T = -Pi_v L_a = kron(Grad^T, e_0 e_1^T)
maps Hermite mode 1 to mode 0 only, so A = kron(B, e_0 e_1^T) with the
n_x x n_x position block B = (m_h - L_o)^{-1} Grad^T.  The corrector keeps
the dpttrf factors of m_h - L_o, tridiagonal and SPD because m_h > 0, and
Grad's two bands: O(n_x) bytes.  S = A + A^T is two tridiagonal solves,
B x_1 = (m_h - L_o)^{-1} (Grad^T x_1) on mode 0 and
B^T x_0 = Grad ((m_h - L_o)^{-1} x_0) on mode 1.  The dense B is formed
only when the phase-space matrix is read.

Take the singular pairs of the gradient, Grad = U diag(sigma) V^T, from the
tridiagonal eigensolve -L_o = V diag(sigma^2) V^T, with U = Grad V / sigma.
Then B = V diag(t) U^T with t = sigma / (m_h + sigma^2), and the verified
bounds, each the norm of one position block of the ladder algebra (L_a A
maps mode 1 to mode 1; A L_a (1 - Pi_v) maps mode 2 to mode 0 through the
lowering coefficient sqrt(2)), are

    ||A||                 = s_max(B)      = max t        <=  1 / (2 sqrt(m_h))
    ||L_a A||             = s_max(Grad B) = max sigma t  <=  1
    ||A L_a (1 - Pi_v)||  = sqrt(2) s_max(B Grad^T)      <=  sqrt(2 + K / (2 m_h))

The first two are closed forms in the pairs and hold on every grid:
sigma / (m_h + sigma^2) <= 1 / (2 sqrt(m_h)) by the AM-GM inequality, with
equality at sigma^2 = m_h, and sigma^2 / (m_h + sigma^2) < 1.  The third is
the one bound that uses K.  As V has orthonormal columns,
s_max(B Grad^T) = s_max(V diag(t) (Grad U)^T) = s_max((Grad U) diag(t)),
which operator_norm measures and whose rounding error
verify_corrector_bounds reports as ratio_allowance (derived in
operator_norm's docstring).
Also checked: coercivity of the dissipation quadratic form of ModifiedFunctional

    Q = -sym(L) + eps sym(S L),   S = A + A^T,   sym(X) = (X + X^T)/2,

on the mean-zero subspace against lambda_coer.  With the Hermite raising
matrix R, N = diag(k) and L = Grad (x) R - Grad^T (x) R^T - gamma I (x) N,
S L = A L + A^T L with

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

The smallest eigenvalue of Q on the mean-zero subspace u^perp (u = sqrt(w)
on mode 0) needs no 3 n_x x 3 n_x matrix.  In the singular pairs,
B Grad = V diag(s^2) V^T and Grad B = U diag(s^2) U^T, with
s^2 = sigma t = sigma^2 / (m_h + sigma^2).  In the coordinates V^T x_0 and
U^T x_1, modes 0 and 1 split into independent pairs

    [[a, -b], [-b, c]],   a = eps s^2,  b = (eps gamma / 2) t,  c = gamma - a,

and mode 2 (2 gamma I) couples to mode 0 only, through the
(n_x - 1) x n_x block C = -(eps / sqrt(2)) diag(t) (Grad U)^T.  The pair at
sigma = 0 is diag(0, gamma): its mode-0 vector is u, an exact null vector of
Q.  Eliminating modes 1 and 2 from (Q - lam) x = 0 leaves the
(n_x - 1)-square secular matrix

    S(lam) = diag(a - lam - b^2 / (c - lam)) - C C^T / (2 gamma - lam).

Below the smallest pole p = min c (<= gamma), the eliminated block
diag(c - lam, 2 gamma - lam) is positive definite, so by Haynsworth inertia
Q - lam is positive definite on u^perp exactly when S(lam) is (the pair
left out at sigma = 0 is gamma - lam > 0 on mode 1, and modes k >= 3 give
gamma k - lam > 0).  S' <= -I and S'' <= 0 there, so phi(lam) = mu_min(S(lam))
is concave and strictly decreasing on (-inf, p); it tends to -inf at p when
eps > 0 (b > 0) and is -lam when eps = 0.  Its one root below p is
therefore the smallest eigenvalue of Q on u^perp.  At the smallest
eigenvalue of the decoupled pairs (C = 0) the diagonal is >= 0 with a zero
and -C C^T <= 0, so phi <= 0: Newton's method started there stays above the
root, because a concave function lies below its tangents, and decreases to
it monotonically.  It runs in delta = p - lam, so c - lam = (c - p) + delta
keeps its relative accuracy when the root is within rounding of the pole
(small gamma), and it stops once |mu| is at the rounding level of the terms
S is summed from.  The eigenvector lifts back to
x_0 = V y, x_1 = U (b y / (c - lam)), x_2 = -C^T y / (2 gamma - lam).

Each Newton step is one (n_x - 1)-square eigensolve.  The lifted vector's
residual is measured in phase space, by the functional's Q f on the generator
compose_generator assembles and the corrector's two-solve S f, so it also
sees faults of the assembled L and of S f that the blocks above cannot: it
is the one check that reads S f.  The eigenbasis of Grad^T Grad is accurate
to about machine epsilon times ||Grad^T Grad||, so the residual grows with
n_x (about 1e-12 at n_x = 512); it is subtracted on the safe side.  It is
returned with its rounding level, NEWTON_FLOOR times the terms apply_form
sums on modes 0-2, of which it is a few percent at 512 x 32.  Well above
that level it is not rounding: the closed-form blocks and the assembled
generator or S f disagree.

The corrector stage makes one tridiagonal eigensolve, singular_pairs: the
bounds read its block first, and the secular solve then scales that block
into C^T in place.  At most three dense n_x x n_x arrays are alive at once
in the stage, and the Corrector holds none: V and the divide-and-conquer
eigensolve's n_x^2 workspace; V, Grad V and Grad (Grad V) while the block
(Grad U) diag(t) is formed (U itself never is); V, that block and its Gram
matrix; V, C^T and S in the Newton loop.  No copy of one is made.  LAPACK
works in place on the transposed views of X^T X and of S, which are exactly
symmetric because numpy forms X^T X by syrk and mirrors its triangle, and
Grad X is formed from Grad's two bands a row at a time.  V lives through
the Newton loop to lift the root vector, whose mode-1 part
U y_1 = Grad (V (y_1 / sigma)) is a product with a vector; C^T and S are
freed before the lift, V after it.  Each Newton step forms C C^T afresh
into S rather than keep it beside S: one more syrk a step.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .discretize import OperatorSet, compose_generator, grad_bands, lo_bands
from .errors import NumericalError
from .model import eval_potential
from .tuning import curvature_roots

if TYPE_CHECKING:
    import scipy.sparse as sp

NEWTON_CAP = 50  # secular Newton steps before NumericalError
NEWTON_FLOOR = 8 * np.finfo(float).eps  # rounding level of mu, per unit of S


@dataclass
class Corrector:
    """Gap-shifted corrector with the operator set: the dpttrf factors of
    m_h - L_o, bound into solve, and Grad's two bands; no n_x^2 array.

    Every computation goes through solve and the bands.  The phase-space
    matrix, and with it the dense block B, is formed only when read: the
    benchmark reports its nonzero count (corrector.nnz_A) and the tests use
    it as the phase-space reference for the factor path.
    """

    ops: OperatorSet
    solve: functools.partial  # b -> ((m_h - L_o)^{-1} b, info) by LAPACK dpttrs
    grad: tuple[np.ndarray, np.ndarray]

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        """A = kron(B, e_0 e_1^T) on the phase space; B is solved in place
        into the dense Grad^T, F-ordered as the transpose of a CSR matrix."""
        import scipy.sparse as sp

        n_v = self.ops.n_v
        e01 = sp.csr_matrix(([1.0], ([0], [1])), shape=(n_v, n_v))
        block = self.solve(self.ops.grad_x.T.toarray(), overwrite_b=True)[0]
        return sp.kron(block, e01, format="csr")

    def apply_symmetric(self, x: np.ndarray) -> np.ndarray:
        """S x = (A + A^T) x by two solves: B x_1 = (m_h - L_o)^{-1} Grad^T x_1
        of x's Hermite mode 1 goes to mode 0, and B^T x_0 =
        Grad (m_h - L_o)^{-1} x_0 of its mode 0 to mode 1."""
        n_v = self.ops.n_v
        d0, d1 = self.grad
        x1 = x[1::n_v]
        grad_t = d0 * x1
        grad_t[1:] += d1 * x1[:-1]
        z = self.solve(x[::n_v])[0]
        out = np.zeros_like(x)
        out[::n_v] = self.solve(grad_t)[0]
        out[1::n_v] = d0 * z
        out[1::n_v][:-1] += d1 * z[1:]
        return out


def build_corrector(ops: OperatorSet) -> Corrector:
    """A = (m_h I - L_o)^{-1} (L_a Pi_v)^T = kron(B, e_0 e_1^T), kept as the
    LDL^T factors of the tridiagonal m_h - L_o by LAPACK dpttrf."""
    from scipy.linalg.lapack import dpttrf, dpttrs

    diag, upper = lo_bands(ops.grid)
    d, e, info = dpttrf(ops.m_h + diag, upper)
    if info:
        raise NumericalError(f"m_h - L_o is not positive definite (dpttrf info {info})")
    return Corrector(ops=ops, solve=functools.partial(dpttrs, d, e),
                     grad=grad_bands(ops.grid))


@dataclass
class ModifiedFunctional:
    """The modified L^2 functional of a corrector at (L, eps), the one place
    its formulas are written; only the corrector's S = A + A^T enters:

        H(f) = (1/2)||f||^2 - (eps/2) <S f, f>
        D(f) = d(f, f),   d(f, g) = -<L f, g> + eps <S f, L g>
        Q    = -sym(L) + eps sym(S L),   D(f) = <Q f, f>

    D = -dH/dt along df/dt = L f.  All are meant for mean-zero states; the
    caller checks that.
    """

    corrector: Corrector
    L: sp.spmatrix
    eps: float

    def products(self, f: np.ndarray):
        """The two matvecs H and D are built from: (S f, L f)."""
        return self.corrector.apply_symmetric(f), self.L @ f

    def values(self, f: np.ndarray, products):
        """(H(f), D(f)) from f's products (S f, L f)."""
        return (
            0.5 * f @ f - (self.eps / 2) * (products[0] @ f),
            self.dissipation(f, products, f, products),
        )

    def dissipation(self, f, f_products, g, g_products) -> float:
        """d(f, g) = -<L f, g> + eps <S f, L g>, the bilinear form with
        D(f) = d(f, f), from the products of f and of g."""
        sf, lf = f_products
        return -(lf @ g) + self.eps * (sf @ g_products[1])

    def apply_form(self, f: np.ndarray) -> np.ndarray:
        """Q f = (eps (S L f + L^T S f) - (L + L^T) f) / 2, the symmetric
        matrix of D applied to f.  L + L^T is summed as a matrix, in which
        L_a cancels exactly: L f + L^T f would keep L_a f's roundoff."""
        (sf, lf), lt = self.products(f), self.L.T
        return 0.5 * (self.eps * (self.corrector.apply_symmetric(lf) + lt @ sf)
                      - (self.L + lt) @ f)


def operator_norm(matrix) -> float:
    """Largest singular value, as the square root of the largest eigenvalue
    of the Gram matrix X^T X.

    verify_corrector_bounds passes the n_x x n block (Grad U) diag(t),
    n = n_x - 1, never a phase-space matrix.  Squaring loses accuracy only at
    the bottom of the spectrum, so s = s_max comes out to roundoff, as from
    an SVD, in about a third of its time (one product and one selected
    eigenvalue).  With u = eps / 2 the unit roundoff, its relative error is
    below n^2 eps / 2 + u:

    * each entry of X^T X is an inner product of length n, so the computed
      Gram matrix is X^T X + E with |E| <= gamma_n |X|^T |X| entrywise and
      gamma_n = n u / (1 - n u) (Higham, Accuracy and Stability of Numerical
      Algorithms, sec. 3.1); as || |X| ||_2 <= sqrt(n) ||X||_2,
      ||E||_2 <= n gamma_n s^2, about n^2 u s^2;
    * the symmetric eigensolve is backward stable: its eigenvalue is exact
      for a matrix within c n^2 u ||X^T X|| of the one it was given, with c a
      small constant for the Householder tridiagonalization, taken as 1;
    * by Weyl's inequality the eigenvalue is then off s^2 by at most about
      2 n^2 u s^2 = n^2 eps s^2, and the square root halves that relative
      error and rounds once more.

    Dividing by a bound adds a few roundings more, far inside the other
    n^2 eps / 2 for n >= 16, so n_x^2 eps > n^2 eps is the rounding
    allowance of each norm-to-bound ratio (ratio_allowance of
    verify_corrector_bounds).

    numpy forms X^T X by syrk and mirrors its triangle, so the Gram matrix is
    exactly symmetric and its F-ordered transpose is the same matrix: LAPACK
    reads and overwrites that view, with no copy.  Nor is it scanned for
    non-finite entries, which would hold an n_x^2 mask: the block is a
    product of finite singular pairs, and a NaN makes LAPACK raise
    LinAlgError.
    """
    import scipy.linalg as sla

    n = matrix.shape[1]
    gram = matrix.T @ matrix
    return float(np.sqrt(sla.eigvalsh(gram.T, overwrite_a=True, check_finite=False,
                                      subset_by_index=[n - 1, n - 1])[0]))


def verify_corrector_bounds(c: Corrector, pairs: list | None = None) -> dict:
    """Measure ||A||, ||L_a A||, ||A L_a (1 - Pi_v)|| against the bounds, as
    the norm entries of the report's corrector section: each norm, each
    bound, their ratios, |norm_A - bound_A| / bound_A (the bound on ||A||
    is attained) and ratio_allowance = n_x^2 eps, the rounding allowance of
    each ratio that operator_norm's docstring derives.

    All three come from one tridiagonal eigensolve (module docstring):
    norm_A = max t and norm_LaA = max sigma t are closed forms, rounded a
    few times, and norm_ALa_fast is sqrt(2) operator_norm((Grad U) diag(t)).
    norm_A_exact_residual is then how far the eigensolve's smallest sigma^2
    lies from m_h, at second order.  pairs is singular_pairs(c.ops), solved
    here if not given; it is only read.
    """
    ops = c.ops
    if pairs is None:
        pairs = singular_pairs(ops)
    sigma, t, block = pairs[:3]
    norms = (float(t.max()), float((sigma * t).max()),
             float(np.sqrt(2.0)) * operator_norm(block))
    bounds = (_norm_a(ops.m_h), 1.0, curvature_roots(ops.m_h, ops.grid.potential.K)[0])
    names = ("A", "LaA", "ALa_fast")
    return {
        **{f"norm_{name}": norm for name, norm in zip(names, norms)},
        **{f"bound_{name}": bound for name, bound in zip(names, bounds)},
        "ratios": [norm / bound for norm, bound in zip(norms, bounds)],
        "norm_A_exact_residual": abs(norms[0] - bounds[0]) / bounds[0],
        "ratio_allowance": ops.n_x**2 * float(np.finfo(float).eps),
    }


def dissipation_form_min_eig(c: Corrector, eps: float, gamma: float,
                             pairs: list | None = None):
    """Smallest eigenvalue of the dissipation form Q on the mean-zero subspace,
    as (value, residual, cap, steps); value - residual is a lower bound on it
    while residual <= cap, the residual's rounding level, and steps is the
    number of eigensolves the secular Newton solve took, at most NEWTON_CAP.

    The secular solve of the module docstring, in delta = p - lam.  value is
    the Rayleigh quotient of the lifted root vector x, a phase-space state on
    Hermite modes 0-2, and residual is ||P(Q x) - value x||, both through
    ModifiedFunctional.apply_form on the generator compose_generator
    assembles.  cap is NEWTON_FLOOR times the terms apply_form sums on modes
    0-2: ||Grad^T Grad||_1, and from L_s = -N, gamma N <= 2 gamma and
    eps gamma (S N + N S) / 2 <= eps gamma ||A||.  Above it x is not an
    eigenvector of the assembled form, and value - residual bounds nothing.
    Raises NumericalError if the eigensolve with vectors does not give a
    positive gap sigma^2, or if |mu| is not at its rounding level within
    NEWTON_CAP steps.  pairs is singular_pairs(c.ops), solved here if not
    given, and is emptied: the solve scales its block in place and frees the
    block and V as soon as it is done with them, which a list it still held
    would keep alive.
    """
    ops = c.ops
    if pairs is None:
        pairs = singular_pairs(ops)
    x, steps = _secular_root(ops, eps, gamma, pairs)
    qx = ModifiedFunctional(c, compose_generator(ops, gamma), eps).apply_form(x)
    rho = float(x @ qx)
    residual = float(np.linalg.norm(ops.project_mean_zero(qx) - rho * x))
    cap = float(NEWTON_FLOOR * (abs(ops.lo_x).sum(axis=0).max()
                                + gamma * (2 + eps * _norm_a(ops.m_h))))
    return rho, residual, cap, steps


def _norm_a(m_h: float) -> float:
    """The bound 1 / (2 sqrt(m_h)) on ||A|| = max t, attained (module
    docstring)."""
    return 1.0 / (2.0 * math.sqrt(m_h))


def _grad_dense(ops: OperatorSet, x: np.ndarray) -> np.ndarray:
    """Grad x for a dense x, as a C-ordered array, from Grad's two bands, one
    row at a time: d0[i] x[i] + d1[i] x[i+1], the sum scipy's csr_matvecs
    forms, (0 + d0[i] x[i]) + d1[i] x[i+1], up to the sign of an exact zero.

    It holds the result and one row.  scipy's sparse @ dense copies an
    F-ordered x to C order first, and numpy buffers up to 64 KiB an operand
    for a broadcast or strided 2-D product.  The C order keeps the bits
    downstream: BLAS takes another path for the syrk and gemv of an
    F-ordered C^T."""
    d0, d1 = grad_bands(ops.grid)
    out = np.empty(x.shape)
    out[-1] = 0.0  # Grad's last row is empty
    row = np.empty(x.shape[1])
    for i, (a, b) in enumerate(zip(d0, d1)):
        np.multiply(x[i], a, out=out[i])
        out[i] += np.multiply(x[i + 1], b, out=row)
    return out


def singular_pairs(ops: OperatorSet) -> list:
    """The gradient's singular pairs but the kernel's, from one tridiagonal
    eigensolve with vectors, as [sigma, t, (Grad U) diag(t), V] of the module
    docstring: the block is s_max(B Grad^T)'s and a multiple of C^T.  U is
    never formed: (Grad U) diag(t) = Grad (Grad V) diag(1 / (m_h + sigma^2)).
    A list, so that dissipation_form_min_eig can empty it."""
    import scipy.linalg as sla

    sigma2, right = sla.eigh_tridiagonal(*lo_bands(ops.grid))
    sigma2, right = sigma2[1:], right[:, 1:]  # the kernel's pair is (u, gamma)
    if not sigma2[0] > 0:
        raise NumericalError(
            f"the tridiagonal eigensolve with vectors gives sigma^2 = "
            f"{sigma2[0]:.3e} for the gap, which is m_h = {ops.m_h:.3e}"
        )
    block = _grad_dense(ops, _grad_dense(ops, right))
    block /= ops.m_h + sigma2
    sigma = np.sqrt(sigma2)
    return [sigma, sigma / (ops.m_h + sigma2), block, right]


def _secular_root(ops: OperatorSet, eps: float, gamma: float, pairs: list):
    """Newton's method on mu_min(S(lam)) from above, in delta = p - lam, to
    the root vector y; returns the lift of (y, b y / (c - lam),
    -C^T y / (2 gamma - lam)) and the number of eigensolves.  It takes the
    arrays of singular_pairs out of pairs, which it empties.  V, C^T and S
    are its only n_x^2 arrays: C^T and S are freed before the lift, V on
    return."""
    import scipy.linalg as sla

    sigma, t, c_t, right = pairs
    pairs.clear()
    c_t *= -eps / math.sqrt(2.0)
    a = eps * sigma * t
    b = eps * gamma / 2 * t
    b2 = b * b
    c1 = gamma - a  # c of the module docstring
    s = c_t.T @ c_t  # C C^T by syrk: exactly symmetric, and so is each S
    cct_norm = sla.norm(s, 1, check_finite=False)  # no n_x^2 finiteness mask
    pole = float(c1.min())
    # each pair's smaller eigenvalue is c1 - e, e^2 + (a - c1) e = b^2
    d = a - c1
    root = np.hypot(d, 2 * b)
    e = np.where(d > 0, 2 * b2 / (root + np.abs(d)), (root - d) / 2)
    delta = float(np.max(pole - c1 + e))
    for step in range(NEWTON_CAP):
        if step:  # C C^T is formed afresh, never kept beside S
            del s
            s = c_t.T @ c_t
        gap1 = (c1 - pole) + delta  # c1 - lam
        gap2 = (2.0 * gamma - pole) + delta  # 2 gamma - lam
        s *= -1.0 / gap2
        s[np.diag_indices_from(s)] += (a - pole) + delta - b2 / gap1
        floor = NEWTON_FLOOR * (
            cct_norm / gap2 + np.max(np.abs(a - pole) + delta + b2 / gap1))
        # S is symmetric, so its F-ordered view s.T is S: solved in place
        (mu,), w = sla.eigh(s.T, overwrite_a=True, check_finite=False,
                            subset_by_index=[0, 0])
        w = w[:, 0]
        z = c_t @ w
        if abs(mu) <= floor:
            del c_t, s  # the lift holds V alone
            return _lift(ops, right, w, b * w / (gap1 * sigma), -z / gap2), step + 1
        delta -= mu / (1.0 + (b2 / gap1**2) @ (w * w) + (z @ z) / gap2**2)
    raise NumericalError(
        f"secular Newton solve: |mu| = {abs(mu):.3e} is above its rounding "
        f"level {floor:.3e} after {NEWTON_CAP} steps"
    )


def _lift(ops: OperatorSet, right, y0, v1, x2) -> np.ndarray:
    """The mean-zero unit state with modes (V y0, U y1, x2), where
    U y1 = Grad (V v1) for v1 = y1 / sigma."""
    x = np.zeros((ops.n_x, ops.n_v))
    x[:, :3] = np.column_stack((right @ y0, ops.grad_x @ (right @ v1), x2))
    return ops.mean_zero_unit(x.ravel())


def bochner_residual(ops: OperatorSet, h_values: np.ndarray) -> float:
    """Discretization error of the integrated curvature identity for a
    position function h,

        ||L_o h||^2 - ||D^2 h||^2 - sum_i U''(x_i) |(D h)(x_i)|^2 w_i,

    with D the discrete gradient in orthonormalized coordinates.  It is
    reported, not judged: the discrete identity, with discrete_curvature in
    place of -U'', is exact and checked by check_structure.
    """
    grid = ops.grid
    hh = grid.sqrt_weights * np.asarray(h_values, dtype=float)
    g1 = ops.grad_x @ hh
    g2 = ops.grad_x @ g1
    lo_h = ops.lo_x @ hh
    d2u = eval_potential(grid.potential, grid.nodes)[2]
    return float(lo_h @ lo_h - g2 @ g2 - g1 @ (d2u * g1))
