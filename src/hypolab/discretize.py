"""Phase-space discretization: weighted grid, Hermite velocity basis, operators.

Coordinate convention.  States are stored in *orthonormalized* coordinates:
a function f(x, v) with Hermite coefficients F[i, k] at grid node i becomes the
vector (sqrt(w_i) * F[i, k]).ravel() (position index major), so the weighted
L^2(mu) inner product is the plain dot product and weighted adjoints are plain
transposes.  The constant function 1 is the unit vector sqrt(w) (x) e_0.

Operator factorization over kron(position, velocity), every factor sparse:

    Grad    = forward-difference gradient on the position factor, bidiagonal
              (stops at the last node; kills the constant exactly)
    L_o     = -Grad^T Grad     (tridiagonal, self-adjoint, <= 0, simple kernel)
    L_a     = kron(Grad, raise) - kron(Grad^T, lower),   raise = lower^T
    L_s     = -N, N the number vector: k on Hermite mode k, at every node

The ladder form of L_a discretizes v d_x - U'(x) d_v through
v = lower + raise, d_v = lower, d_x ~ Grad, d_x^* ~ Grad^T.  It is
antisymmetric by structure, annihilates constants exactly (mean conservation
to machine precision), and closes the operator algebra used by the dissipation
estimates.  With Pi_v the projection on Hermite mode 0, L_a Pi_v is la's
mode-0 columns, kron(Grad, e_1) on the position vector h of mode 0, so

    Pi_v L_a Pi_v = 0                         la has no mode-0 -> mode-0 block
    L_a (L_a Pi_v) = sqrt(2) Grad^2 (x) e_2 + L_o (x) e_0

(the mode-0 part, with L_a antisymmetric, is the lifted Dirichlet identity
(L_a Pi_v)^T (L_a Pi_v) = -L_o), and on the range of Grad (all entries but
the last) Grad^T Grad - Grad Grad^T = diag(discrete_curvature), so the
discrete Bochner inequality ||Grad^2 h||^2 <= ||L_o h||^2 + K ||Grad h||^2
holds for every h exactly when max c <= K.  check_structure asserts these
identities on the assembled matrices; the phase-space L_o, L_s and Pi_v are
never assembled.

The grid, the bands of Grad and -L_o and the gap m_h need numpy alone, so a
run that needs only m_h (the gap, the tuning, the sampler at gamma*) never
loads scipy: scipy.sparse is imported inside the functions that assemble or
check the sparse operators.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (DegenerateGapError, DomainTooSmallError, PreconditionError,
                     WeightUnderflowError)
from .model import Potential, potential_value

if TYPE_CHECKING:
    import scipy.sparse as sp

CONFINEMENT_MARGIN = 10.0


@dataclass
class WeightedGrid:
    """Uniform nodes on [-L, L] with normalized Gibbs weights."""

    potential: Potential
    n_x: int
    nodes: np.ndarray
    spacing: float
    weights: np.ndarray
    sqrt_weights: np.ndarray


def build_grid(potential: Potential, half_width: float, n_x: int) -> WeightedGrid:
    """Build the weighted position grid; checks confinement and weight floor."""
    nodes = np.linspace(-half_width, half_width, n_x)
    U = potential_value(potential, nodes)
    if not np.all(np.isfinite(U)):
        raise PreconditionError(f"U is not finite on [-{half_width}, {half_width}]")
    u_min = U.min()
    if min(U[0], U[-1]) - u_min < CONFINEMENT_MARGIN:
        raise DomainTooSmallError(
            f"U(+-{half_width}) - min U = {min(U[0], U[-1]) - u_min:.3f} < "
            f"{CONFINEMENT_MARGIN}; enlarge the domain"
        )
    w = np.exp(-(U - u_min))
    w = w / w.sum()  # a sum >= 1: the weight at the minimum of U is exp(0)
    if np.any(w == 0.0):
        raise WeightUnderflowError(
            "Gibbs weights underflow to zero near the boundary; "
            "reduce grid half_width"
        )
    return WeightedGrid(
        potential=potential,
        n_x=n_x,
        nodes=nodes,
        spacing=nodes[1] - nodes[0],
        weights=w,
        sqrt_weights=np.sqrt(w),
    )


def build_velocity_basis(n_v: int) -> sp.csr_matrix:
    """The truncated Hermite lowering matrix, n_v x n_v: one CSR
    superdiagonal that maps mode k to sqrt(k) * mode (k-1) (the derivative
    d/dv); its transpose raises."""
    import scipy.sparse as sp

    return sp.diags(np.sqrt(np.arange(1, n_v, dtype=float)), 1, format="csr")


def grad_bands(grid: WeightedGrid) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and superdiagonal of Grad in orthonormalized coordinates:
    -1/h, and sqrt(w_i / w_{i+1}) / h; the last row is zero (the gradient
    stops at the last node)."""
    h, sq = grid.spacing, grid.sqrt_weights
    return np.r_[np.full(grid.n_x - 1, -1.0 / h), 0.0], sq[:-1] / sq[1:] / h


def lo_bands(grid: WeightedGrid) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and superdiagonal of -L_o = Grad^T Grad, which is tridiagonal
    because Grad is bidiagonal: the one formula of -L_o, which lo_x, the gap
    and every position solve read.  Each entry is one product of Grad's
    bands or a sum of two, so it has the bits of the sparse product."""
    d0, d1 = grad_bands(grid)
    return np.r_[0.0, d1 * d1] + d0 * d0, d0[:-1] * d1


def poincare_constant(grid: WeightedGrid) -> float:
    """m_h, the smallest nonzero eigenvalue of -L_o on the position grid.

    numpy's dense symmetric eigensolve of the n_x x n_x matrix with
    lo_bands on its three diagonals.  Its bits are those of scipy's
    tridiagonal eigensolve of the bands: LAPACK's Householder
    tridiagonalization (dsytrd) leaves a tridiagonal matrix as it is, since
    every reflector it would form has a zero vector to annihilate, and both
    paths then end in the same root-free QR (dsterf).  The dense solve costs
    O(n_x^3) time and, for a moment, 16 n_x^2 bytes (the array and numpy's
    copy of it) where the tridiagonal one takes O(n_x^2), but it needs numpy
    alone:

        n_x                     128     512     1024    2048
        dense eigvalsh          0.6     15      103     788   ms
        scipy tridiagonal       0.3     4.6     18      66    ms

    (best of 2-50 calls, double_well, 2-core x86-64 Linux, numpy 2.4 and
    scipy 1.17 on one OpenBLAS thread).  It is value-only on purpose: an
    eigenvector variant moves m_h in the last digits.
    """
    diag, upper = lo_bands(grid)
    n = grid.n_x
    dense = np.zeros((n, n))
    dense.flat[::n + 1] = diag
    dense.flat[1::n + 1] = upper
    dense.flat[n::n + 1] = upper
    m_h = float(np.linalg.eigvalsh(dense)[1])
    if m_h < 1e-10:
        raise DegenerateGapError(
            f"second eigenvalue of -L_o is {m_h:.3e}; grid or domain degenerate"
        )
    return m_h


@dataclass
class OperatorSet:
    """The discretized operators the run uses, plus the discrete gap m_h.

    Every matrix is sparse CSR: the position factors grad_x (bidiagonal)
    and lo_x = -Grad_x^T Grad_x (tridiagonal, negative semidefinite,
    matching the sign of the overdamped generator), which stands for L_o on
    mode 0, and the phase-space la; n_v is the number of Hermite modes.
    """

    grid: WeightedGrid
    n_v: int
    grad_x: sp.csr_matrix
    lo_x: sp.csr_matrix
    la: sp.csr_matrix
    const_vec: np.ndarray
    m_h: float

    @property
    def n_x(self) -> int:
        return self.grid.n_x

    @property
    def n(self) -> int:
        return self.n_x * self.n_v

    def mean(self, f: np.ndarray) -> float:
        """Weighted mean <1, f>_mu in orthonormalized coordinates."""
        return float(self.const_vec @ f)

    def project_mean_zero(self, f: np.ndarray) -> np.ndarray:
        """Apply P_0, removing the mu-mean component."""
        return f - self.const_vec * (self.const_vec @ f)

    def mean_zero_unit(self, f: np.ndarray) -> np.ndarray:
        """P_0 f / ||P_0 f||, the state every check starts from."""
        f = self.project_mean_zero(f)
        return f / np.linalg.norm(f)


def assemble_operators(grid: WeightedGrid, lowering: sp.csr_matrix,
                       m_h: float) -> OperatorSet:
    """The operator set on grid x the Hermite modes of lowering (from
    build_velocity_basis), with the grid's gap m_h from poincare_constant."""
    import scipy.sparse as sp

    n_x, n_v = grid.n_x, lowering.shape[0]
    # the last row is empty (stops at the last node): CSR drops its 0.0
    grad_x = sp.diags(grad_bands(grid), [0, 1], format="csr")
    diag, upper = lo_bands(grid)
    lo_x = sp.diags([-upper, -diag, -upper], [-1, 0, 1], format="csr")

    la = (sp.kron(grad_x, lowering.T) - sp.kron(grad_x.T, lowering)).tocsr()

    const = np.zeros((n_x, n_v))
    const[:, 0] = grid.sqrt_weights

    return OperatorSet(
        grid=grid,
        n_v=n_v,
        grad_x=grad_x,
        lo_x=lo_x,
        la=la,
        const_vec=const.ravel(),
        m_h=m_h,
    )


def compose_generator(ops: OperatorSet, gamma: float) -> sp.csr_matrix:
    """L = L_a + gamma L_s = L_a - gamma N, with the number vector N (k on
    mode k, at every node) on the diagonal, which la leaves empty."""
    import scipy.sparse as sp

    number = np.tile(np.arange(ops.n_v, dtype=float), ops.n_x)
    return ops.la - sp.diags(gamma * number, format="csr")


def bochner_test_suite(grid: WeightedGrid) -> dict:
    """Pure-position test functions sampled on the grid, for bochner_residual."""
    x = grid.nodes
    return {
        "one": np.ones_like(x),
        "hermite1": x,
        "hermite2": x**2,
        "gauss_bump": np.exp(-(x**2) / 2),
        "sine": np.sin(x),
        "tanh": np.tanh(x),  # its gradient peaks where a double well's U'' < 0
    }


def discrete_curvature(grid: WeightedGrid) -> np.ndarray:
    """c_i = (w_{i-1}/w_i - w_i/w_{i+1}) / h^2 for i < n_x - 1, w_{-1} = 0:
    the diagonal of Grad^T Grad - Grad Grad^T on the range of Grad.  It is
    about -U''(x_i), so max c is the grid's K_h."""
    w = grid.weights
    return (np.r_[0.0, w[:-2] / w[1:-1]] - w[:-1] / w[1:]) / grid.spacing**2


def check_structure(ops: OperatorSet) -> dict:
    """Residuals of the operator identities the later computations assume, on
    the assembled matrices, as the {"exact"} report section; the caller
    judges them: la's antisymmetry (the band LU's pivot-free argument and the
    Lyapunov identity use it), its mode-0 -> mode-0 block Pi_v L_a Pi_v (zero
    in the corrector algebra), L_a 1 = 0 (N kills mode 0, so L_s 1 = 0
    exactly), la_square, L_a (L_a Pi_v) against sqrt(2) Grad^2 (x) e_2 +
    L_o (x) e_0 over that matrix's largest entry, and bochner_identity, (Grad^T Grad - Grad Grad^T) on the range of Grad
    against diag(discrete_curvature) over max |L_o|.
    """
    import scipy.sparse as sp

    la, n_v, g = ops.la, ops.n_v, ops.grad_x
    la0 = la[:, ::n_v]  # L_a Pi_v as a map from mode 0's position vector
    square = (sp.kron(np.sqrt(2.0) * (g @ g), sp.eye(n_v, 1, k=-2))
              + sp.kron(ops.lo_x, sp.eye(n_v, 1))).tocsr()
    commutator = (g.T @ g - g @ g.T)[:-1, :-1]
    return {"exact": {
        "la_antisymmetry": _spmax(la + la.T),
        "average_sandwich_zero": _spmax(la[::n_v, ::n_v]),
        "generator_kills_constants": float(np.abs(la @ ops.const_vec).max()),
        "la_square": _spmax(la @ la0 - square) / _spmax(square),
        "bochner_identity": _spmax(commutator - sp.diags(discrete_curvature(ops.grid)))
        / _spmax(ops.lo_x),
    }}


def _spmax(matrix: sp.spmatrix) -> float:
    m = abs(matrix)
    return float(m.max()) if m.nnz else 0.0
