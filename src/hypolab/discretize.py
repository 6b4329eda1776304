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
    L_s     = -number operator            (diagonal, entry -k on Hermite mode k)
    L_a     = kron(Grad, raise) - kron(Grad^T, lower)

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
identities on the assembled matrices; the phase-space L_o and Pi_v are never
assembled.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import (DegenerateGapError, DomainTooSmallError, PreconditionError,
                     WeightUnderflowError)
from .model import Potential, potential_value

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
        potential=potential,
        n_x=n_x,
        nodes=nodes,
        spacing=nodes[1] - nodes[0],
        weights=w,
        sqrt_weights=np.sqrt(w),
    )


@dataclass
class HermiteBasis:
    """Truncated Hermite ladder data in velocity.

    lowering, one CSR superdiagonal, maps mode k to sqrt(k) * mode (k-1)
    (the derivative d/dv); its transpose raises; eigenvalues k of the number
    operator lowering.T @ lowering.
    """

    n_v: int
    eigenvalues: np.ndarray
    lowering: sp.csr_matrix


def build_velocity_basis(n_v: int) -> HermiteBasis:
    k = np.arange(n_v, dtype=float)
    return HermiteBasis(n_v=n_v, eigenvalues=k,
                        lowering=sp.diags(np.sqrt(k[1:]), 1, format="csr"))


@dataclass
class OperatorSet:
    """The discretized operators the run uses, plus the discrete gap.

    Every matrix is sparse CSR: the position factors grad_x (bidiagonal)
    and lo_x = -Grad_x^T Grad_x (tridiagonal, negative semidefinite,
    matching the sign of the overdamped generator), which stands for L_o on
    mode 0, and the phase-space la and ls, the two parts of the generator.
    m_h is filled by poincare_constant.
    """

    grid: WeightedGrid
    basis: HermiteBasis
    n: int
    grad_x: sp.csr_matrix
    lo_x: sp.csr_matrix
    la: sp.csr_matrix
    ls: sp.csr_matrix
    const_vec: np.ndarray
    m_h: float | None = field(default=None)

    @property
    def n_x(self) -> int:
        return self.grid.n_x

    @property
    def n_v(self) -> int:
        return self.basis.n_v

    @property
    def lo_bands(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and superdiagonal of -L_o = Grad^T Grad, which is
        tridiagonal because Grad is bidiagonal: what its solves read."""
        return -self.lo_x.diagonal(), -self.lo_x.diagonal(1)

    def mean(self, f: np.ndarray) -> float:
        """Weighted mean <1, f>_mu in orthonormalized coordinates."""
        return float(self.const_vec @ f)

    def project_mean_zero(self, f: np.ndarray) -> np.ndarray:
        """Apply P_0, removing the mu-mean component."""
        return f - self.const_vec * (self.const_vec @ f)


def assemble_operators(grid: WeightedGrid, basis: HermiteBasis) -> OperatorSet:
    n_x, n_v = grid.n_x, basis.n_v
    h, sq = grid.spacing, grid.sqrt_weights

    # the last row is empty (stops at the last node): CSR drops its 0.0
    grad_x = sp.diags([np.r_[np.full(n_x - 1, -1.0 / h), 0.0], sq[:-1] / sq[1:] / h],
                      [0, 1], format="csr")
    # each entry is one product or a sum of two: symmetric exactly as built
    lo_x = -(grad_x.T @ grad_x).tocsr()

    low = basis.lowering
    la = (sp.kron(grad_x, low.T) - sp.kron(grad_x.T, low)).tocsr()
    ls = sp.kron(sp.identity(n_x), sp.diags(-basis.eigenvalues), format="csr")

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
        const_vec=const.ravel(),
    )


def poincare_constant(ops: OperatorSet) -> float:
    """Smallest nonzero eigenvalue of -L_o on the position factor; stores the
    result into ops.m_h.

    A tridiagonal eigensolve of ops.lo_bands: O(n_x^2) instead of a dense
    O(n_x^3) solve, to the same digits.  It is value-only on purpose: the
    eigenvector variant moves m_h in the last digits.
    """
    ev = sla.eigvalsh_tridiagonal(*ops.lo_bands)
    if ev[1] < 1e-10:
        raise DegenerateGapError(
            f"second eigenvalue of -L_o is {ev[1]:.3e}; grid or domain degenerate"
        )
    ops.m_h = float(ev[1])
    return ops.m_h


def compose_generator(ops: OperatorSet, gamma: float) -> sp.csr_matrix:
    """L = L_a + gamma * L_s."""
    return (ops.la + gamma * ops.ls).tocsr()


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
    in the corrector algebra), L 1 = 0, la_square, L_a (L_a Pi_v) against
    sqrt(2) Grad^2 (x) e_2 + L_o (x) e_0 over that matrix's largest entry, and
    bochner_identity, (Grad^T Grad - Grad Grad^T) on the range of Grad
    against diag(discrete_curvature) over max |L_o|.
    """
    la, n_v, g = ops.la, ops.n_v, ops.grad_x
    la0 = la[:, ::n_v]  # L_a Pi_v as a map from mode 0's position vector
    square = (sp.kron(np.sqrt(2.0) * (g @ g), sp.eye(n_v, 1, k=-2))
              + sp.kron(ops.lo_x, sp.eye(n_v, 1))).tocsr()
    commutator = (g.T @ g - g @ g.T)[:-1, :-1]
    return {"exact": {
        "la_antisymmetry": _spmax(la + la.T),
        "average_sandwich_zero": _spmax(la[::n_v, ::n_v]),
        "generator_kills_constants": float(
            np.abs(la @ ops.const_vec).max() + np.abs(ops.ls @ ops.const_vec).max()
        ),
        "la_square": _spmax(la @ la0 - square) / _spmax(square),
        "bochner_identity": _spmax(commutator - sp.diags(discrete_curvature(ops.grid)))
        / _spmax(ops.lo_x),
    }}


def _spmax(matrix: sp.spmatrix) -> float:
    m = abs(matrix)
    return float(m.max()) if m.nnz else 0.0
