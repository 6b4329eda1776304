"""Shared fixtures: assembled operator sets at the default desk resolution.

Session-scoped because assembly and the corrector solve are the expensive
parts; tests treat these objects as read-only.
"""
import numpy as np
import pytest
import scipy.sparse as sp

from hypolab import corrector as corrector_module
from hypolab import discretize, evolve, model, tuning

DEFAULT_NX = 128
DEFAULT_NV = 20


def make_ops(potential, l_dom=None, n_x=DEFAULT_NX, n_v=DEFAULT_NV):
    if l_dom is None:
        l_dom = potential.domain
    grid = discretize.build_grid(potential, l_dom, n_x)
    lowering = discretize.build_velocity_basis(n_v)
    return discretize.assemble_operators(grid, lowering, discretize.poincare_constant(grid))


@pytest.fixture(scope="session")
def ops_quad():
    return make_ops(model.quadratic(1.0))


@pytest.fixture(scope="session")
def ops_dw():
    return make_ops(model.double_well())


@pytest.fixture(scope="session")
def ops_cos():
    return make_ops(model.cosine_bump(2.0))


@pytest.fixture(scope="session")
def ops_quad_small():
    return make_ops(model.quadratic(1.0), n_x=64, n_v=12)


@pytest.fixture(scope="session")
def corr_quad(ops_quad):
    return corrector_module.build_corrector(ops_quad)


@pytest.fixture(scope="session")
def corr_dw(ops_dw):
    return corrector_module.build_corrector(ops_dw)


@pytest.fixture(scope="session")
def corr_quad_small(ops_quad_small):
    return corrector_module.build_corrector(ops_quad_small)


@pytest.fixture(scope="session")
def cn_small(ops_quad_small):
    """The trapezoidal map at gamma = 4, dt = 0.02 on the 64x12 grid."""
    return evolve.crank_nicolson(ops_quad_small, 4.0, 0.02)


@pytest.fixture(scope="session")
def tuned_quad(ops_quad):
    return tuning.optimize_friction(ops_quad.m_h, 0.0)


@pytest.fixture(scope="session")
def quad_trace(ops_quad, corr_quad, tuned_quad):
    """One tuned full-length evolution of a random state, reused widely."""
    f0 = evolve.initial_condition(ops_quad, "random", seed=2024)
    return evolve.integrate(
        ops_quad,
        f0,
        evolve.crank_nicolson(ops_quad, tuned_quad.gamma_star, 0.02),
        5.0 / tuned_quad.Lambda,
        corrector=corr_quad,
        eps=tuned_quad.eps_star,
        Lambda=tuned_quad.Lambda,
    )


def mp_gap_vector(grid, dps=60):
    """Unit gap eigenvector of Grad^T Grad, formed in mpmath at dps digits
    from the floats of grad_bands, without the program's m_h: Sturm bisection
    for the second eigenvalue, then the twisted factorization of
    Grad^T Grad - lambda I at it (Dhillon and Parlett), whose twist index
    minimizes the residual.  Products of doubles are exact at 60 digits, so
    the matrix is the one the floats define."""
    import mpmath as mp

    with mp.workdps(dps):
        d0, d1 = ([mp.mpf(e) for e in band] for band in discretize.grad_bands(grid))
        n = len(d0)
        diag = [d0[i] ** 2 + (d1[i - 1] ** 2 if i else 0) for i in range(n)]
        off = [d0[i] * d1[i] for i in range(n - 1)]

        def pivots(a, b, tau):
            """Pivots of the LDL^T of T - tau I, T tridiagonal (a, b)."""
            q = [a[0] - tau]
            for i in range(1, len(a)):
                q.append(a[i] - tau - b[i - 1] ** 2 / q[-1])
            return q

        # as many pivots are negative as eigenvalues lie below tau (Sylvester);
        # the trace bounds every eigenvalue of a semidefinite matrix
        lo, hi = mp.mpf(0), mp.fsum(diag)
        while hi - lo > lo * mp.mpf(10) ** (10 - dps):
            mid = (lo + hi) / 2
            if sum(q < 0 for q in pivots(diag, off, mid)) >= 2:
                hi = mid
            else:
                lo = mid
        lam = (lo + hi) / 2
        down = pivots(diag, off, lam)
        up = pivots(diag[::-1], off[::-1], lam)[::-1]
        twist = min(range(n), key=lambda r: abs(down[r] + up[r] - (diag[r] - lam)))
        vec = [mp.mpf(0)] * n
        vec[twist] = mp.mpf(1)
        for i in range(twist - 1, -1, -1):
            vec[i] = -off[i] * vec[i + 1] / down[i]
        for i in range(twist + 1, n):
            vec[i] = -off[i - 1] * vec[i - 1] / up[i]
        norm = mp.sqrt(mp.fsum(v * v for v in vec))
        return np.array([float(v / norm) for v in vec])


def phase_lo(ops):
    """L_o (x) I on the phase space, from the position factor lo_x.  The
    program never assembles it: it is the tests' phase-space reference."""
    return sp.kron(sp.csr_matrix(ops.lo_x), sp.identity(ops.n_v), format="csr")


def phase_ls(ops):
    """L_s = I (x) (-N), N = diag(0, 1, ..., n_v - 1) the Hermite number
    operator.  The program never assembles it: compose_generator subtracts
    gamma N from la's diagonal."""
    number = sp.diags(np.arange(ops.n_v, dtype=float))
    return sp.kron(sp.identity(ops.n_x), -number, format="csr")


def phase_pi_v(ops):
    """Pi_v = I (x) e_0 e_0^T, the projection on Hermite mode 0 (the velocity
    average); the program zeroes mode 0's entries instead."""
    e00 = sp.csr_matrix(([1.0], ([0], [0])), shape=(ops.n_v, ops.n_v))
    return sp.kron(sp.identity(ops.n_x), e00, format="csr")


def lift_position(ops, values):
    """Orthonormalized phase-space state of a pure-position function."""
    state = np.zeros((ops.n_x, ops.n_v))
    state[:, 0] = ops.grid.sqrt_weights * np.asarray(values, dtype=float)
    return state.ravel()


def spmax(matrix):
    """Largest absolute entry of a sparse matrix (0 when it has none)."""
    m = abs(matrix)
    return float(m.max()) if m.nnz else 0.0


def phase_identities(ops):
    """Residuals of the assembly identities that hold by construction, on
    phase_lo, phase_ls and phase_pi_v: symmetry and projector algebra, the
    transport average adjoint (L_a Pi_v)^T = -Pi_v L_a, the sandwich
    Pi_v L_a Pi_v = 0, ker L_s = ran Pi_v with rate >= 1 on every other mode,
    and the Gaussian velocity Poincare inequality, which is k >= 1 on Hermite
    modes k >= 1."""
    la, ls, lo, pi = ops.la, phase_ls(ops), phase_lo(ops), phase_pi_v(ops)
    k = np.arange(ops.n_v, dtype=float)
    fast_rates = -ls.diagonal()[np.tile(k >= 1, ops.n_x)]
    return {
        "ls_symmetry": spmax(ls - ls.T),
        "lo_symmetry": spmax(lo - lo.T),
        "pi_idempotent": spmax(pi @ pi - pi),
        "pi_symmetric": spmax(pi - pi.T),
        "pi_commutes_lo": spmax(pi @ lo - lo @ pi),
        "transport_average_adjoint": spmax((la @ pi).T + pi @ la),
        "average_sandwich_zero": spmax(pi @ la @ pi),
        "ls_kernel_is_ran_pi": spmax(ls @ pi),
        "ls_gap_on_fast_modes": float(max(0.0, 1.0 - fast_rates.min())),
        "velocity_poincare": float(max(0.0, np.max((k >= 1) * 1.0 - k))),
    }


def dissipation_form(functional):
    """Sparse symmetric Q with D(f) = f^T Q f, from the phase-space matrices
    A and L: the reference for ModifiedFunctional.apply_form, for the
    closed-form Hermite mode 0-2 block that the coercivity check solves, and
    for its exact gamma k tail."""
    A, L = functional.corrector.matrix, functional.L
    al = (A @ L).tocsr()
    atl = (A.T @ L).tocsr()
    q = -(L + L.T) / 2 + functional.eps * ((al + al.T) / 2 + (atl + atl.T) / 2)
    return q.tocsc()


def dense_block(corrector):
    """The dense position block B = (m_h - L_o)^{-1} Grad^T, read off the
    phase-space A = kron(B, e_0 e_1^T) that Corrector.matrix assembles: the
    reference for the corrector's factor path and its closed forms."""
    n_v = corrector.ops.n_v
    return corrector.matrix[::n_v, 1::n_v].toarray()


def dissipation_block(corrector, eps, gamma):
    """Dense Hermite mode 0-2 block of Q in position-major order,
    block[k::3, l::3] = Q_kl (the blocks of the corrector module docstring):
    the reference for the secular solve."""
    b, g = dense_block(corrector), corrector.ops.grad_x
    n_x = len(b)
    eye = np.eye(n_x)
    bg = b @ g
    gb = g @ b
    block = np.zeros((3 * n_x, 3 * n_x))
    block[::3, ::3] = (eps / 2) * (bg + bg.T)
    block[::3, 1::3] = -(eps * gamma / 2) * b
    block[::3, 2::3] = -(eps / np.sqrt(2.0)) * (b @ g.T)
    block[1::3, 1::3] = gamma * eye - (eps / 2) * (gb + gb.T)  # B^T G^T = (G B)^T
    block[2::3, 2::3] = 2.0 * gamma * eye
    block[1::3, ::3] = block[::3, 1::3].T
    block[2::3, ::3] = block[::3, 2::3].T
    return block


def random_mean_zero(ops, seed):
    return evolve.initial_condition(ops, "random", seed)
