"""Shared fixtures: assembled operator sets at the default desk resolution.

Session-scoped because assembly and the corrector solve are the expensive
parts; tests treat these objects as read-only.
"""
import numpy as np
import pytest

import hypolab as hl

DEFAULT_NX = 128
DEFAULT_NV = 20


def make_ops(potential, l_dom=None, n_x=DEFAULT_NX, n_v=DEFAULT_NV):
    model = hl.gibbs_model(potential)
    if l_dom is None:
        l_dom = hl.default_domain(potential)
    grid = hl.build_grid(model, l_dom, n_x)
    basis = hl.build_velocity_basis(n_v)
    ops = hl.assemble_operators(grid, basis)
    hl.poincare_constant(ops)
    return ops


@pytest.fixture(scope="session")
def ops_quad():
    return make_ops(hl.quadratic(1.0))


@pytest.fixture(scope="session")
def ops_dw():
    return make_ops(hl.double_well())


@pytest.fixture(scope="session")
def ops_cos():
    return make_ops(hl.cosine_bump(2.0))


@pytest.fixture(scope="session")
def ops_quad_small():
    return make_ops(hl.quadratic(1.0), n_x=64, n_v=12)


@pytest.fixture(scope="session")
def corr_quad(ops_quad):
    return hl.build_corrector(ops_quad)


@pytest.fixture(scope="session")
def corr_dw(ops_dw):
    return hl.build_corrector(ops_dw)


@pytest.fixture(scope="session")
def corr_quad_small(ops_quad_small):
    return hl.build_corrector(ops_quad_small)


@pytest.fixture(scope="session")
def cn_small(ops_quad_small):
    """The trapezoidal map at gamma = 4, dt = 0.02 on the 64x12 grid."""
    return hl.crank_nicolson(ops_quad_small, 4.0, 0.02)


@pytest.fixture(scope="session")
def tuned_quad(ops_quad):
    return hl.optimize_friction(ops_quad.m_h, 0.0)


@pytest.fixture(scope="session")
def quad_trace(ops_quad, corr_quad, tuned_quad):
    """One tuned full-length evolution of a random state, reused widely."""
    f0 = hl.initial_condition(ops_quad, "random", seed=2024)
    return hl.integrate(
        ops_quad,
        f0,
        hl.crank_nicolson(ops_quad, tuned_quad.gamma_star, 0.02),
        5.0 / tuned_quad.Lambda,
        corrector=corr_quad,
        eps=tuned_quad.eps_star,
        Lambda=tuned_quad.Lambda,
    )


def dissipation_form(functional):
    """Sparse symmetric Q with D(f) = f^T Q f, from the phase-space matrices
    A and L: the reference for the closed-form Hermite mode 0-2 block that
    the coercivity check solves, and for its exact gamma k tail."""
    A, L = functional.corrector.matrix, functional.L
    al = (A @ L).tocsr()
    atl = (A.T @ L).tocsr()
    q = -(L + L.T) / 2 + functional.eps * ((al + al.T) / 2 + (atl + atl.T) / 2)
    return q.tocsc()


def dissipation_block(corrector, eps, gamma):
    """Dense Hermite mode 0-2 block of Q in position-major order,
    block[k::3, l::3] = Q_kl (the blocks of the corrector module docstring):
    the reference for the blockwise apply and the secular solve."""
    b, g = corrector.block, corrector.ops.grad_x
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
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(ops.n)
    f = ops.project_mean_zero(f)
    return f / np.linalg.norm(f)
