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
def tuned_quad(ops_quad):
    return hl.optimize_friction(ops_quad.m_h, 0.0)


@pytest.fixture(scope="session")
def quad_trace(ops_quad, corr_quad, tuned_quad):
    """One tuned full-length evolution of a random state, reused widely."""
    f0 = hl.initial_condition(ops_quad, "random", seed=2024)
    return hl.integrate(
        ops_quad,
        f0,
        tuned_quad.gamma_star,
        5.0 / tuned_quad.Lambda,
        0.02,
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


def random_mean_zero(ops, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(ops.n)
    f = ops.project_mean_zero(f)
    return f / np.linalg.norm(f)
