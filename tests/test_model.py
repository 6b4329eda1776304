import numpy as np
import pytest

import hypolab as hl
from hypolab.errors import ConfigurationError, PreconditionError


def test_quadratic_values():
    U, dU, d2U = hl.eval_potential(hl.quadratic(1.0), 2.0)
    assert (U, dU, d2U) == (2.0, 2.0, 1.0)


def test_double_well_values():
    U, dU, d2U = hl.eval_potential(hl.double_well(), 1.0)
    assert (U, dU, d2U) == (0.0, 0.0, 2.0)


def test_cosine_bump_values():
    U, dU, d2U = hl.eval_potential(hl.cosine_bump(2.0), 0.0)
    assert (U, dU, d2U) == (2.0, 0.0, -1.0)


def test_vectorized_evaluation():
    x = np.linspace(-3, 3, 7)
    U, dU, d2U = hl.eval_potential(hl.double_well(2.0), x)
    assert U.shape == dU.shape == d2U.shape == x.shape
    np.testing.assert_allclose(dU, 2.0 * (x**3 - x))


@pytest.mark.parametrize(
    "pot,expected",
    [
        (hl.quadratic(3.0), 0.0),
        (hl.double_well(), 1.0),
        (hl.double_well(2.5), 2.5),
        (hl.cosine_bump(2.0), 1.0),
        (hl.cosine_bump(0.5), 0.0),
    ],
)
def test_hessian_lower_bound(pot, expected):
    assert hl.hessian_lower_bound(pot) == expected


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError):
        hl.Potential("septic_well")


@pytest.mark.parametrize(
    "kind,params",
    [("quadratic", (-1.0,)), ("quadratic", (0.0,)), ("double_well", (0.0,)),
     ("cosine_bump", (-0.5,))],
)
def test_bad_parameters_rejected(kind, params):
    with pytest.raises(ConfigurationError):
        hl.Potential(kind, params)


def test_non_finite_x_rejected():
    with pytest.raises(PreconditionError):
        hl.eval_potential(hl.quadratic(), np.inf)


def test_hessian_bound_holds_everywhere():
    # closed-form bounds: zero tolerance
    rng = np.random.default_rng(0)
    x = rng.uniform(-8.0, 8.0, size=10000)
    for pot in (hl.quadratic(1.0), hl.quadratic(2.0), hl.double_well(),
                hl.double_well(3.0), hl.cosine_bump(2.0), hl.cosine_bump(0.3)):
        K = hl.hessian_lower_bound(pot)
        d2U = hl.eval_potential(pot, x)[2]
        assert np.all(d2U >= -K)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(1)
    x = rng.uniform(-6.0, 6.0, size=256)
    s = 1e-4
    for pot in (hl.quadratic(1.5), hl.double_well(), hl.cosine_bump(2.0)):
        U, dU, d2U = hl.eval_potential(pot, x)
        Up = hl.eval_potential(pot, x + s)[0]
        Um = hl.eval_potential(pot, x - s)[0]
        fd1 = (Up - Um) / (2 * s)
        fd2 = (Up - 2 * U + Um) / s**2
        assert np.all(np.abs(fd1 - dU) <= 1e-6 * np.maximum(np.abs(dU), 1.0))
        assert np.all(np.abs(fd2 - d2U) <= 1e-6 * np.maximum(np.abs(d2U), 1.0))


def test_gibbs_model_fields():
    gm = hl.gibbs_model(hl.quadratic(2.0))
    assert gm.K == 0.0
    assert gm.analytic_m == 2.0
    assert hl.gibbs_model(hl.double_well()).analytic_m is None
    assert hl.gibbs_model(hl.double_well()).K == 1.0


def test_default_domains():
    assert hl.default_domain(hl.quadratic()) == 8.0
    assert hl.default_domain(hl.double_well()) == 4.0
    assert hl.default_domain(hl.cosine_bump()) == 8.0
