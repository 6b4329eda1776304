import numpy as np
import pytest

from hypolab import model
from hypolab.errors import ConfigurationError, PreconditionError


def test_quadratic_values():
    U, dU, d2U = model.eval_potential(model.quadratic(1.0), 2.0)
    assert (U, dU, d2U) == (2.0, 2.0, 1.0)


def test_double_well_values():
    U, dU, d2U = model.eval_potential(model.double_well(), 1.0)
    assert (U, dU, d2U) == (0.0, 0.0, 2.0)


def test_cosine_bump_values():
    U, dU, d2U = model.eval_potential(model.cosine_bump(2.0), 0.0)
    assert (U, dU, d2U) == (2.0, 0.0, -1.0)


def test_vectorized_evaluation():
    x = np.linspace(-3, 3, 7)
    U, dU, d2U = model.eval_potential(model.double_well(2.0), x)
    assert U.shape == dU.shape == d2U.shape == x.shape
    np.testing.assert_allclose(dU, 2.0 * (x**3 - x))


@pytest.mark.parametrize(
    "pot,expected",
    [
        (model.quadratic(3.0), 0.0),
        (model.double_well(), 1.0),
        (model.double_well(2.5), 2.5),
        (model.cosine_bump(2.0), 1.0),
        (model.cosine_bump(0.5), 0.0),
    ],
)
def test_hessian_lower_bound(pot, expected):
    assert pot.K == expected


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError):
        model.Potential("septic_well")


@pytest.mark.parametrize(
    "kind,params",
    [("quadratic", (-1.0,)), ("quadratic", (0.0,)), ("double_well", (0.0,)),
     ("cosine_bump", (-0.5,)), ("quadratic", (np.nan,)), ("double_well", (np.inf,)),
     ("cosine_bump", (np.inf,)), ("double_well", (1.0, 2.0))],
)
def test_bad_parameters_rejected(kind, params):
    with pytest.raises(ConfigurationError):
        model.Potential(kind, params)


def test_non_finite_x_rejected():
    with pytest.raises(PreconditionError):
        model.eval_potential(model.quadratic(), np.inf)


def test_hessian_bound_holds_everywhere():
    # closed-form bounds: zero tolerance
    rng = np.random.default_rng(0)
    x = rng.uniform(-8.0, 8.0, size=10000)
    for pot in (model.quadratic(1.0), model.quadratic(2.0), model.double_well(),
                model.double_well(3.0), model.cosine_bump(2.0), model.cosine_bump(0.3)):
        K = pot.K
        d2U = model.eval_potential(pot, x)[2]
        assert np.all(d2U >= -K)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(1)
    x = rng.uniform(-6.0, 6.0, size=256)
    s = 1e-4
    for pot in (model.quadratic(1.5), model.double_well(), model.cosine_bump(2.0)):
        U, dU, d2U = model.eval_potential(pot, x)
        Up = model.eval_potential(pot, x + s)[0]
        Um = model.eval_potential(pot, x - s)[0]
        fd1 = (Up - Um) / (2 * s)
        fd2 = (Up - 2 * U + Um) / s**2
        assert np.all(np.abs(fd1 - dU) <= 1e-6 * np.maximum(np.abs(dU), 1.0))
        assert np.all(np.abs(fd2 - d2U) <= 1e-6 * np.maximum(np.abs(d2U), 1.0))


def test_analytic_gap():
    # the quadratic's spectral gap is its curvature; the others have none
    assert model.quadratic(2.0).analytic_m == 2.0
    assert model.double_well().analytic_m is None
    assert model.cosine_bump(2.0).analytic_m is None


def test_default_domains():
    assert model.quadratic().domain == 8.0
    assert model.double_well().domain == 4.0
    assert model.cosine_bump().domain == 8.0
