import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypolab import tuning

positive_m = st.floats(min_value=1e-3, max_value=1e3)
nonneg_k = st.floats(min_value=0.0, max_value=1e3)


class TestDissipationMatrix:
    def test_worked_example(self):
        # gamma=4, eps=1/(2+sqrt(2)), m=1, K=0: eps*zeta = 1 exactly
        eps = 1.0 / (2.0 + math.sqrt(2.0))
        M, det, trace, admissible = tuning.dissipation_matrix(4.0, eps, 1.0, 0.0)
        assert M[0, 0] == pytest.approx(3.707107, abs=1e-6)
        assert M[0, 1] == pytest.approx(-0.5, abs=1e-12)
        assert M[1, 1] == pytest.approx(0.146447, abs=1e-6)
        assert det == pytest.approx(0.292893, abs=1e-6)
        assert admissible

    def test_boundary_eps_not_admissible(self):
        m, K, gamma = 1.0, 0.0, 4.0
        zeta = gamma / 2 + math.sqrt(2.0)
        eps = 2 * gamma / (2 + zeta**2)
        M, det, trace, admissible = tuning.dissipation_matrix(gamma, eps, m, K)
        assert not admissible
        assert abs(det) <= 1e-12

    def test_small_eps_limit(self):
        M, det, trace, admissible = tuning.dissipation_matrix(4.0, 1e-12, 1.0, 0.0)
        assert M[0, 0] == pytest.approx(4.0, rel=1e-9)
        assert abs(det) <= 1e-11
        assert admissible

    @given(
        gamma=st.floats(min_value=1e-2, max_value=1e2),
        frac=st.floats(min_value=1e-3, max_value=0.999),
        m=positive_m,
        K=nonneg_k,
    )
    @settings(max_examples=100, deadline=None)
    def test_sylvester_iff_positive_definite(self, gamma, frac, m, K):
        zeta = gamma / (2 * math.sqrt(m)) + math.sqrt(2 + K / (2 * m))
        eps = frac * 2 * gamma / (2 + zeta**2)
        M, det, trace, admissible = tuning.dissipation_matrix(gamma, eps, m, K)
        eigs = np.linalg.eigvalsh(M)
        assert admissible == bool(eigs[0] > 0)
        if admissible:
            assert eigs[0] >= det / trace - 1e-12 * max(1.0, abs(det / trace))


class TestOptimizeFriction:
    def test_convex_unit_gap(self):
        res = tuning.optimize_friction(1.0, 0.0)
        assert res.gamma_star == pytest.approx(4.0, abs=1e-12)
        assert res.x_star == pytest.approx(2.0, abs=1e-12)
        assert res.eps_star == pytest.approx(1.0 / (2.0 + math.sqrt(2.0)), abs=1e-12)

    @pytest.mark.parametrize(
        "m, K", [(1.0, 0.0), (1.0, 1.0), (0.3, 8.0), (4.0, 0.5), (2.0, 50.0)]
    )
    def test_x_star_maximizes_phi(self, m, K):
        # Phi(x) = x / (2 ((x + sqrt(2 + K/2m))^2 + 2)), written out apart
        # from the closed form x_star = sqrt(4 + K/2m) it must maximize
        x_star = tuning.optimize_friction(m, K).x_star
        xs = np.linspace(0.0, 10.0 * x_star, 100001)
        phi = xs / (2 * ((xs + math.sqrt(2 + K / (2 * m))) ** 2 + 2))
        assert abs(xs[np.argmax(phi)] - x_star) <= xs[1] - xs[0]

    def test_nonconvex_shift(self):
        res = tuning.optimize_friction(1.0, 8.0)
        assert res.gamma_star == pytest.approx(math.sqrt(32.0), abs=1e-12)

    def test_sqrt_m_scaling_of_convex_formulas(self):
        res = tuning.optimize_friction(4.0, 0.0)
        assert res.gamma_star == pytest.approx(8.0, abs=1e-12)
        assert res.eps_star == pytest.approx(2.0 / (2.0 + math.sqrt(2.0)), abs=1e-12)

    @given(m=positive_m, K=nonneg_k)
    @settings(max_examples=100, deadline=None)
    def test_eps_star_closed_form(self, m, K):
        # independent simplification: eps* = sqrt(m)/(sqrt(4+k)+sqrt(2+k))
        res = tuning.optimize_friction(m, K)
        kappa = K / (2 * m)
        direct = math.sqrt(m) / (math.sqrt(4 + kappa) + math.sqrt(2 + kappa))
        assert res.eps_star == pytest.approx(direct, rel=1e-12)
        assert res.eps_star <= math.sqrt(m) / 2 * (1 + 1e-12)

    @given(m=positive_m, K=nonneg_k)
    @settings(max_examples=100, deadline=None)
    def test_eps_ordering(self, m, K):
        res = tuning.optimize_friction(m, K)
        assert 0 < res.eps_star < res.eps_max < 2 * res.gamma_star / res.a


class TestRate:
    def test_convex_constants(self):
        lam, Lam, pref = tuning.rate(1.0, 0.0)
        assert Lam == pytest.approx((2.0 - math.sqrt(2.0)) / 12.0, abs=1e-12)
        assert lam == pytest.approx((2.0 - math.sqrt(2.0)) / 8.0, abs=1e-12)
        assert pref == pytest.approx(math.sqrt(3.0), abs=1e-15)

    def test_nonconvex_example(self):
        lam, Lam, _ = tuning.rate(1.0, 2.0)
        direct = 1.0 / (4.0 * (math.sqrt(3.0) + math.sqrt(5.0)))
        assert lam == pytest.approx(direct, abs=1e-12)
        assert Lam == pytest.approx(2.0 * direct / 3.0, abs=1e-12)

    @given(m=positive_m, K=nonneg_k)
    @settings(max_examples=100, deadline=None)
    def test_lambda_is_two_thirds_coercivity(self, m, K):
        lam, Lam, _ = tuning.rate(m, K)
        assert Lam == 2.0 * lam / 3.0

    @given(m=positive_m, K=nonneg_k, c=st.sampled_from([0.25, 4.0]))
    @settings(max_examples=100, deadline=None)
    def test_joint_scaling_law(self, m, K, c):
        base = tuning.optimize_friction(m, K)
        scaled = tuning.optimize_friction(c * m, c * K)
        root = math.sqrt(c)
        assert scaled.gamma_star == pytest.approx(root * base.gamma_star, rel=1e-12)
        assert scaled.Lambda == pytest.approx(root * base.Lambda, rel=1e-12)
        assert scaled.eps_star == pytest.approx(root * base.eps_star, rel=1e-12)

    def test_rate_nonincreasing_in_k(self):
        rates = [tuning.rate(1.0, K)[1] for K in np.linspace(0.0, 20.0, 41)]
        assert all(a >= b - 1e-15 for a, b in zip(rates, rates[1:]))


class TestRatioConsistency:
    def test_convex_chain_values(self):
        chain = tuning.check_ratio_consistency(tuning.optimize_friction(1.0, 0.0))
        assert chain["det_over_trace"] == pytest.approx(0.0760062, abs=1e-6)
        assert chain["lambda_coer"] == pytest.approx(0.0732233, abs=1e-6)
        assert chain["chain_holds"]

    @given(m=positive_m, K=nonneg_k)
    @settings(max_examples=100, deadline=None)
    def test_chain_holds_generically(self, m, K):
        chain = tuning.check_ratio_consistency(tuning.optimize_friction(m, K))
        assert chain["admissible"]
        assert chain["chain_holds"]


class TestHighPrecisionOracle:
    @pytest.mark.parametrize("m,K", [(1.0, 0.0), (1.0, 2.0), (0.7917922360, 1.0),
                                     (0.2039779318, 1.0), (25.0, 3.0)])
    def test_pipeline_against_mpmath(self, m, K):
        # independent 50-digit evaluation of the same closed forms
        import mpmath as mp

        mp.mp.dps = 50
        mm, kk = mp.mpf(m), mp.mpf(K)
        kappa = kk / (2 * mm)
        gamma_star = mp.sqrt(16 * mm + 2 * kk)
        zeta = gamma_star / (2 * mp.sqrt(mm)) + mp.sqrt(2 + kappa)
        a = 2 + zeta**2
        eps_star = gamma_star / a
        eps_max = 2 * gamma_star / (mp.sqrt(a) * (mp.sqrt(a) + mp.sqrt(a - 1)))
        lam = mp.sqrt(mm) / (4 * (mp.sqrt(2 + kappa) + mp.sqrt(4 + kappa)))

        res = tuning.optimize_friction(m, K)
        assert res.gamma_star == pytest.approx(float(gamma_star), rel=1e-14)
        assert res.zeta == pytest.approx(float(zeta), rel=1e-14)
        assert res.eps_star == pytest.approx(float(eps_star), rel=1e-14)
        assert res.eps_max == pytest.approx(float(eps_max), rel=1e-14)
        assert res.lambda_coer == pytest.approx(float(lam), rel=1e-14)
        assert res.Lambda == pytest.approx(float(2 * lam / 3), rel=1e-14)

