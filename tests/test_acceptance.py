"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated elsewhere.
"""
import math
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from hypolab import corrector, discretize, evolve, model, sampler, tuning
from hypolab.evolve import lyapunov_identity

from conftest import make_ops, phase_identities


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} {name}: PASS")


def test_criterion_1_tuning_constants():
    with criterion(1, "closed-form tuning constants at m=1, K=0"):
        res = tuning.optimize_friction(1.0, 0.0)
        assert abs(res.gamma_star - 4.0) <= 1e-12
        assert abs(res.Lambda - (2.0 - math.sqrt(2.0)) / 12.0) <= 1e-12
        assert abs(res.eps_star - 1.0 / (2.0 + math.sqrt(2.0))) <= 1e-12
        assert abs(res.lambda_coer - (2.0 - math.sqrt(2.0)) / 8.0) <= 1e-12


def test_criterion_2_scaling_law():
    with criterion(2, "sqrt(c) scaling of gamma* and Lambda"):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = float(rng.uniform(0.05, 50.0))
            K = float(rng.uniform(0.0, 50.0))
            base = tuning.optimize_friction(m, K)
            for c in (0.25, 4.0):
                scaled = tuning.optimize_friction(c * m, c * K)
                root = math.sqrt(c)
                assert abs(scaled.gamma_star - root * base.gamma_star) \
                    <= 1e-12 * root * base.gamma_star
                assert abs(scaled.Lambda - root * base.Lambda) \
                    <= 1e-12 * root * base.Lambda


def test_criterion_3_structural_exactness(ops_quad, ops_dw, ops_cos):
    with criterion(3, "structural identities exact at N_x=128, N_v=20"):
        for ops in (ops_quad, ops_dw, ops_cos):
            exact = discretize.check_structure(ops)["exact"]
            assert max(exact.values()) <= 1e-12
            assert exact["average_sandwich_zero"] <= 1e-12
            identities = phase_identities(ops)
            assert identities["transport_average_adjoint"] <= 1e-12
            assert identities["average_sandwich_zero"] <= 1e-12
            assert identities["velocity_poincare"] == 0.0


def test_criterion_4_discrete_poincare_constant():
    with criterion(4, "discrete Poincare constant windows at N_x=256"):
        m1 = make_ops(model.quadratic(1.0), l_dom=8.0, n_x=256, n_v=4).m_h
        assert 0.99 <= m1 <= 1.01
        m2 = make_ops(model.quadratic(2.0), l_dom=8.0, n_x=256, n_v=4).m_h
        assert 1.98 <= m2 <= 2.02


def test_criterion_5_corrector_bounds(corr_quad, corr_dw):
    with criterion(5, "corrector norm bounds, up to operator_norm's rounding"):
        def excess(report):
            return [max(0.0, r - 1.0) for r in report["ratios"]]

        def within_rounding(report):
            return all(r - 1.0 <= report["ratio_allowance"] for r in report["ratios"])

        excess_128 = None
        for corr in (corr_quad, corr_dw):
            report = corrector.verify_corrector_bounds(corr)
            assert within_rounding(report)
            if corr is corr_quad:
                excess_128 = excess(report)
        ops_fine = make_ops(model.quadratic(1.0), n_x=256, n_v=20)
        corr_fine = corrector.build_corrector(ops_fine)
        report_fine = corrector.verify_corrector_bounds(corr_fine)
        assert within_rounding(report_fine)
        for coarse, fine in zip(excess_128, excess(report_fine)):
            assert fine <= coarse + 1e-12


def test_criterion_6_dissipation_coercivity(ops_quad, corr_quad, ops_dw, corr_dw):
    with criterion(6, "dissipation form coercive at (gamma*, eps*)"):
        for ops, corr in ((ops_quad, corr_quad), (ops_dw, corr_dw)):
            tuned = tuning.optimize_friction(ops.m_h, ops.grid.potential.K)
            min_eig, residual, cap, _ = corrector.dissipation_form_min_eig(
                corr, tuned.eps_star, tuned.gamma_star
            )
            assert residual <= cap
            assert min_eig - residual >= tuned.lambda_coer


def test_criterion_7_decay_bound(ops_quad, corr_quad, ops_dw, corr_dw, ops_cos):
    with criterion(7, "certified decay bound and fitted rates"):
        corr_cos = corrector.build_corrector(ops_cos)
        cases = ((ops_quad, corr_quad), (ops_dw, corr_dw), (ops_cos, corr_cos))
        for ops, corr in cases:
            # the quadratic gap is known analytically, so its run uses the
            # exact tuned friction gamma* = 4
            potential = ops.grid.potential
            m = potential.analytic_m if potential.analytic_m is not None else ops.m_h
            tuned = tuning.optimize_friction(m, potential.K)
            for kind in ("gap", "velocity", "random"):
                f0 = evolve.initial_condition(ops, kind, seed=2024)
                trace = evolve.integrate(
                    ops, f0, evolve.crank_nicolson(ops, tuned.gamma_star, 0.02),
                    5.0 / tuned.Lambda,
                    corrector=corr, eps=tuned.eps_star, Lambda=tuned.Lambda,
                )
                margin, _ = evolve.verify_decay_bound(trace)
                assert margin >= 0, (potential.kind, kind, margin)
                fitted = evolve.estimate_rate(trace)
                assert fitted >= tuned.Lambda * (1 - 1e-6)
                if ops is ops_quad and kind == "random":
                    assert tuned.gamma_star == 4.0
                    target = 2.0 - math.sqrt(3.0)
                    assert abs(fitted - target) <= 0.05 * target


def test_criterion_8_lyapunov_identity(ops_quad, corr_quad, tuned_quad):
    with criterion(8, "Lyapunov derivative identity, second order in dt"):
        f0 = evolve.initial_condition(ops_quad, "random", seed=2024)
        residuals = []
        for dt in (0.02, 0.01, 0.005):
            trace = evolve.integrate(
                ops_quad, f0, evolve.crank_nicolson(ops_quad, tuned_quad.gamma_star, dt),
                4.0, corrector=corr_quad, eps=tuned_quad.eps_star,
                Lambda=tuned_quad.Lambda,
            )
            # the check raises if the functional ever increases on a tuned run
            residuals.append(
                evolve.lyapunov_derivative_check(trace, monotone=True, t_min=2.0)
            )
            # the trapezoidal step satisfies the discrete identity exactly
            assert lyapunov_identity(trace) <= 1e-12
        for coarse, fine in zip(residuals, residuals[1:]):
            assert 3.5 <= coarse / fine <= 4.5


def test_criterion_9_sde_consistency(monkeypatch):
    with criterion(9, "BAOAB moments, first-moment rate, determinism"):
        cfg = sampler.SdeConfig(potential=model.quadratic(1.0), particles=10000,
                           steps=2000, dt=0.01, gamma=4.0, seed=2024)
        trace = sampler.run_ensemble(cfg)
        se = math.sqrt(2.0 / cfg.particles)
        v_sq = float((trace.final_v_var + trace.final_v_mean**2).mean())
        x_sq = float((trace.final_x_var + trace.final_x_mean**2).mean())
        assert abs(v_sq - 1.0) <= 3 * se
        assert abs(x_sq - 1.0) <= 3 * se

        rate = sampler.estimate_observable_decay(
            sampler.run_ensemble(replace(cfg, init_shift=2.0)))
        target = 2.0 - math.sqrt(3.0)
        assert abs(rate - target) <= 0.15 * target

        # determinism: identical seeds give bit-identical CSV columns,
        # independent of the particle partitioning used for execution
        small = sampler.SdeConfig(potential=model.quadratic(1.0), particles=500,
                             steps=200, dt=0.01, gamma=4.0, seed=2024)

        def column_bytes():
            return {name: column.tobytes()
                    for name, column in sampler.run_ensemble(small).columns.items()}

        bytes_a = column_bytes()
        monkeypatch.setattr("hypolab.sampler.CHUNK", 97)
        assert column_bytes() == bytes_a


def test_criterion_10_bochner_residual():
    with criterion(10, "curvature identity residual is O(h^2)"):
        suites = {}
        for n_x in (64, 128, 256):
            ops = make_ops(model.quadratic(1.0), n_x=n_x, n_v=4)
            for name, values in discretize.bochner_test_suite(ops.grid).items():
                suites.setdefault(name, []).append(
                    abs(corrector.bochner_residual(ops, values)))
        for name, residuals in suites.items():
            if name == "one":  # identically zero
                assert max(residuals) <= 1e-20
                continue
            assert residuals[0] > residuals[1] > residuals[2]
            for coarse, fine in zip(residuals, residuals[1:]):
                assert 3.0 <= coarse / fine <= 7.0
        # the discrete inequality holds for every h: K - K_h >= 0
        grid_dw = make_ops(model.double_well(), n_x=256, n_v=4).grid
        assert grid_dw.potential.K - discretize.discrete_curvature(grid_dw).max() >= 0
