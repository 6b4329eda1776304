import numpy as np
import pytest
import scipy.linalg as sla

import hypolab as hl
from hypolab.errors import (
    ConfigurationError,
    DegenerateGapError,
    DomainTooSmallError,
    StructuralAssemblyError,
    WeightUnderflowError,
)

from conftest import make_ops, random_mean_zero

# dense symmetric eigensolve oracle values, recorded before the main build
ORACLE_GAPS = {
    ("quadratic", 8.0, 64): 0.9684323974,
    ("quadratic", 8.0, 128): 0.9921058049,
    ("quadratic", 8.0, 256): 0.9980341071,
    ("quadratic", 8.0, 512): 0.9995099660,
    ("double_well", 4.0, 128): 0.7917922360,
    ("double_well", 4.0, 256): 0.7920150151,
    ("cosine_bump", 8.0, 128): 0.2039779318,
    ("cosine_bump", 8.0, 256): 0.2040154024,
}


def grid_for(pot, l_dom, n_x):
    return hl.build_grid(hl.gibbs_model(pot), l_dom, n_x)


class TestGrid:
    def test_weights_normalized_and_positive(self):
        g = grid_for(hl.quadratic(1.0), 8.0, 128)
        assert abs(g.weights.sum() - 1.0) <= 1e-14
        assert np.all(g.weights > 0)

    def test_even_potential_gives_symmetric_weights(self):
        g = grid_for(hl.quadratic(1.0), 8.0, 17)
        np.testing.assert_allclose(g.weights, g.weights[::-1], rtol=1e-12)

    def test_uniform_spacing(self):
        g = grid_for(hl.double_well(), 4.0, 33)
        np.testing.assert_allclose(np.diff(g.nodes), g.spacing, rtol=1e-12)

    def test_domain_too_small(self):
        with pytest.raises(DomainTooSmallError):
            grid_for(hl.quadratic(1.0), 1.0, 64)

    def test_weight_underflow(self):
        # double-well tails pass confinement at L=8 but underflow exp(-U)
        with pytest.raises(WeightUnderflowError):
            grid_for(hl.double_well(), 8.0, 128)

    def test_small_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            grid_for(hl.quadratic(1.0), 8.0, 8)

    def test_nonpositive_half_width_rejected(self):
        with pytest.raises(ConfigurationError):
            grid_for(hl.quadratic(1.0), -2.0, 64)


class TestVelocityBasis:
    def test_number_operator_eigenvalues(self):
        b = hl.build_velocity_basis(4)
        np.testing.assert_array_equal(b.eigenvalues, [0.0, 1.0, 2.0, 3.0])

    def test_lowering_coefficient(self):
        b = hl.build_velocity_basis(8)
        assert b.lowering[3, 4] == 2.0  # sqrt(4)

    def test_ladder_actions_exact(self):
        b = hl.build_velocity_basis(6)
        eye = np.eye(6)
        assert np.all(b.lowering @ eye[0] == 0.0)
        for k in range(1, 6):
            np.testing.assert_array_equal(
                b.lowering @ eye[k], np.sqrt(k) * eye[k - 1]
            )
        for k in range(6):
            expected = np.zeros(6)
            if k + 1 < 6:  # raising out of the top mode is truncated
                expected += np.sqrt(k + 1) * eye[k + 1]
            if k >= 1:
                expected += np.sqrt(k) * eye[k - 1]
            np.testing.assert_array_equal((b.lowering + b.raising) @ eye[k],
                                          expected)

    def test_number_operator_is_raise_lower(self):
        b = hl.build_velocity_basis(9)
        np.testing.assert_allclose(
            b.raising @ b.lowering, np.diag(b.eigenvalues), atol=1e-15
        )

    def test_too_few_modes_rejected(self):
        with pytest.raises(ConfigurationError):
            hl.build_velocity_basis(3)


class TestAssembly:
    def test_la_antisymmetric_exact(self, ops_quad):
        assert abs(ops_quad.la + ops_quad.la.T).max() == 0.0

    def test_average_sandwich_zero(self, ops_quad):
        resid = abs(ops_quad.pi_v @ ops_quad.la @ ops_quad.pi_v)
        assert (resid.max() if resid.nnz else 0.0) <= 1e-14

    def test_transport_average_adjoint(self, ops_quad):
        resid = abs((ops_quad.la @ ops_quad.pi_v).T + ops_quad.pi_v @ ops_quad.la)
        assert (resid.max() if resid.nnz else 0.0) <= 1e-14

    def test_lo_kernel_is_constant(self, ops_quad):
        sq = ops_quad.grid.sqrt_weights
        assert np.abs(ops_quad.grad_x @ sq).max() <= 1e-13
        ev = sla.eigvalsh(-ops_quad.lo_x)
        assert ev[0] <= 1e-12 and ev[1] > 1e-3  # simple kernel

    def test_ls_spectrum(self, ops_quad):
        diag = ops_quad.ls.diagonal()
        vals, counts = np.unique(diag, return_counts=True)
        np.testing.assert_array_equal(vals, -np.arange(ops_quad.n_v)[::-1].astype(float))
        assert np.all(counts == ops_quad.n_x)

    def test_generator_kills_constants(self, ops_quad):
        u = ops_quad.const_vec
        L = hl.compose_generator(ops_quad, 3.0)
        assert np.abs(L @ u).max() <= 1e-13
        assert np.abs(L.T @ u).max() <= 1e-13


class TestPoincare:
    @pytest.mark.parametrize("n_x", [64, 128, 256])
    def test_quadratic_matches_oracle(self, n_x):
        ops = make_ops(hl.quadratic(1.0), n_x=n_x, n_v=4)
        assert ops.m_h == pytest.approx(ORACLE_GAPS[("quadratic", 8.0, n_x)], rel=1e-8)

    def test_gap_scales_with_curvature(self):
        ops = make_ops(hl.quadratic(2.0), n_x=256, n_v=4)
        assert 1.98 <= ops.m_h <= 2.02

    def test_double_well_matches_oracle(self, ops_dw):
        assert ops_dw.m_h == pytest.approx(
            ORACLE_GAPS[("double_well", 4.0, 128)], rel=1e-8
        )

    def test_cosine_bump_matches_oracle(self, ops_cos):
        assert ops_cos.m_h == pytest.approx(
            ORACLE_GAPS[("cosine_bump", 8.0, 128)], rel=1e-8
        )

    @pytest.mark.parametrize(
        "pot,l_dom",
        [(hl.quadratic(1.0), 8.0), (hl.double_well(), 4.0), (hl.cosine_bump(2.0), 8.0)],
    )
    def test_gap_convergence_under_refinement(self, pot, l_dom):
        m_128 = make_ops(pot, l_dom, n_x=128, n_v=4).m_h
        m_256 = make_ops(pot, l_dom, n_x=256, n_v=4).m_h
        m_512 = make_ops(pot, l_dom, n_x=512, n_v=4).m_h
        assert abs(m_256 - m_128) / m_128 <= 0.02
        assert abs(m_512 - m_256) / m_256 <= 0.02

    def test_degenerate_gap_detected(self, ops_quad_small):
        import copy

        broken = copy.copy(ops_quad_small)
        broken.lo_x = np.zeros_like(ops_quad_small.lo_x)
        with pytest.raises(DegenerateGapError):
            hl.poincare_constant(broken)


class TestComposeGenerator:
    def test_nonpositive_gamma_rejected(self, ops_quad_small):
        with pytest.raises(ConfigurationError):
            hl.compose_generator(ops_quad_small, 0.0)

    def test_quadratic_form_sees_only_ls(self, ops_quad_small):
        L = hl.compose_generator(ops_quad_small, 2.5)
        for seed in range(5):
            f = random_mean_zero(ops_quad_small, seed)
            lhs = f @ (L @ f)
            rhs = 2.5 * (f @ (ops_quad_small.ls @ f))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)

    def test_single_site_mode_one(self, ops_quad_small):
        # Hermite mode 1 at one site: <f, Lf> = -gamma ||f||^2
        f = np.zeros((ops_quad_small.n_x, ops_quad_small.n_v))
        f[10, 1] = 1.0
        f = f.ravel()
        L = hl.compose_generator(ops_quad_small, 1.0)
        assert f @ (L @ f) == pytest.approx(-1.0, abs=1e-13)

    def test_symmetric_part_is_gamma_ls(self, ops_quad_small):
        gamma = 1.7
        L = hl.compose_generator(ops_quad_small, gamma)
        sym = (L + L.T) / 2 - gamma * ops_quad_small.ls
        assert abs(sym).max() <= 1e-14


class TestStructureReport:
    def test_all_exact_checks_pass(self, ops_quad):
        report = hl.check_structure(ops_quad)
        assert report.worst_exact() <= 1e-12

    def test_velocity_poincare_mode_three(self, ops_quad_small):
        # mode-3 state: fast part is the whole state, gradient norm is 3x;
        # d_v is the lowering matrix on each node's Hermite coefficients
        ops = ops_quad_small
        state = np.zeros((ops.n_x, ops.n_v))
        state[:, 3] = ops.grid.sqrt_weights
        f = state.ravel()
        fast = f - ops.pi_v @ f
        assert np.linalg.norm(fast) ** 2 == pytest.approx(1.0, rel=1e-12)
        gv = state @ ops.basis.lowering.T
        assert np.linalg.norm(gv) ** 2 == pytest.approx(3.0, rel=1e-12)

    def test_lift_identity_is_exact(self, ops_quad):
        # <f, -L_o g> = <L_a f, L_a g> for pure-position states: exact with
        # the ladder assembly (the two sides share the same stencil)
        report = hl.check_structure(ops_quad)
        assert report.recorded["lifted_dirichlet_residual"] <= 1e-12
        x = ops_quad.grid.nodes
        f = ops_quad.lift_position(x**2)
        g = ops_quad.lift_position(np.sin(x))
        lhs = f @ (-(ops_quad.lo @ g))
        rhs = (ops_quad.la @ f) @ (ops_quad.la @ g)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_fourth_moment_identity(self, ops_quad):
        report = hl.check_structure(ops_quad)
        assert report.recorded["fourth_moment_relative"] <= 1e-10

    def test_dirichlet_closure_on_random_states(self, ops_quad, ops_dw):
        # (L_a Pi)^T (L_a Pi) f = -L_o Pi f holds for arbitrary states, not
        # just smooth ones: the two sides share the same stencil
        for ops in (ops_quad, ops_dw):
            lapi = (ops.la @ ops.pi_v).tocsr()
            scale = abs(ops.lo).max()
            for seed in range(5):
                f = random_mean_zero(ops, 300 + seed)
                lhs = lapi.T @ (lapi @ f)
                rhs = -(ops.lo @ (ops.pi_v @ f))
                assert np.abs(lhs - rhs).max() <= 1e-12 * scale

    def test_broken_assembly_detected(self, ops_quad_small):
        import copy

        broken = copy.copy(ops_quad_small)
        perturbation = broken.la.tolil()
        perturbation[0, 1] += 1e-6
        broken.la = perturbation.tocsr()
        with pytest.raises(StructuralAssemblyError):
            hl.check_structure(broken)

    def test_nv_truncation_does_not_move_slow_mode(self):
        # slow branch lives on low Hermite modes; truncation level is inert
        rates = []
        for n_v in (12, 20):
            ops = make_ops(hl.quadratic(1.0), n_x=64, n_v=n_v)
            L = hl.compose_generator(ops, 4.0).toarray()
            ev = np.sort(-np.linalg.eigvals(L).real)
            rates.append(ev[ev > 1e-9][0])
        assert abs(rates[0] - rates[1]) <= 1e-6 * rates[1]
