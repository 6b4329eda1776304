import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import hypolab as hl
from hypolab.errors import (DegenerateGapError, DomainTooSmallError, PreconditionError,
                            WeightUnderflowError)

from conftest import (
    lift_position,
    make_ops,
    phase_identities,
    phase_lo,
    phase_pi_v,
    random_mean_zero,
    spmax,
)

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
    return hl.build_grid(pot, l_dom, n_x)


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

    @pytest.mark.parametrize("half_width", [np.inf, np.nan, 1e200])
    def test_non_finite_potential_rejected(self, half_width):
        # at 1e200 the nodes are finite but U overflows, which would make
        # every weight NaN
        with np.errstate(all="ignore"), pytest.raises(PreconditionError):
            grid_for(hl.quadratic(1.0), half_width, 16)

    def test_weight_underflow(self):
        # double-well tails pass confinement at L=8 but underflow exp(-U)
        with pytest.raises(WeightUnderflowError):
            grid_for(hl.double_well(), 8.0, 128)


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
            np.testing.assert_array_equal((b.lowering + b.lowering.T) @ eye[k],
                                          expected)

    def test_number_operator_is_raise_lower(self):
        b = hl.build_velocity_basis(9)
        np.testing.assert_allclose(
            (b.lowering.T @ b.lowering).toarray(), np.diag(b.eigenvalues),
            atol=1e-15
        )


class TestAssembly:
    def test_la_antisymmetric_exact(self, ops_quad):
        assert abs(ops_quad.la + ops_quad.la.T).max() == 0.0

    def test_average_sandwich_zero(self, ops_quad):
        pi = phase_pi_v(ops_quad)
        resid = abs(pi @ ops_quad.la @ pi)
        assert (resid.max() if resid.nnz else 0.0) <= 1e-14

    def test_transport_average_adjoint(self, ops_quad):
        pi = phase_pi_v(ops_quad)
        resid = abs((ops_quad.la @ pi).T + pi @ ops_quad.la)
        assert (resid.max() if resid.nnz else 0.0) <= 1e-14

    @pytest.mark.parametrize("name", ["quad", "dw", "cos"])
    def test_identities_that_hold_by_construction(self, name, request):
        # checked here, on the phase-space L_o and Pi_v, once: the run neither
        # assembles those matrices nor re-checks integer arithmetic
        ops = request.getfixturevalue(f"ops_{name}")
        identities = phase_identities(ops)
        assert len(identities) == 10
        assert max(identities.values()) <= 1e-12
        assert identities["ls_gap_on_fast_modes"] == 0.0
        assert identities["velocity_poincare"] == 0.0
        # the sandwich on the phase space is the check the run makes on la
        exact = hl.check_structure(ops)["exact"]
        assert identities["average_sandwich_zero"] == exact["average_sandwich_zero"]

    def test_lo_kernel_is_constant(self, ops_quad):
        sq = ops_quad.grid.sqrt_weights
        assert np.abs(ops_quad.grad_x @ sq).max() <= 1e-13
        ev = sla.eigvalsh(-ops_quad.lo_x.toarray())
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


class TestSparseFormat:
    @pytest.mark.parametrize("name", ["quad", "dw", "cos"])
    def test_every_factor_is_sparse_and_exact(self, name, request):
        ops = request.getfixturevalue(f"ops_{name}")
        lowering = ops.basis.lowering
        for matrix in (ops.grad_x, ops.lo_x, lowering):
            assert sp.issparse(matrix)
        assert (ops.lo_x != ops.lo_x.T).nnz == 0  # symmetric as built
        g = ops.grad_x.toarray()
        gtg = g.T @ g
        diag, upper = ops.lo_bands
        scale = np.abs(gtg).max()
        assert np.abs(diag - np.diag(gtg)).max() <= 1e-14 * scale
        assert np.abs(upper - np.diag(gtg, 1)).max() <= 1e-14 * scale
        # the banded solve against a dense LU solve
        block = hl.build_corrector(ops).block
        dense = sla.solve(ops.m_h * np.eye(ops.n_x) - ops.lo_x.toarray(), g.T)
        assert np.abs(block - dense).max() <= 1e-13 * np.abs(dense).max()
        # lowering^T lowering is diagonal by pattern; sqrt(k)^2 rounds to k
        # within an ulp or so, not exactly (sqrt(2)^2 = 2 + 4.4e-16)
        number = (lowering.T @ lowering).tocoo()
        assert np.array_equal(number.row, number.col)
        np.testing.assert_allclose(number.toarray(), np.diag(ops.basis.eigenvalues),
                                   rtol=2 * np.finfo(float).eps, atol=0)


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

    @pytest.mark.parametrize("n_x", [128, 512])
    @pytest.mark.parametrize(
        "pot", [hl.quadratic(1.0), hl.double_well(), hl.cosine_bump(2.0)],
        ids=lambda pot: pot.kind,
    )
    def test_tridiagonal_gap_matches_dense(self, pot, n_x):
        ops = make_ops(pot, n_x=n_x, n_v=4)
        dense = sla.eigvalsh(-ops.lo_x.toarray())[1]
        assert abs(ops.m_h - dense) <= 1e-13 * dense

    def test_degenerate_gap_detected(self, ops_quad_small):
        import copy

        broken = copy.copy(ops_quad_small)
        broken.lo_x = sp.csr_matrix(ops_quad_small.lo_x.shape)
        with pytest.raises(DegenerateGapError):
            hl.poincare_constant(broken)


class TestComposeGenerator:
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
        assert set(report) == {"exact"}
        assert set(report["exact"]) == {
            "la_antisymmetry", "average_sandwich_zero", "generator_kills_constants",
            "la_square", "bochner_identity",
        }
        assert max(report["exact"].values()) <= 1e-12

    def test_velocity_poincare_mode_three(self, ops_quad_small):
        # mode-3 state: fast part is the whole state, gradient norm is 3x;
        # d_v is the lowering matrix on each node's Hermite coefficients
        ops = ops_quad_small
        state = np.zeros((ops.n_x, ops.n_v))
        state[:, 3] = ops.grid.sqrt_weights
        f = state.ravel()
        fast = f - phase_pi_v(ops) @ f
        assert np.linalg.norm(fast) ** 2 == pytest.approx(1.0, rel=1e-12)
        gv = state @ ops.basis.lowering.T
        assert np.linalg.norm(gv) ** 2 == pytest.approx(3.0, rel=1e-12)

    def test_lift_identity_is_exact(self, ops_quad):
        # <f, -L_o g> = <L_a f, L_a g> for pure-position states: exact with
        # the ladder assembly (the two sides share the same stencil); it is
        # la_square's mode-0 block
        report = hl.check_structure(ops_quad)
        assert report["exact"]["la_square"] <= 1e-15
        x = ops_quad.grid.nodes
        f = lift_position(ops_quad, x**2)
        g = lift_position(ops_quad, np.sin(x))
        lhs = f @ (-(phase_lo(ops_quad) @ g))
        rhs = (ops_quad.la @ f) @ (ops_quad.la @ g)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_fourth_moment_identity(self, ops_quad, ops_dw, ops_cos):
        # ||(1 - Pi_v) L_a^2 h||^2 = 2 ||D^2 h||^2, la_square's mode-2 block,
        # on the unit states of the test suite; against the suite's largest
        # side, since D^2 h is roundoff for h = x
        for ops in (ops_quad, ops_dw, ops_cos):
            assert hl.check_structure(ops)["exact"]["la_square"] <= 1e-15
            gaps, sides = [], []
            for values in hl.bochner_test_suite(ops.grid).values():
                f = lift_position(ops, values)
                f = f / np.linalg.norm(f)
                la2 = ops.la @ (ops.la @ f)
                la2[::ops.n_v] = 0.0
                d2 = ops.grad_x @ (ops.grad_x @ f[::ops.n_v])
                sides.append(2 * np.linalg.norm(d2) ** 2)
                gaps.append(abs(np.linalg.norm(la2) ** 2 - sides[-1]))
            assert max(gaps) / max(sides) <= 1e-12

    @pytest.mark.parametrize("name", ["quad", "dw", "cos"])
    def test_exact_residuals_match_phase_space_forms(self, name, request):
        # la_square, read on mode 0's position vector, equals the phase-space
        # form with L_o (x) I and Pi_v up to summation order; the dense
        # commutator is diag(discrete_curvature) on the range of Grad
        ops = request.getfixturevalue(f"ops_{name}")
        lo, pi, g = phase_lo(ops), phase_pi_v(ops), ops.grad_x
        e20 = sp.csr_matrix(([np.sqrt(2.0)], ([2], [0])), shape=(ops.n_v, ops.n_v))
        square = lo @ pi + sp.kron(g @ g, e20)
        la_square = spmax(ops.la @ (ops.la @ pi) - square) / spmax(square)
        gd = g.toarray()
        commutator = (gd.T @ gd - gd @ gd.T)[:-1, :-1]
        curvature = hl.discrete_curvature(ops.grid)
        bochner = np.abs(commutator - np.diag(curvature)).max() / abs(ops.lo_x).max()
        exact = hl.check_structure(ops)["exact"]
        assert abs(exact["la_square"] - la_square) <= 1e-15
        assert max(exact["bochner_identity"], bochner) <= 1e-15

    def test_lifted_residual_is_scale_free_at_512(self):
        # both sides of L_a (L_a Pi_v) = sqrt(2) Grad^2 (x) e_2 + L_o (x) e_0
        # scale like 1/h^2, and so do both of the commutator identity: each
        # relative residual stays at roundoff
        ops = make_ops(hl.double_well(), n_x=512, n_v=32)
        exact = hl.check_structure(ops)["exact"]
        assert exact["la_square"] <= 1e-14
        assert exact["bochner_identity"] <= 1e-14

    def test_dirichlet_closure_on_random_states(self, ops_quad, ops_dw):
        # (L_a Pi)^T (L_a Pi) f = -L_o Pi f holds for arbitrary states, not
        # just smooth ones: the two sides share the same stencil
        for ops in (ops_quad, ops_dw):
            lo, pi = phase_lo(ops), phase_pi_v(ops)
            lapi = (ops.la @ pi).tocsr()
            scale = abs(lo).max()
            for seed in range(5):
                f = random_mean_zero(ops, 300 + seed)
                lhs = lapi.T @ (lapi @ f)
                rhs = -(lo @ (pi @ f))
                assert np.abs(lhs - rhs).max() <= 1e-12 * scale

    def test_broken_assembly_detected(self, ops_quad_small):
        import copy

        broken = copy.copy(ops_quad_small)
        perturbation = broken.la.tolil()
        perturbation[0, 1] += 1e-6
        broken.la = perturbation.tocsr()
        # the residuals are returned for the report, not raised
        exact = hl.check_structure(broken)["exact"]
        assert exact["la_antisymmetry"] == pytest.approx(1e-6, rel=1e-6)
        assert max(exact.values()) == exact["la_antisymmetry"]

    def test_broken_mode_zero_block_detected(self, ops_quad_small):
        # an antisymmetric coupling between mode 0 at two nodes keeps la
        # antisymmetric; the sandwich read off la's mode-0 -> mode-0 block
        # sees it at full size
        import copy

        broken = copy.copy(ops_quad_small)
        n_v = broken.n_v
        perturbation = broken.la.tolil()
        perturbation[0, n_v] += 1e-6
        perturbation[n_v, 0] -= 1e-6
        broken.la = perturbation.tocsr()
        exact = hl.check_structure(broken)["exact"]
        assert exact["la_antisymmetry"] == 0.0
        assert exact["average_sandwich_zero"] == pytest.approx(1e-6, rel=1e-6)
        assert max(exact.values()) == exact["average_sandwich_zero"]

    def test_nv_truncation_does_not_move_slow_mode(self):
        # slow branch lives on low Hermite modes; truncation level is inert
        rates = []
        for n_v in (12, 20):
            ops = make_ops(hl.quadratic(1.0), n_x=64, n_v=n_v)
            L = hl.compose_generator(ops, 4.0).toarray()
            ev = np.sort(-np.linalg.eigvals(L).real)
            rates.append(ev[ev > 1e-9][0])
        assert abs(rates[0] - rates[1]) <= 1e-6 * rates[1]
