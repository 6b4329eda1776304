import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import hypolab as hl
from hypolab.corrector import dissipation_block
from hypolab.errors import ConfigurationError, PreconditionError

from conftest import dissipation_form, make_ops, random_mean_zero


def functional(corr, eps, gamma=4.0):
    return hl.ModifiedFunctional(corr, hl.compose_generator(corr.ops, gamma), eps)


def lyapunov(f, corr, eps):
    return functional(corr, eps).values(f)[0]


def dissipation(f, corr, eps, gamma):
    return functional(corr, eps, gamma).values(f)[1]


def position_eigenpair(ops, index=1):
    """Eigenpair of -L_o on the position factor (index 0 is the kernel)."""
    vals, vecs = sla.eigh(-ops.lo_x)
    return vals[index], vecs[:, index]


class TestBuildCorrector:
    def test_default_shift_is_gap(self, ops_quad, corr_quad):
        assert corr_quad.alpha == ops_quad.m_h

    def test_nonpositive_alpha_rejected(self, ops_quad):
        with pytest.raises(ConfigurationError):
            hl.build_corrector(ops_quad, alpha=-1.0)

    def test_annihilates_constants(self, corr_quad, ops_quad):
        assert np.abs(corr_quad.matrix @ ops_quad.const_vec).max() <= 1e-12

    def test_kills_velocity_averaged_states(self, corr_quad, ops_quad):
        f = random_mean_zero(ops_quad, 5)
        slow = ops_quad.pi_v @ f
        assert np.abs(corr_quad.matrix @ slow).max() <= 1e-12

    def test_range_in_velocity_average(self, corr_quad, ops_quad):
        f = random_mean_zero(ops_quad, 6)
        af = corr_quad.matrix @ f
        assert np.abs(af - ops_quad.pi_v @ af).max() <= 1e-12

    def test_structure_for_every_potential(self, corr_quad, corr_dw, ops_cos):
        corr_cos = hl.build_corrector(ops_cos)
        for corr in (corr_quad, corr_dw, corr_cos):
            ops = corr.ops
            f = random_mean_zero(ops, 21)
            af = corr.matrix @ f
            assert np.abs(af - ops.pi_v @ af).max() <= 1e-12
            assert np.abs(corr.matrix @ (ops.pi_v @ f)).max() <= 1e-12

    def test_identity_on_slow_transport(self, corr_quad, ops_quad):
        # A (L_a Pi_v) agrees with the resolvent form (m - L_o)^{-1}(-L_o) Pi_v
        # exactly: the assembly closes the product identity.
        lapi = (ops_quad.la @ ops_quad.pi_v).tocsr()
        lhs = (corr_quad.matrix @ lapi).toarray()
        m = ops_quad.m_h
        n_x = ops_quad.n_x
        resolvent = sla.solve(
            m * np.eye(n_x) - ops_quad.lo_x, -ops_quad.lo_x, assume_a="pos"
        )
        e00 = np.zeros((ops_quad.n_v, ops_quad.n_v))
        e00[0, 0] = 1.0
        rhs = np.kron(resolvent, e00)
        scale = np.abs(ops_quad.lo_x).max()
        assert np.abs(lhs - rhs).max() <= 1e-10 * scale

    def test_substituted_product_identity(self, corr_quad, ops_quad):
        # same comparison with the derived product (L_a Pi_v)^T (L_a Pi_v)
        lapi = (ops_quad.la @ ops_quad.pi_v).tocsr()
        lhs = (corr_quad.matrix @ lapi).toarray()
        m = ops_quad.m_h
        prod = (lapi.T @ lapi).toarray()
        shifted = m * np.eye(ops_quad.n) - ops_quad.lo.toarray()
        rhs = sla.solve(shifted, prod, assume_a="pos")
        scale = np.abs(ops_quad.lo_x).max()
        assert np.abs(lhs - rhs).max() <= 1e-10 * scale

    def test_norm_nonincreasing_in_shift(self, ops_quad):
        m = ops_quad.m_h
        f = random_mean_zero(ops_quad, 17)
        norms = []
        for alpha in (m / 4, m / 2, m, 2 * m, 4 * m):
            c = hl.build_corrector(ops_quad, alpha=alpha)
            norms.append(hl.operator_norm(c.block))
            # range/cokernel structure is shift independent
            af = c.matrix @ f
            assert np.abs(af - ops_quad.pi_v @ af).max() <= 1e-12
            assert np.abs(c.matrix @ (ops_quad.pi_v @ f)).max() <= 1e-12
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


class TestLyapunov:
    def test_zero_state(self, corr_quad):
        assert lyapunov(np.zeros(corr_quad.ops.n), corr_quad, 0.3) == 0.0

    def test_pure_position_state(self, corr_quad, ops_quad):
        _, phi = position_eigenpair(ops_quad)
        f = np.zeros((ops_quad.n_x, ops_quad.n_v))
        f[:, 0] = phi
        f = f.ravel()
        val = lyapunov(f, corr_quad, 0.29)
        assert val == pytest.approx(0.5 * np.dot(f, f), rel=1e-12)

    def test_bracket_at_tuned_eps(self, corr_quad, ops_quad, tuned_quad):
        for seed in range(20):
            f = random_mean_zero(ops_quad, seed)
            val = lyapunov(f, corr_quad, tuned_quad.eps_star)
            n2 = np.dot(f, f)
            assert 0.25 * n2 <= val <= 0.75 * n2

    def test_equivalence_brackets(self, corr_quad, ops_quad):
        m = ops_quad.m_h
        norm_a = max(hl.operator_norm(corr_quad.block), 1.0 / (2 * np.sqrt(m)))
        rng = np.random.default_rng(11)
        for t in (0.1, 0.5, 0.9):
            eps = 0.9 * np.sqrt(m) * t
            for _ in range(33):
                f = rng.standard_normal(ops_quad.n)
                f = ops_quad.project_mean_zero(f)
                f /= np.linalg.norm(f)
                val = lyapunov(f, corr_quad, eps)
                lo = (1 - 2 * eps * norm_a) / 2
                hi = (1 + 2 * eps * norm_a) / 2
                assert lo - 1e-8 <= val <= hi + 1e-8


class TestDissipation:
    def test_zero_state(self, corr_quad):
        assert dissipation(np.zeros(corr_quad.ops.n), corr_quad, 0.3, 4.0) == 0.0

    def test_position_eigenvector_value(self, corr_quad, ops_quad):
        # pure-position eigenvector at eigenvalue lam: D = eps*lam/(m+lam)*||f||^2
        eps = 0.29
        for index in (1, 2, 5):
            lam, phi = position_eigenpair(ops_quad, index)
            f = np.zeros((ops_quad.n_x, ops_quad.n_v))
            f[:, 0] = phi
            f = f.ravel()
            val = dissipation(f, corr_quad, eps, 4.0)
            expected = eps * lam / (ops_quad.m_h + lam)
            assert val == pytest.approx(expected, rel=1e-9)

    def test_nonnegative_at_tuned_parameters(self, corr_quad, ops_quad, tuned_quad):
        for seed in range(20):
            f = random_mean_zero(ops_quad, 100 + seed)
            val = dissipation(f, corr_quad, tuned_quad.eps_star,
                                 tuned_quad.gamma_star)
            assert val >= 0.0

    def test_rejects_bad_gamma(self, corr_quad, ops_quad):
        f = random_mean_zero(ops_quad, 0)
        with pytest.raises(ConfigurationError):
            dissipation(f, corr_quad, 0.3, -1.0)


class TestOperatorNorm:
    def test_dense_small_matrix(self):
        M = np.diag([3.0, 1.0, -4.0])
        assert hl.operator_norm(M) == pytest.approx(4.0, abs=1e-12)


def mode_loop_corrector(ops):
    """A assembled one Hermite mode at a time from the phase-space form
    (alpha - L_o)^{-1} (L_a Pi_v)^T, without using its block structure."""
    n_x, n_v = ops.n_x, ops.n_v
    chol = sla.cho_factor(ops.m_h * np.eye(n_x) - ops.lo_x)
    rhs = (-(ops.pi_v @ ops.la)).tocsr()
    matrix = sp.csr_matrix((ops.n, ops.n))
    rows = np.arange(n_x)
    for k in range(n_v):
        block = rhs[k::n_v, :]
        if block.nnz == 0:
            continue
        solved = sp.csr_matrix(sla.cho_solve(chol, block.toarray()))
        scatter = sp.csr_matrix((np.ones(n_x), (rows * n_v + k, rows)),
                                shape=(ops.n, n_x))
        matrix = matrix + scatter @ solved
    return matrix.tocsr()


SMALL_POTENTIALS = {
    "quadratic": lambda: hl.quadratic(1.0),
    "double_well": hl.double_well,
    "cosine_bump": lambda: hl.cosine_bump(2.0),
}


class TestBlockReduction:
    """The bound norms and the corrector come from n_x x n_x position blocks;
    at 64x12 they are compared with the full phase-space matrices."""

    @pytest.fixture(scope="class", params=sorted(SMALL_POTENTIALS))
    def corr_small(self, request):
        ops = make_ops(SMALL_POTENTIALS[request.param](), n_x=64, n_v=12)
        return hl.build_corrector(ops)

    def test_matrix_matches_mode_loop_assembly(self, corr_small):
        old = mode_loop_corrector(corr_small.ops).toarray()
        new = corr_small.matrix.toarray()
        assert np.array_equal(old != 0.0, new != 0.0)
        assert np.abs(old - new).max() <= 1e-14 * np.abs(new).max()

    def test_apply_matches_matrix(self, corr_small):
        x = np.random.default_rng(3).standard_normal(corr_small.ops.n)
        expected = corr_small.matrix @ x
        assert np.abs(corr_small.apply(x) - expected).max() <= 1e-14 * np.abs(
            expected).max()

    def test_block_norms_match_full_dense_svd(self, corr_small):
        ops, A = corr_small.ops, corr_small.matrix
        fast = sp.identity(ops.n, format="csr") - ops.pi_v
        full = [
            sla.svdvals(m.toarray())[0]
            for m in (A, ops.la @ A, A @ ops.la @ fast)
        ]
        report = hl.verify_corrector_bounds(corr_small)
        blocks = [report.norm_a, report.norm_la_a, report.norm_a_la_fast]
        assert np.allclose(blocks, full, rtol=1e-12, atol=0.0)

    def test_norm_a_attains_bound(self, corr_quad, corr_dw, ops_cos):
        for corr in (corr_quad, corr_dw, hl.build_corrector(ops_cos)):
            report = hl.verify_corrector_bounds(corr)
            assert report.norm_a_exact_residual <= 1e-12
            assert report.as_dict()["norm_A_exact_residual"] <= 1e-12

    def test_double_well_fine_norm_la_a(self):
        # exact value 0.9999698; the top of the spectrum is clustered, so an
        # iterative estimate stopped on stagnation reads low
        ops = make_ops(hl.double_well(), n_x=512, n_v=32)
        report = hl.verify_corrector_bounds(hl.build_corrector(ops))
        assert report.norm_la_a >= 0.99996
        assert report.norm_la_a < 1.0


class TestCorrectorBounds:
    def test_quadratic_within_tolerance(self, corr_quad):
        report = hl.verify_corrector_bounds(corr_quad)
        assert all(r <= 1.05 for r in report.ratios)

    def test_double_well_within_tolerance(self, corr_dw):
        report = hl.verify_corrector_bounds(corr_dw)
        assert all(r <= 1.05 for r in report.ratios)

    def test_requires_gap_shift(self, ops_quad):
        offset = hl.build_corrector(ops_quad, alpha=2 * ops_quad.m_h)
        with pytest.raises(PreconditionError, match="corrector bounds"):
            hl.verify_corrector_bounds(offset)
        with pytest.raises(PreconditionError, match="coercivity"):
            hl.dissipation_form_min_eig(offset, 0.1, 4.0)


class TestDissipationFormMinEig:
    def test_coercive_at_tuned_parameters(self, corr_quad, ops_quad, tuned_quad):
        min_eig, residual = hl.dissipation_form_min_eig(
            corr_quad, tuned_quad.eps_star, tuned_quad.gamma_star
        )
        assert min_eig - residual >= tuned_quad.lambda_coer * 0.95
        assert 0.0 <= residual <= 1e-12

    def test_vanishing_eps_loses_coercivity(self, corr_quad, tuned_quad):
        # without the corrector term the slow subspace is undamped
        min_eig, _ = hl.dissipation_form_min_eig(
            corr_quad, 0.0, tuned_quad.gamma_star
        )
        assert abs(min_eig) <= 1e-8

    def test_coercive_at_256x20(self):
        ops = make_ops(hl.quadratic(1.0), n_x=256, n_v=20)
        corr = hl.build_corrector(ops)
        tuned = hl.optimize_friction(ops.m_h, 0.0)
        min_eig, _ = hl.dissipation_form_min_eig(
            corr, tuned.eps_star, tuned.gamma_star
        )
        assert min_eig >= tuned.lambda_coer * 0.95

    def test_form_matches_dissipation(self, corr_quad_small, ops_quad_small):
        tuned = hl.optimize_friction(ops_quad_small.m_h, 0.0)
        eps, gamma = tuned.eps_star, tuned.gamma_star
        q = dissipation_form(functional(corr_quad_small, eps, gamma))
        for seed in range(5):
            f = random_mean_zero(ops_quad_small, 300 + seed)
            expected = dissipation(f, corr_quad_small, eps, gamma)
            assert f @ (q @ f) == pytest.approx(expected, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("potential", sorted(SMALL_POTENTIALS))
    def test_form_decouples_above_mode_2(self, potential):
        ops = make_ops(SMALL_POTENTIALS[potential](), n_x=64, n_v=12)
        tuned = hl.optimize_friction(ops.m_h, ops.grid.model.K)
        gamma = tuned.gamma_star
        Q = dissipation_form(
            functional(hl.build_corrector(ops), tuned.eps_star, gamma)).toarray()
        k = np.arange(ops.n) % ops.n_v
        slow = k < 3
        assert np.all(Q[np.ix_(slow, ~slow)] == 0.0)
        assert np.all(Q[np.ix_(~slow, slow)] == 0.0)
        assert np.array_equal(Q[np.ix_(~slow, ~slow)], np.diag(gamma * k[~slow]))

    @pytest.mark.parametrize("n_x, n_v", [(64, 12), (128, 20)])
    @pytest.mark.parametrize("potential", sorted(SMALL_POTENTIALS))
    def test_closed_form_block_matches_form(self, potential, n_x, n_v):
        # The coercivity check solves only the closed-form mode 0-2 block:
        # the full form must couple modes 0-2 to no higher mode, be exactly
        # gamma k above mode 2, and equal the block on modes 0-2 to roundoff.
        ops = make_ops(SMALL_POTENTIALS[potential](), n_x=n_x, n_v=n_v)
        corr = hl.build_corrector(ops)
        tuned = hl.optimize_friction(ops.m_h, ops.grid.model.K)
        eps, gamma = tuned.eps_star, tuned.gamma_star
        Q = dissipation_form(functional(corr, eps, gamma))
        k = np.arange(ops.n) % ops.n_v
        slow = k < 3
        assert Q[:, slow][~slow].count_nonzero() == 0
        assert Q[:, ~slow][slow].count_nonzero() == 0
        tail = Q[:, ~slow][~slow]
        assert (tail - sp.diags(gamma * k[~slow])).count_nonzero() == 0
        reference = Q[:, slow][slow].toarray()
        block = dissipation_block(corr, eps, gamma)
        assert np.abs(block - reference).max() <= 1e-15 * np.abs(reference).max()

    @pytest.mark.parametrize("potential", sorted(SMALL_POTENTIALS))
    def test_matches_dense_eigensolve(self, potential):
        ops = make_ops(SMALL_POTENTIALS[potential](), n_x=64, n_v=12)
        corr = hl.build_corrector(ops)
        tuned = hl.optimize_friction(ops.m_h, ops.grid.model.K)
        eps, gamma = tuned.eps_star, tuned.gamma_star
        min_eig, residual = hl.dissipation_form_min_eig(corr, eps, gamma)
        # dense eigensolve of the full form on an orthonormal basis of the
        # mean-zero subspace
        Q = dissipation_form(functional(corr, eps, gamma)).toarray()
        basis = sla.null_space(ops.const_vec[None, :])
        dense_min = sla.eigvalsh(basis.T @ Q @ basis)[0]
        assert abs(min_eig - dense_min) <= 1e-12
        # the eigenvector's residual keeps min_eig - residual a lower bound
        assert 0.0 <= residual <= 1e-12


class TestBochner:
    def test_constant_function_zero_residual(self, ops_quad):
        r = hl.bochner_residual(ops_quad, np.ones(ops_quad.n_x))
        assert abs(r) <= 1e-20

    def test_refinement_is_second_order(self):
        residuals = []
        for n_x in (64, 128, 256):
            ops = make_ops(hl.quadratic(1.0), n_x=n_x, n_v=4)
            r = hl.bochner_residual(ops, ops.grid.nodes**2)
            residuals.append(abs(r))
        assert residuals[0] > residuals[1] > residuals[2]
        for coarse, fine in zip(residuals, residuals[1:]):
            assert 3.0 <= coarse / fine <= 7.0

    def test_double_well_inequality_with_k(self):
        ops = make_ops(hl.double_well(), n_x=256, n_v=4)
        for values in hl.bochner_test_suite(ops.grid).values():
            hl.bochner_residual(ops, values)  # raises if the K-form fails

    def test_suite_contents(self, ops_quad):
        suite = hl.bochner_test_suite(ops_quad.grid)
        assert set(suite) == {"one", "hermite1", "hermite2", "gauss_bump", "sine"}
