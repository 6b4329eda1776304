import functools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from hypolab import cli as cli_module
from hypolab import corrector as corrector_module
from hypolab import discretize, model, tuning
from hypolab.cli import main
from hypolab.errors import NumericalError

from conftest import (
    dense_block,
    dissipation_block,
    dissipation_form,
    make_ops,
    phase_lo,
    phase_pi_v,
    random_mean_zero,
)


def functional(corr, eps, gamma=4.0):
    return corrector_module.ModifiedFunctional(
        corr, discretize.compose_generator(corr.ops, gamma), eps)


def values(f, corr, eps, gamma=4.0):
    fn = functional(corr, eps, gamma)
    return fn.values(f, fn.products(f))


def lyapunov(f, corr, eps):
    return values(f, corr, eps)[0]


def dissipation(f, corr, eps, gamma):
    return values(f, corr, eps, gamma)[1]


def position_eigenpair(ops, index=1):
    """Eigenpair of -L_o on the position factor (index 0 is the kernel)."""
    vals, vecs = sla.eigh(-ops.lo_x.toarray())
    return vals[index], vecs[:, index]


class TestBuildCorrector:
    def test_default_shift_is_gap(self, ops_quad, corr_quad):
        # B = (m_h I - L_o)^{-1} Grad^T by a general LU solve
        expected = sla.solve(
            ops_quad.m_h * np.eye(ops_quad.n_x) - ops_quad.lo_x.toarray(),
            ops_quad.grad_x.T.toarray())
        assert np.abs(dense_block(corr_quad) - expected).max() <= (
            1e-12 * np.abs(expected).max())

    def test_matrix_is_built_only_when_read(self, ops_quad_small):
        # the corrector holds the factors' solve and Grad's bands, O(n_x)
        corr = corrector_module.build_corrector(ops_quad_small)
        assert "matrix" not in corr.__dict__
        n_x = ops_quad_small.n_x
        held = [*corr.solve.args, *corr.grad]
        assert all(isinstance(x, np.ndarray) and x.shape in {(n_x,), (n_x - 1,)}
                   for x in held)
        e01 = np.zeros((ops_quad_small.n_v, ops_quad_small.n_v))
        e01[0, 1] = 1.0
        block = corr.solve(ops_quad_small.grad_x.T.toarray())[0]
        assert np.array_equal(corr.matrix.toarray(), np.kron(block, e01))
        assert corr.matrix is corr.__dict__["matrix"]

    def test_annihilates_constants(self, corr_quad, ops_quad):
        assert np.abs(corr_quad.matrix @ ops_quad.const_vec).max() <= 1e-12

    def test_kills_velocity_averaged_states(self, corr_quad, ops_quad):
        f = random_mean_zero(ops_quad, 5)
        slow = phase_pi_v(ops_quad) @ f
        assert np.abs(corr_quad.matrix @ slow).max() <= 1e-12

    def test_range_in_velocity_average(self, corr_quad, ops_quad):
        f = random_mean_zero(ops_quad, 6)
        af = corr_quad.matrix @ f
        assert np.abs(af - phase_pi_v(ops_quad) @ af).max() <= 1e-12

    def test_structure_for_every_potential(self, corr_quad, corr_dw, ops_cos):
        corr_cos = corrector_module.build_corrector(ops_cos)
        for corr in (corr_quad, corr_dw, corr_cos):
            pi = phase_pi_v(corr.ops)
            f = random_mean_zero(corr.ops, 21)
            af = corr.matrix @ f
            assert np.abs(af - pi @ af).max() <= 1e-12
            assert np.abs(corr.matrix @ (pi @ f)).max() <= 1e-12

    def test_identity_on_slow_transport(self, corr_quad, ops_quad):
        # A (L_a Pi_v) agrees with the resolvent form (m - L_o)^{-1}(-L_o) Pi_v
        # exactly: the assembly closes the product identity.
        lapi = (ops_quad.la @ phase_pi_v(ops_quad)).tocsr()
        lhs = (corr_quad.matrix @ lapi).toarray()
        m = ops_quad.m_h
        n_x = ops_quad.n_x
        lo = ops_quad.lo_x.toarray()
        resolvent = sla.solve(m * np.eye(n_x) - lo, -lo, assume_a="pos")
        e00 = np.zeros((ops_quad.n_v, ops_quad.n_v))
        e00[0, 0] = 1.0
        rhs = np.kron(resolvent, e00)
        scale = np.abs(ops_quad.lo_x).max()
        assert np.abs(lhs - rhs).max() <= 1e-10 * scale

    def test_substituted_product_identity(self, corr_quad, ops_quad):
        # same comparison with the derived product (L_a Pi_v)^T (L_a Pi_v)
        lapi = (ops_quad.la @ phase_pi_v(ops_quad)).tocsr()
        lhs = (corr_quad.matrix @ lapi).toarray()
        m = ops_quad.m_h
        prod = (lapi.T @ lapi).toarray()
        shifted = m * np.eye(ops_quad.n) - phase_lo(ops_quad).toarray()
        rhs = sla.solve(shifted, prod, assume_a="pos")
        scale = np.abs(ops_quad.lo_x).max()
        assert np.abs(lhs - rhs).max() <= 1e-10 * scale


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
        norm_a = max(corrector_module.operator_norm(dense_block(corr_quad)),
                     1.0 / (2 * np.sqrt(m)))
        rng = np.random.default_rng(11)
        for t in (0.1, 0.5, 0.9):
            eps = 0.9 * np.sqrt(m) * t
            for _ in range(33):
                f = ops_quad.mean_zero_unit(rng.standard_normal(ops_quad.n))
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


SMALL_POTENTIALS = {
    "quadratic": lambda: model.quadratic(1.0),
    "double_well": model.double_well,
    "cosine_bump": lambda: model.cosine_bump(2.0),
}


class TestOperatorNorm:
    def test_dense_small_matrix(self):
        M = np.diag([3.0, 1.0, -4.0])
        assert corrector_module.operator_norm(M) == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("n_x,n_v", [(64, 12), (128, 20)])
    @pytest.mark.parametrize("potential", sorted(SMALL_POTENTIALS))
    def test_gram_eigenvalue_matches_svd(self, potential, n_x, n_v):
        ops = make_ops(SMALL_POTENTIALS[potential](), n_x=n_x, n_v=n_v)
        b, g = dense_block(corrector_module.build_corrector(ops)), ops.grad_x
        gut = corrector_module.singular_pairs(ops)[2]  # (Grad U) diag(t)
        for block in (b, g @ b, b @ g.T, gut):
            svd = sla.svdvals(block)[0]
            assert abs(corrector_module.operator_norm(block) - svd) <= 1e-14 * svd


def mode_loop_corrector(ops):
    """A assembled one Hermite mode at a time from the phase-space form
    (m_h - L_o)^{-1} (L_a Pi_v)^T, without using its block structure."""
    n_x, n_v = ops.n_x, ops.n_v
    chol = sla.cho_factor(ops.m_h * np.eye(n_x) - ops.lo_x)
    rhs = (-(phase_pi_v(ops) @ ops.la)).tocsr()
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


class TestBlockReduction:
    """The bound norms come from the singular pairs of Grad and the corrector
    from the factors of m_h - L_o; at 64x12 they are compared with the full
    phase-space matrices."""

    @pytest.fixture(scope="class", params=sorted(SMALL_POTENTIALS))
    def corr_small(self, request):
        ops = make_ops(SMALL_POTENTIALS[request.param](), n_x=64, n_v=12)
        return corrector_module.build_corrector(ops)

    def test_matrix_matches_mode_loop_assembly(self, corr_small):
        old = mode_loop_corrector(corr_small.ops).toarray()
        new = corr_small.matrix.toarray()
        assert np.array_equal(old != 0.0, new != 0.0)
        assert np.abs(old - new).max() <= 1e-14 * np.abs(new).max()

    def test_apply_matches_matrix(self, corr_small):
        x = np.random.default_rng(3).standard_normal(corr_small.ops.n)
        A = corr_small.matrix
        expected = (A + A.T) @ x
        got = corr_small.apply_symmetric(x)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_block_norms_match_full_dense_svd(self, corr_small):
        ops, A = corr_small.ops, corr_small.matrix
        fast = sp.identity(ops.n, format="csr") - phase_pi_v(ops)
        full = [
            sla.svdvals(m.toarray())[0]
            for m in (A, ops.la @ A, A @ ops.la @ fast)
        ]
        report = corrector_module.verify_corrector_bounds(corr_small)
        blocks = [report["norm_A"], report["norm_LaA"], report["norm_ALa_fast"]]
        assert np.allclose(blocks, full, rtol=1e-12, atol=0.0)

    def test_norm_a_attains_bound(self, corr_quad, corr_dw, ops_cos):
        # its ratio is 1 up to rounding, on either side, and the allowance
        # n_x^2 eps covers that rounding
        for corr in (corr_quad, corr_dw, corrector_module.build_corrector(ops_cos)):
            report = corrector_module.verify_corrector_bounds(corr)
            assert report["norm_A_exact_residual"] <= 1e-12
            allowance = report["ratio_allowance"]
            assert allowance == corr.ops.n_x**2 * np.finfo(float).eps
            assert abs(report["ratios"][0] - 1) <= allowance

    def test_double_well_fine_norm_la_a(self):
        # exact value 0.9999698; the top of the spectrum is clustered, so an
        # iterative estimate stopped on stagnation reads low
        ops = make_ops(model.double_well(), n_x=512, n_v=32)
        report = corrector_module.verify_corrector_bounds(
            corrector_module.build_corrector(ops))
        assert report["norm_LaA"] >= 0.99996
        assert report["norm_LaA"] < 1.0


class TestCorrectorBounds:
    def test_quadratic_within_tolerance(self, corr_quad):
        report = corrector_module.verify_corrector_bounds(corr_quad)
        assert all(r - 1 <= report["ratio_allowance"] for r in report["ratios"])

    def test_double_well_within_tolerance(self, corr_dw):
        report = corrector_module.verify_corrector_bounds(corr_dw)
        assert all(r - 1 <= report["ratio_allowance"] for r in report["ratios"])


class TestFactorPath:
    """The closed forms, the one measured norm and S f against the dense block
    B that Corrector.matrix assembles, and the eigensolves the stage makes."""

    @pytest.fixture(scope="class", params=[17, 64, 512])
    def corr_nodes(self, request):
        ops = make_ops(model.double_well(), n_x=request.param, n_v=8)
        return corrector_module.build_corrector(ops)

    def test_closed_forms_match_the_dense_gram_norms(self, corr_nodes):
        ops, norm = corr_nodes.ops, corrector_module.operator_norm
        b, g = dense_block(corr_nodes), ops.grad_x
        dense = [norm(b), norm(g @ b), np.sqrt(2.0) * norm(b @ g.T)]
        report = corrector_module.verify_corrector_bounds(corr_nodes)
        got = [report["norm_A"], report["norm_LaA"], report["norm_ALa_fast"]]
        sigma, t, block, _ = corrector_module.singular_pairs(ops)
        assert got == [t.max(), (sigma * t).max(), np.sqrt(2.0) * norm(block)]
        allowance = report["ratio_allowance"]
        for name, x, y in zip(("A", "LaA", "ALa_fast"), got, dense):
            assert abs(x - y) <= allowance * y, name

    def test_factor_path_matches_the_dense_block(self, corr_nodes):
        A = corr_nodes.matrix
        for seed in range(3):
            x = np.random.default_rng(40 + seed).standard_normal(corr_nodes.ops.n)
            expected = (A + A.T) @ x
            got = corr_nodes.apply_symmetric(x)
            assert np.linalg.norm(got - expected) <= 5e-14 * np.linalg.norm(expected)

    @staticmethod
    def count_eigensolves(monkeypatch):
        """Calls of scipy.linalg's tridiagonal eigensolve, of its eigvalsh
        (operator_norm's Gram eigensolve) and of its eigh (a Newton step)."""
        counts = {"eigh_tridiagonal": 0, "eigvalsh": 0, "eigh": 0}
        for name in counts:
            def counted(*args, _name=name, _solve=getattr(sla, name), **kwargs):
                counts[_name] += 1
                return _solve(*args, **kwargs)
            monkeypatch.setattr(sla, name, counted)
        return counts

    def test_verify_makes_one_tridiagonal_eigensolve_and_one_gram(self, monkeypatch):
        # the bounds and the min-eig share the singular pairs
        counts = self.count_eigensolves(monkeypatch)
        report = cli_module.run_experiment(
            "verify", cli_module.build_config({"grid.N_x": "64", "grid.N_v": "12"}))
        steps = report.results["corrector"]["min_eig_newton_steps"]
        assert counts == {"eigh_tridiagonal": 1, "eigvalsh": 1, "eigh": steps}

    def test_min_eig_makes_one_tridiagonal_eigensolve(self, monkeypatch):
        corr, eps, gamma = tuned_corrector("double_well", 64, 12)
        counts = self.count_eigensolves(monkeypatch)
        steps = corrector_module.dissipation_form_min_eig(corr, eps, gamma)[3]
        assert counts == {"eigh_tridiagonal": 1, "eigvalsh": 0, "eigh": steps}

    @pytest.mark.parametrize("command", ["verify", "evolve"])
    def test_runs_never_form_the_dense_block(self, command, monkeypatch):
        def refuse(self):
            raise AssertionError("Corrector.matrix was read")

        monkeypatch.setattr(corrector_module.Corrector, "matrix", property(refuse))
        report = cli_module.run_experiment(command, cli_module.build_config(
            {"grid.N_x": "32", "grid.N_v": "6", "evolve.t_end_factor": "0.5"}))
        assert not report.failed


class TestDissipationFormMinEig:
    def test_coercive_at_tuned_parameters(self, corr_quad, ops_quad, tuned_quad):
        min_eig, residual, cap, _ = corrector_module.dissipation_form_min_eig(
            corr_quad, tuned_quad.eps_star, tuned_quad.gamma_star
        )
        assert min_eig - residual >= tuned_quad.lambda_coer
        assert 0.0 <= residual <= min(cap, 1e-12)

    def test_vanishing_eps_loses_coercivity(self, corr_quad, tuned_quad):
        # without the corrector term the slow subspace is undamped
        min_eig, _, _, _ = corrector_module.dissipation_form_min_eig(
            corr_quad, 0.0, tuned_quad.gamma_star
        )
        assert abs(min_eig) <= 1e-8

    def test_coercive_at_256x20(self):
        ops = make_ops(model.quadratic(1.0), n_x=256, n_v=20)
        corr = corrector_module.build_corrector(ops)
        tuned = tuning.optimize_friction(ops.m_h, 0.0)
        min_eig, residual, cap, _ = corrector_module.dissipation_form_min_eig(
            corr, tuned.eps_star, tuned.gamma_star
        )
        assert residual <= cap
        assert min_eig - residual >= tuned.lambda_coer

    def test_form_matches_dissipation(self, corr_quad_small, ops_quad_small):
        tuned = tuning.optimize_friction(ops_quad_small.m_h, 0.0)
        eps, gamma = tuned.eps_star, tuned.gamma_star
        q = dissipation_form(functional(corr_quad_small, eps, gamma))
        for seed in range(5):
            f = random_mean_zero(ops_quad_small, 300 + seed)
            expected = dissipation(f, corr_quad_small, eps, gamma)
            assert f @ (q @ f) == pytest.approx(expected, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("potential", sorted(SMALL_POTENTIALS))
    def test_form_decouples_above_mode_2(self, potential):
        ops = make_ops(SMALL_POTENTIALS[potential](), n_x=64, n_v=12)
        tuned = tuning.optimize_friction(ops.m_h, ops.grid.potential.K)
        gamma = tuned.gamma_star
        Q = dissipation_form(
            functional(corrector_module.build_corrector(ops), tuned.eps_star, gamma)).toarray()
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
        corr = corrector_module.build_corrector(ops)
        tuned = tuning.optimize_friction(ops.m_h, ops.grid.potential.K)
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
        corr = corrector_module.build_corrector(ops)
        tuned = tuning.optimize_friction(ops.m_h, ops.grid.potential.K)
        eps, gamma = tuned.eps_star, tuned.gamma_star
        min_eig, residual, _, _ = corrector_module.dissipation_form_min_eig(corr, eps, gamma)
        # dense eigensolve of the full form on an orthonormal basis of the
        # mean-zero subspace
        Q = dissipation_form(functional(corr, eps, gamma)).toarray()
        basis = sla.null_space(ops.const_vec[None, :])
        dense_min = sla.eigvalsh(basis.T @ Q @ basis)[0]
        assert abs(min_eig - dense_min) <= 1e-12
        # the eigenvector's residual keeps min_eig - residual a lower bound
        assert 0.0 <= residual <= 1e-12


@functools.lru_cache(maxsize=None)
def tuned_corrector(potential, n_x, n_v):
    """Corrector and tuned (eps*, gamma*) at one grid, built once per module."""
    ops = make_ops(SMALL_POTENTIALS[potential](), n_x=n_x, n_v=n_v)
    tuned = tuning.optimize_friction(ops.m_h, ops.grid.potential.K)
    return corrector_module.build_corrector(ops), tuned.eps_star, tuned.gamma_star


def dense_min_eig(corr, eps, gamma):
    """Smallest eigenvalue of the dense mode 0-2 block on an orthonormal basis
    of the complement of the mean direction."""
    u = np.zeros(3 * corr.ops.n_x)
    u[::3] = corr.ops.grid.sqrt_weights
    basis = sla.null_space(u[None, :])
    return sla.eigvalsh(basis.T @ dissipation_block(corr, eps, gamma) @ basis)[0]


# (eps, gamma) as multiples of (eps*, gamma*): tuned, no corrector, a large
# eps, and friction far below (root within rounding of the pole) and far
# above gamma* (indefinite Q)
OPERATING_POINTS = {
    "tuned": (1.0, 1.0),
    "eps0": (0.0, 1.0),
    "3eps": (3.0, 1.0),
    "gamma_over_20": (1.0, 1 / 20),
    "50gamma": (1.0, 50.0),
}


class TestSecularSolve:
    """The secular solve against a dense eigensolve of the closed-form block."""

    @pytest.mark.parametrize("potential", sorted(SMALL_POTENTIALS))
    def test_apply_form_matches_reference_form(self, potential):
        corr, eps, gamma = tuned_corrector(potential, 64, 12)
        fn = functional(corr, eps, gamma)
        Q = dissipation_form(fn)
        for seed in range(3):
            f = np.random.default_rng(11 + seed).standard_normal(corr.ops.n)
            expected = Q @ f
            got = fn.apply_form(f)
            assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)

    @pytest.mark.parametrize("point", list(OPERATING_POINTS))
    @pytest.mark.parametrize("n_x, n_v", [(16, 4), (64, 12), (128, 20)])
    @pytest.mark.parametrize("potential", sorted(SMALL_POTENTIALS))
    def test_matches_dense_block(self, potential, n_x, n_v, point):
        corr, eps_star, gamma_star = tuned_corrector(potential, n_x, n_v)
        eps = OPERATING_POINTS[point][0] * eps_star
        gamma = OPERATING_POINTS[point][1] * gamma_star
        min_eig, residual, _, _ = corrector_module.dissipation_form_min_eig(corr, eps, gamma)
        dense_min = dense_min_eig(corr, eps, gamma)
        assert abs(min_eig - dense_min) <= 1e-12 * max(1.0, abs(dense_min))
        assert 0.0 <= residual <= 1e-12

    def test_matches_dense_block_at_512x32(self):
        corr, eps, gamma = tuned_corrector("double_well", 512, 32)
        min_eig, residual, _, _ = corrector_module.dissipation_form_min_eig(corr, eps, gamma)
        dense_min = dense_min_eig(corr, eps, gamma)
        assert abs(min_eig - dense_min) <= 1e-12 * max(1.0, abs(dense_min))
        # the singular pairs of Grad are accurate to eps ||Grad^T Grad||
        assert 0.0 <= residual <= 1e-11

    def test_residual_sees_a_broken_generator(self, monkeypatch):
        # la's Hermite mode 1 <-> 2 coupling made 1.5x too large, in both
        # directions: la stays antisymmetric and kills constants, but
        # la_square sees its mode-2 block 1.5x too large, and the coercivity
        # residual, measured on the assembled generator, is far above its
        # rounding level
        def broken(*args):
            ops = discretize.assemble_operators(*args)
            la = ops.la.tocoo()
            k, l = la.row % ops.n_v, la.col % ops.n_v
            la.data[((k == 1) & (l == 2)) | ((k == 2) & (l == 1))] *= 1.5
            ops.la = la.tocsr()
            return ops

        monkeypatch.setattr(cli_module, "assemble_operators", broken)
        report = cli_module.run_experiment(
            "verify", cli_module.build_config({"grid.N_x": "32", "grid.N_v": "6"}))
        exact = report.results["structure"]["exact"]
        assert exact["la_antisymmetry"] == 0.0
        assert exact["la_square"] == pytest.approx(0.5, rel=1e-12)
        corrector = report.results["corrector"]
        assert corrector["min_eig_residual"] > 1e3 * corrector["min_eig_residual_cap"]
        statuses = {v["name"]: v["status"] for v in report.verdicts}
        assert statuses["structure_exact"] == "fail"
        assert statuses["dissipation_coercive"] == "fail"

    def test_residual_sees_a_wrong_symmetric_part(self, monkeypatch):
        # the factor path's S f made 1e-6 too large: the closed-form blocks
        # of the secular solve never read it, so the residual, measured with
        # the corrector's S f on the assembled generator, is what sees it
        apply = corrector_module.Corrector.apply_symmetric
        monkeypatch.setattr(corrector_module.Corrector, "apply_symmetric",
                            lambda self, x: apply(self, x) * (1 + 1e-6))
        report = cli_module.run_experiment(
            "verify", cli_module.build_config({"grid.N_x": "64", "grid.N_v": "12"}))
        corrector = report.results["corrector"]
        assert corrector["min_eig_residual"] > corrector["min_eig_residual_cap"]
        failed = [v["name"] for v in report.verdicts if v["status"] == "fail"]
        assert failed == ["dissipation_coercive"]

    @pytest.mark.parametrize("gamma", ["gamma_star", 16.0])
    @pytest.mark.parametrize("potential, n_x, n_v", [
        ("quadratic", 128, 20), ("double_well", 512, 32), ("cosine_bump", 128, 20)])
    def test_newton_steps_stay_below_the_cap(self, potential, n_x, n_v, gamma):
        # 3 eigensolves at gamma*, 2-3 at gamma = 16
        corr, eps, gamma_star = tuned_corrector(potential, n_x, n_v)
        gamma = gamma_star if gamma == "gamma_star" else gamma
        steps = corrector_module.dissipation_form_min_eig(corr, eps, gamma)[3]
        assert 1 <= steps < corrector_module.NEWTON_CAP

    def test_newton_steps_in_the_report(self):
        cfg = cli_module.build_config({"grid.N_x": "32", "grid.N_v": "6"})
        report = cli_module.run_experiment("verify", cfg)
        ws = cli_module._Workspace(cfg)
        steps = corrector_module.dissipation_form_min_eig(ws.corrector, ws.eps, ws.gamma)[3]
        assert report.results["corrector"]["min_eig_newton_steps"] == steps

    def test_newton_cap_raises(self, monkeypatch):
        corr, eps, gamma = tuned_corrector("quadratic", 64, 12)
        monkeypatch.setattr(corrector_module, "NEWTON_CAP", 1)
        with pytest.raises(NumericalError, match="secular Newton"):
            corrector_module.dissipation_form_min_eig(corr, eps, gamma)

    def test_newton_cap_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(corrector_module, "NEWTON_CAP", 1)
        assert main(["verify", "--nx", "64", "--nv", "12"]) == 3
        assert "secular Newton" in capsys.readouterr().err


def allocation_peak(fn, *args):
    """fn(*args) and the most bytes it held at once, by tracemalloc."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestSameBits:
    """The corrector stage hands LAPACK F-ordered views instead of copies: the
    transpose of an exactly symmetric X^T X, and the dense Grad^T that
    Corrector.matrix solves into.  It forms Grad X, and apply_symmetric's
    Grad^T x and Grad x, from Grad's two bands, with the bits of the sparse
    products.  That holds only while numpy forms X^T X exactly symmetric,
    scipy solves the views in place and the band products sum as scipy's
    sparse kernels do; a release that breaks any of them fails here."""

    @pytest.fixture(scope="class", params=[17, 64, 512])
    def corr_blocks(self, request):
        ops = make_ops(model.double_well(), n_x=request.param, n_v=8)
        corr = corrector_module.build_corrector(ops)
        eps = tuning.optimize_friction(ops.m_h, ops.grid.potential.K).eps_star
        block = corrector_module.singular_pairs(ops)[2]
        c_t = block * (-eps / np.sqrt(2.0))  # as _secular_root scales it
        return corr, {"(Grad U) diag(t)": block, "C^T": c_t}

    def test_grams_are_exactly_symmetric(self, corr_blocks):
        for name, x in corr_blocks[1].items():
            gram = x.T @ x
            assert np.array_equal(gram, gram.T), name

    def test_operator_norm_matches_the_copying_eigensolve(self, corr_blocks):
        for name, x in corr_blocks[1].items():
            n = x.shape[1]
            copied = np.sqrt(sla.eigvalsh(x.T @ x, subset_by_index=[n - 1, n - 1])[0])
            assert corrector_module.operator_norm(x) == copied, name

    def test_secular_eigensolve_of_the_view_matches_the_copy(self, corr_blocks):
        c_t = corr_blocks[1]["C^T"]
        s = c_t.T @ c_t * -0.25
        s[np.diag_indices_from(s)] += np.linspace(0.0, 1.0, len(s))
        mu, w = sla.eigh(s, subset_by_index=[0, 0])
        mu_view, w_view = sla.eigh(s.T, overwrite_a=True, check_finite=False,
                                   subset_by_index=[0, 0])
        assert mu_view[0] == mu[0]
        assert np.array_equal(w_view, w)

    def test_block_is_f_ordered(self, corr_blocks):
        # the dense Grad^T that Corrector.matrix solves B into, in place
        corr = corr_blocks[0]
        rhs = corr.ops.grad_x.T.toarray()
        assert rhs.flags.f_contiguous
        assert np.shares_memory(corr.solve(rhs, overwrite_b=True)[0], rhs)

    def test_band_product_matches_the_sparse_product(self, corr_blocks):
        # V is F-ordered and Grad V C-ordered; the product is C-ordered for
        # each, as the sparse product is, which keeps the bits of the syrk
        # and gemv that read it
        ops = corr_blocks[0].ops
        right = corrector_module.singular_pairs(ops)[3]
        for name, x in {"V": right, "Grad V": ops.grad_x @ right}.items():
            got = corrector_module._grad_dense(ops, x)
            assert np.array_equal(got, ops.grad_x @ x), name
            assert got.flags.c_contiguous, name

    def test_transposed_band_product_matches_the_sparse_product(self, corr_blocks):
        # apply_symmetric forms Grad^T x_1 and Grad z from Grad's bands, so
        # each solve, and S x, has the bits of the sparse products
        corr = corr_blocks[0]
        ops, n_v = corr.ops, corr.ops.n_v
        x = np.random.default_rng(5).standard_normal(ops.n)
        got = corr.apply_symmetric(x)
        assert np.array_equal(got[::n_v], corr.solve(ops.grad_x.T @ x[1::n_v])[0])
        assert np.array_equal(got[1::n_v], ops.grad_x @ corr.solve(x[::n_v])[0])

    def test_lift_forms_u_y_from_v(self, corr_blocks):
        # the lift takes U y = Grad (V (y / sigma)) without forming U or
        # solving for the pairs a second time: U = Grad V / sigma to rounding
        ops = corr_blocks[0].ops
        sigma, _, _, right = corrector_module.singular_pairs(ops)
        y = np.random.default_rng(7).standard_normal(len(sigma))
        zero = np.zeros(len(sigma))
        got = corrector_module._lift(ops, right, zero, y / sigma, np.zeros(ops.n_x))
        expected = np.zeros((ops.n_x, ops.n_v))
        expected[:, 1] = (ops.grad_x @ right / sigma) @ y
        expected = ops.mean_zero_unit(expected.ravel())
        assert np.abs(got - expected).max() <= 1e-14

    def test_lapack_copies_no_dense_operand(self):
        # a copy of an n_x x n_x operand would double each peak below
        n_x = 256
        ops = make_ops(model.double_well(), n_x=n_x, n_v=8)
        unit, work = 8 * n_x * n_x, 8 * 128 * n_x
        _, peak = allocation_peak(corrector_module.build_corrector, ops)
        assert peak <= work  # the tridiagonal factors and Grad's bands
        block = corrector_module.singular_pairs(ops)[2]
        _, peak = allocation_peak(corrector_module.operator_norm, block)
        assert peak <= unit + work  # the Gram matrix
        s = block.T @ block
        _, peak = allocation_peak(functools.partial(
            sla.eigh, overwrite_a=True, check_finite=False, subset_by_index=[0, 0]), s.T)
        assert peak <= work
        _, peak = allocation_peak(corrector_module._grad_dense, ops, block)
        assert peak <= unit + work  # the product; grad_x @ X holds two


def corrector_stage_bytes(n_x, n_v):
    """Most bytes build_corrector, verify_corrector_bounds and
    dissipation_form_min_eig hold at once: three dense n_x x n_x arrays and
    64 doubles a node, while the dense blocks live; or 40 doubles a
    phase-space entry, while apply_form runs on the assembled generator (L,
    a CSR copy of L^T and L + L^T, at about five 12-byte nonzeros a row, and
    the phase-space vectors).  The two never overlap, and the corrector
    itself holds O(n_x) bytes.

    The 64 doubles a node are counted at the secular eigensolve, where V,
    C^T and S live: syevr's work and int32 iwork as scipy queries them, 33 n
    and 10 n (38 doubles a node), its eigenvalues, eigenvector and
    isuppz (3), and the Newton loop's twelve vectors (sigma, t, a, b, b^2,
    c, d, root, e, c - lam, the last w and z).  That is 53; the rest is for
    the interpreter's own allocations.  The other phases hold less: stevd's
    n^2 + 4 n work and 5 n int32 iwork beside V; V, Grad V and
    Grad (Grad V); the block (Grad U) diag(t) and its Gram matrix with
    syevr's 38."""
    dense = 3 * n_x * n_x + 64 * n_x
    phase = 40 * n_x * n_v
    return 8 * max(dense, phase)


@pytest.mark.parametrize("potential, n_x, n_v", [
    ("double_well", 256, 32), ("double_well", 512, 32), ("cosine_bump", 256, 20),
    ("double_well", 1024, 8),
])
def test_corrector_stage_peak_holds_three_position_arrays(potential, n_x, n_v):
    # the dense phase sets the peak at 1024 x 8, apply_form at the others
    ops = make_ops(SMALL_POTENTIALS[potential](), n_x=n_x, n_v=n_v)
    tuned = tuning.optimize_friction(ops.m_h, ops.grid.potential.K)

    def stage():
        corr = corrector_module.build_corrector(ops)
        corrector_module.verify_corrector_bounds(corr)
        return corrector_module.dissipation_form_min_eig(
            corr, tuned.eps_star, tuned.gamma_star)

    _, peak = allocation_peak(stage)
    assert peak <= corrector_stage_bytes(n_x, n_v)


@pytest.mark.parametrize("n_x, n_v", [(512, 32), (1024, 8)])
def test_shared_pairs_peak_holds_three_position_arrays(n_x, n_v):
    # the CLI's stage: one eigensolve, whose V lives through the bounds, and
    # which the min-eig empties so that apply_form runs without V or C^T
    ops = make_ops(model.double_well(), n_x=n_x, n_v=n_v)
    tuned = tuning.optimize_friction(ops.m_h, ops.grid.potential.K)

    def stage():
        corr = corrector_module.build_corrector(ops)
        pairs = corrector_module.singular_pairs(ops)
        corrector_module.verify_corrector_bounds(corr, pairs)
        result = corrector_module.dissipation_form_min_eig(
            corr, tuned.eps_star, tuned.gamma_star, pairs)
        assert pairs == []
        return result

    _, peak = allocation_peak(stage)
    assert peak <= corrector_stage_bytes(n_x, n_v)


class TestBochner:
    def test_constant_function_zero_residual(self, ops_quad):
        r = corrector_module.bochner_residual(ops_quad, np.ones(ops_quad.n_x))
        assert abs(r) <= 1e-20

    def test_refinement_is_second_order(self):
        residuals = []
        for n_x in (64, 128, 256):
            ops = make_ops(model.quadratic(1.0), n_x=n_x, n_v=4)
            residuals.append(abs(corrector_module.bochner_residual(ops, ops.grid.nodes**2)))
        assert residuals[0] > residuals[1] > residuals[2]
        for coarse, fine in zip(residuals, residuals[1:]):
            assert 3.0 <= coarse / fine <= 7.0

    def test_double_well_inequality_with_k(self):
        # K_h <= K, so ||D^2 h||^2 <= ||L_o h||^2 + K ||D h||^2 holds for
        # every h, the suite's functions among them
        ops = make_ops(model.double_well(), n_x=256, n_v=4)
        K = ops.grid.potential.K
        assert 0.0 <= K - discretize.discrete_curvature(ops.grid).max() <= 1e-3
        for name, values in discretize.bochner_test_suite(ops.grid).items():
            if name != "one":  # both sides are roundoff
                g1 = ops.grad_x @ (ops.grid.sqrt_weights * values)
                g2 = ops.grad_x @ g1
                lo_h = -(ops.grad_x.T @ g1)
                assert g2 @ g2 <= lo_h @ lo_h + K * (g1 @ g1), name

    def test_witness_breaks_the_inequality_above_k(self, ops_cos):
        # cosine_bump(2) has K = 1, but its grid curvature peaks at
        # K_h = 2.21 near x = 2 pi at N_x = 128: the h with Grad h = e_j,
        # j = argmax c, breaks the discrete inequality
        curvature = discretize.discrete_curvature(ops_cos.grid)
        j = int(np.argmax(curvature))
        e = np.zeros(ops_cos.n_x)
        e[j] = 1.0
        h = np.linalg.lstsq(ops_cos.grad_x.toarray(), e, rcond=None)[0]
        g1 = ops_cos.grad_x @ h
        assert np.abs(g1 - e).max() <= 1e-12
        g2, lo_h, K = ops_cos.grad_x @ g1, ops_cos.lo_x @ h, ops_cos.grid.potential.K
        lhs, rhs = g2 @ g2, lo_h @ lo_h + K * (g1 @ g1)
        assert curvature[j] == pytest.approx(2.2092, abs=1e-4)
        # ||D^2 h||^2 - ||L_o h||^2 = sum_i c_i (D h)_i^2 = c_j
        assert lhs - (rhs - K) == pytest.approx(curvature[j], rel=1e-12)
        assert (rhs - lhs) / rhs == pytest.approx(-0.0060, abs=1e-4)

    @pytest.mark.parametrize("potential", [
        model.quadratic(), model.double_well(), model.cosine_bump(1.0)],
        ids=["quadratic", "double_well", "cosine_bump"])
    def test_grid_curvature_below_k(self, potential):
        for n_x in range(16, 513):
            grid = discretize.build_grid(potential, potential.domain, n_x)
            assert discretize.discrete_curvature(grid).max() < potential.K, n_x

    def test_suite_contents(self, ops_quad):
        suite = discretize.bochner_test_suite(ops_quad.grid)
        assert set(suite) == {"one", "hermite1", "hermite2", "gauss_bump", "sine",
                              "tanh"}
