import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.blas import dtbsv

import hypolab.cli as cli
from hypolab import corrector, discretize, evolve, model, tuning
from hypolab.evolve import DT_GUARD, band_lu, lyapunov_identity
from hypolab.errors import (
    ConfigurationError,
    DegenerateTraceError,
    NumericalError,
    PreconditionError,
)

from conftest import make_ops, mp_gap_vector, phase_lo, random_mean_zero

POTENTIALS = {
    "quadratic": lambda: model.quadratic(1.0),
    "double_well": model.double_well,
    "cosine_bump": lambda: model.cosine_bump(2.0),
}


def tuned_system(kind, n_x, n_v):
    """(ops, corrector, tuning, M = I - (dt/2) L, L, dt) at gamma_star and the
    largest step the guard allows, dt = DT_GUARD / gamma_star."""
    ops = make_ops(POTENTIALS[kind](), n_x=n_x, n_v=n_v)
    tuned = tuning.optimize_friction(ops.m_h, ops.grid.potential.K)
    dt = DT_GUARD / tuned.gamma_star
    L = discretize.compose_generator(ops, tuned.gamma_star)
    M = sp.identity(ops.n, format="csr") - (dt / 2) * L
    return ops, corrector.build_corrector(ops), tuned, M, L, dt


def dense_factors(lu, n):
    """The unit-lower and upper factors of a BandLU as dense matrices."""
    lower = np.eye(n)
    for r in range(1, lu.kl + 1):
        lower += np.diag(lu.lower[r, :n - r], -r)
    upper = np.zeros((n, n))
    for r in range(lu.ku + 1):
        upper += np.diag(lu.upper[lu.ku - r, r:], r)
    return lower, upper


def synthetic_trace(times, norms):
    n = len(times)
    return evolve.DecayTrace(
        dt=times[1] - times[0],
        times=np.asarray(times, dtype=float),
        norm=np.asarray(norms, dtype=float),
        lyap=np.zeros(n),
        diss=np.zeros(n),
        diss_mid=np.zeros(n - 1),
        bound=np.full(n, np.inf),
        mean=np.zeros(n),
    )


class TestInitialConditions:
    @pytest.mark.parametrize("kind", ["gap", "velocity", "random"])
    def test_mean_zero_unit_norm(self, ops_quad_small, kind):
        f = evolve.initial_condition(ops_quad_small, kind, seed=3)
        assert abs(ops_quad_small.mean(f)) <= 1e-12
        assert np.linalg.norm(f) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("kind", ["gap", "velocity", "random"])
    @pytest.mark.parametrize("potential, n_x, n_v", [
        (model.double_well(8.0), 128, 20), (model.quadratic(8.0), 32, 6)],
        ids=["double_well_8", "quadratic_8"])
    def test_mean_zero_unit_norm_on_steep_grids(self, potential, n_x, n_v, kind):
        # the select eigensolve's gap vector has weighted mean 2.5e-6 and
        # 1.0e-7 here: every kind goes through the one projection
        ops = make_ops(potential, n_x=n_x, n_v=n_v)
        f = evolve.initial_condition(ops, kind, seed=3)
        assert abs(ops.mean(f)) <= evolve.MEAN_TOL
        assert np.linalg.norm(f) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("potential, n_x", [
        (model.double_well(8.0), 128), (model.quadratic(8.0), 16),
        (model.quadratic(8.0), 24), (model.quadratic(8.0), 32),
        (model.double_well(5.0), 64), (model.double_well(12.0), 64)],
        ids=["double_well_8_128", "quadratic_8_16", "quadratic_8_24",
             "quadratic_8_32", "double_well_5_64", "double_well_12_64"])
    def test_gap_kind_is_grads_gap_singular_vector_on_a_steep_grid(self, potential, n_x):
        # projected, the gap state is Grad's right singular vector at its
        # smallest nonzero singular value, against a 60-digit reference
        # (numpy's SVD vector is 1.0 off it at double_well 12 on 64 nodes)
        ops = make_ops(potential, n_x=n_x, n_v=4)
        vec = evolve.initial_condition(ops, "gap")[::ops.n_v]
        assert 1 - abs(mp_gap_vector(ops.grid) @ vec) <= 1e-12

    def test_gap_kind_singular_solve_raises(self, ops_quad_small, monkeypatch):
        # dgtsv's info > 0 names an exactly zero pivot of -L_o - m_h I
        import scipy.linalg.lapack as lapack

        monkeypatch.setattr(lapack, "dgtsv", lambda dl, d, du, b: (dl, d, du, b, 3))
        with pytest.raises(NumericalError, match="info 3"):
            evolve.initial_condition(ops_quad_small, "gap")

    def test_zero_kind(self, ops_quad_small):
        # f = 0 would meet every evolve verdict by construction
        with pytest.raises(ConfigurationError, match="'zero'"):
            evolve.initial_condition(ops_quad_small, "zero")

    def test_unknown_kind(self, ops_quad_small):
        with pytest.raises(ConfigurationError):
            evolve.initial_condition(ops_quad_small, "plume")

    def test_gap_kind_is_eigenvector(self, ops_quad_small):
        f = evolve.initial_condition(ops_quad_small, "gap")
        resid = -(phase_lo(ops_quad_small) @ f) - ops_quad_small.m_h * f
        assert np.linalg.norm(resid) <= 1e-10

    @pytest.mark.parametrize("potential", sorted(POTENTIALS))
    def test_gap_kind_matches_dense_eigenvector_with_pinned_sign(self, potential):
        ops = make_ops(POTENTIALS[potential](), n_x=128, n_v=4)
        vec = evolve.initial_condition(ops, "gap")[::ops.n_v]
        dense = sla.eigh(-ops.lo_x.toarray())[1][:, 1]
        assert min(np.abs(vec - dense).max(), np.abs(vec + dense).max()) <= 1e-12
        # positively correlated with position, far from roundoff
        assert (ops.grid.sqrt_weights * ops.grid.nodes) @ vec >= 0.1


class TestIntegrate:
    def test_dt_guard(self, ops_quad_small, corr_quad_small):
        # dt is the largest step: above DT_GUARD / gamma it is clamped there
        f = random_mean_zero(ops_quad_small, 0)
        for dt, taken in ((0.05, DT_GUARD / 4.0), (0.02, 0.02)):
            cn = evolve.crank_nicolson(ops_quad_small, 4.0, dt)
            trace = evolve.integrate(ops_quad_small, f, cn, 1.0,
                                 corrector=corr_quad_small, eps=0.3, Lambda=0.05)
            assert trace.dt == taken
            assert trace.times[1] == taken
            assert len(trace.times) == round(1.0 / taken) + 1

    def test_mean_zero_precondition(self, ops_quad_small, corr_quad_small,
                                    cn_small):
        with pytest.raises(PreconditionError):
            evolve.integrate(ops_quad_small, ops_quad_small.const_vec, cn_small, 1.0,
                         corrector=corr_quad_small, eps=0.3, Lambda=0.05)

    def test_zero_state_trace(self, ops_quad_small, corr_quad_small, cn_small):
        trace = evolve.integrate(ops_quad_small, np.zeros(ops_quad_small.n), cn_small,
                             1.0, corrector=corr_quad_small, eps=0.3, Lambda=0.05)
        assert np.all(trace.norm == 0.0)
        # the bound holds by construction, so there is no margin to report
        with pytest.raises(PreconditionError, match="zero state"):
            evolve.verify_decay_bound(trace)

    def test_eigenvector_decays_at_its_eigenvalue(self, ops_quad_small,
                                                  corr_quad_small):
        L = discretize.compose_generator(ops_quad_small, 4.0).toarray()
        vals, vecs = sla.eig(L)
        order = np.argsort(-vals.real)
        slow = next(i for i in order if -vals[i].real > 1e-9)
        mu = -vals[slow].real
        f0 = ops_quad_small.mean_zero_unit(np.real(vecs[:, slow]))
        trace = evolve.integrate(ops_quad_small, f0,
                             evolve.crank_nicolson(ops_quad_small, 4.0, 0.01), 5.0,
                             corrector=corr_quad_small, eps=0.29, Lambda=0.05)
        predicted = np.exp(-mu * trace.times)
        assert np.abs(trace.norm / trace.norm[0] - predicted).max() <= 1e-4

    def test_mean_conserved(self, quad_trace):
        assert np.abs(quad_trace.mean).max() <= 1e-12

    def test_norm_nonincreasing(self, quad_trace):
        assert np.all(np.diff(quad_trace.norm) <= 1e-14)

    def test_initial_samples(self, quad_trace):
        assert quad_trace.norm[0] == pytest.approx(1.0, rel=1e-12)
        assert quad_trace.bound[0] == pytest.approx(np.sqrt(3.0), rel=1e-12)

    def test_gronwall_envelope(self, quad_trace, tuned_quad):
        envelope = quad_trace.lyap[0] * np.exp(-2 * tuned_quad.Lambda
                                               * quad_trace.times)
        assert np.all(quad_trace.lyap <= envelope * (1 + 1e-6))


class TestBandLU:
    @pytest.mark.parametrize("kind", sorted(POTENTIALS))
    def test_factors_pivots_and_one_step(self, kind):
        ops, _, _, M, L, dt = tuned_system(kind, 64, 12)
        lu = band_lu(M)
        dense = M.toarray()
        assert lu.kl == lu.ku == ops.n_v - 1
        lower, upper = dense_factors(lu, ops.n)
        scale = np.abs(dense).max()
        assert np.abs(lower @ upper - dense).max() <= 1e-14 * scale
        # the symmetric part of M is >= I, so every pivot is >= 1
        assert np.all(lu.upper[lu.ku] > 0)
        assert lu.min_pivot >= 1.0 - 1e-12
        assert lu.growth <= 10.0
        f = random_mean_zero(ops, 5)
        rhs = f + (dt / 2) * (L @ f)
        expected = sla.solve(dense, rhs)
        step = lu.solve(rhs)
        assert np.linalg.norm(step - expected) <= 1e-13 * np.linalg.norm(expected)

    @pytest.mark.parametrize("kind", sorted(POTENTIALS))
    def test_factors_are_two_views_of_one_buffer(self, kind):
        ops, _, _, M, _, _ = tuned_system(kind, 64, 12)
        lu = band_lu(M)
        assert np.shares_memory(lu.lower, lu.upper)
        assert lu.lower.flags.f_contiguous and lu.upper.flags.f_contiguous
        # the same bits as solves with the dense factors packed into compact
        # band arrays, of leading dimension k + 1
        n, kl, ku = ops.n, lu.kl, lu.ku
        lower, upper = dense_factors(lu, n)
        lower_band = np.zeros((kl + 1, n), order="F")
        for r in range(kl + 1):
            lower_band[r, :n - r] = np.diagonal(lower, -r)
        upper_band = np.zeros((ku + 1, n), order="F")
        for r in range(ku + 1):
            upper_band[ku - r, r:] = np.diagonal(upper, r)
        b = random_mean_zero(ops, 7)
        y = dtbsv(kl, lower_band, b, lower=1, diag=1)
        assert np.array_equal(lu.solve(b), dtbsv(ku, upper_band, y))

    @pytest.mark.parametrize("n_x, n_v", [(128, 20), (256, 64)])
    def test_crank_nicolson_holds_one_band_array(self, n_x, n_v):
        ops = make_ops(model.double_well(), n_x=n_x, n_v=n_v)
        gamma = tuning.optimize_friction(ops.m_h, ops.grid.potential.K).gamma_star
        evolve.crank_nicolson(ops, gamma, 0.02)  # the first call allocates one-time caches
        tracemalloc.start()
        try:
            cn = evolve.crank_nicolson(ops, gamma, 0.02)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, kl, ku = ops.n, cn.lu.kl, cn.lu.ku
        band = 8 * ((kl + ku + 1) * n + ku)  # 8 n (2 n_v - 1) bytes and ku doubles
        # bytes a row of what crank_nicolson holds beside the band: L in CSR,
        # at most 5 entries of 8 + 4 bytes and a 4-byte row pointer; M = I -
        # (dt/2) L, whose CSR arrays keep the nnz(I) + nnz(L) <= 6 slots of
        # scipy's sum; band_lu's DIA copy of M's 5 diagonals; and the pivot
        # check's three boolean arrays
        c = (5 * 12 + 4) + (6 * 12 + 4) + 5 * 8 + 3
        # beside at most three kl x ku arrays of the elimination's update: its
        # product and the two buffers numpy's ufunc takes to subtract it from
        # the strided window
        assert peak <= band + c * n + 3 * 8 * kl * ku

    def test_double_well_case_needs_pivoting_under_lapack(self):
        # LAPACK's partially pivoted band LU swaps rows on this matrix, so the
        # pivot-free factorization of test_factors_pivots_and_one_step is
        # exercised where pivoting would otherwise act
        _, _, _, M, _, _ = tuned_system("double_well", 64, 12)
        dia = sp.dia_matrix(M)
        kl = ku = -int(dia.offsets.min())
        ab = np.zeros((2 * kl + ku + 1, M.shape[0]))
        ab[kl + ku - dia.offsets] = dia.data
        _, piv, info = sla.lapack.dgbtrf(ab, kl, ku)
        assert info == 0
        assert np.any(piv != np.arange(M.shape[0]))

    def test_solve_leaves_its_argument(self):
        _, _, _, M, _, _ = tuned_system("quadratic", 32, 8)
        b = np.arange(M.shape[0], dtype=float)
        band_lu(M).solve(b)
        assert np.all(b == np.arange(M.shape[0]))

    @pytest.mark.parametrize("diagonal", [-0.25, -1.0, np.nan],
                             ids=["zero", "negative", "nan"])
    def test_pivot_guard(self, diagonal):
        # the second pivot is diagonal + 0.25
        m = sp.diags([[1.0, diagonal, 1.0], [0.5, 0.5], [-0.5, -0.5]], [0, 1, -1])
        with pytest.raises(NumericalError, match="column 1"):
            band_lu(m)

    @pytest.mark.parametrize("kind", sorted(POTENTIALS))
    def test_integrate_matches_dense_crank_nicolson(self, kind):
        ops, corr, tuned, M, L, dt = tuned_system(kind, 32, 8)
        f0 = evolve.initial_condition(ops, "random", seed=11)
        cn = evolve.crank_nicolson(ops, tuned.gamma_star, dt)
        trace = evolve.integrate(ops, f0, cn, 50 * dt, corrector=corr,
                             eps=tuned.eps_star, Lambda=tuned.Lambda)
        assert len(trace.times) == 51
        functional = corrector.ModifiedFunctional(corr, L, tuned.eps_star)
        forward = np.eye(ops.n) + (dt / 2) * L.toarray()
        f, ref = f0, []
        for _ in range(51):
            ref.append((np.linalg.norm(f),
                        *functional.values(f, functional.products(f))))
            f = sla.solve(M.toarray(), forward @ f)
        norm, lyap, diss = np.array(ref).T
        np.testing.assert_allclose(trace.norm, norm, rtol=1e-12, atol=0)
        np.testing.assert_allclose(trace.lyap, lyap, rtol=1e-12, atol=0)
        np.testing.assert_allclose(trace.diss, diss, rtol=1e-12, atol=0)
        assert cn.lu.diagnostics() == band_lu(M).diagnostics()


class TestLyapunovIdentity:
    def test_holds_to_roundoff_on_tuned_run(self, quad_trace):
        assert len(quad_trace.diss_mid) == len(quad_trace.times) - 1
        assert lyapunov_identity(quad_trace) <= 1e-12

    @pytest.mark.parametrize("kind", sorted(POTENTIALS))
    def test_holds_off_the_tuned_point(self, kind):
        # the identity is algebraic: any (gamma, eps) satisfies it
        ops, corr, tuned, _, _, _ = tuned_system(kind, 32, 8)
        f0 = evolve.initial_condition(ops, "velocity")
        trace = evolve.integrate(ops, f0, evolve.crank_nicolson(ops, 2.0, 0.02), 2.0,
                             corrector=corr, eps=0.05, Lambda=tuned.Lambda)
        assert lyapunov_identity(trace) <= 1e-12

    def test_detects_a_wrong_step(self, quad_trace):
        lyap = quad_trace.lyap.copy()
        lyap[7] *= 1 + 1e-9
        doctored = evolve.DecayTrace(**{**quad_trace.__dict__, "lyap": lyap})
        assert lyapunov_identity(doctored) >= 0.5e-9 * lyap[7] / lyap[0]

    def test_zero_state_and_no_steps(self, ops_quad_small, corr_quad_small,
                                     cn_small):
        trace = evolve.integrate(ops_quad_small, np.zeros(ops_quad_small.n), cn_small,
                             1.0, corrector=corr_quad_small, eps=0.3, Lambda=0.05)
        assert lyapunov_identity(trace) == 0.0
        f0 = evolve.initial_condition(ops_quad_small, "random")
        trace = evolve.integrate(ops_quad_small, f0, cn_small, 0.0,
                             corrector=corr_quad_small, eps=0.3, Lambda=0.05)
        assert len(trace.diss_mid) == 0
        assert lyapunov_identity(trace) == 0.0


class TestEstimateRate:
    def test_pure_exponential(self):
        t = np.linspace(0.0, 10.0, 401)
        rate = evolve.estimate_rate(synthetic_trace(t, np.exp(-0.3 * t)))
        assert rate == pytest.approx(0.3, abs=1e-6)

    def test_constant_trace(self):
        t = np.linspace(0.0, 10.0, 101)
        rate = evolve.estimate_rate(synthetic_trace(t, np.ones_like(t)))
        assert abs(rate) <= 1e-12

    def test_zero_norm_rejected(self):
        # the norm reaches zero within the first 8 samples: too few to fit
        t = np.linspace(0.0, 1.0, 11)
        norms = np.r_[np.ones(5), np.zeros(6)]
        with pytest.raises(DegenerateTraceError):
            evolve.estimate_rate(synthetic_trace(t, norms))

    def test_nan_norm_gives_a_nan_rate(self):
        # a NaN never drops to the floor, so the fit sees it
        t = np.linspace(0.0, 10.0, 101)
        norms = np.exp(-0.3 * t)
        norms[-1] = np.nan
        assert np.isnan(evolve.estimate_rate(synthetic_trace(t, norms)))

    def test_roundoff_floor_excluded(self):
        # a trace that decays like e^{-t} until it sinks into a 1e-16 floor
        t = np.linspace(0.0, 100.0, 1001)
        rate = evolve.estimate_rate(synthetic_trace(t, np.maximum(np.exp(-t), 1e-16)))
        assert rate == pytest.approx(1.0, rel=1e-9)

    def test_tuned_quadratic_rate(self, quad_trace, tuned_quad):
        fitted = evolve.estimate_rate(quad_trace)
        assert fitted >= tuned_quad.Lambda * (1 - 1e-6)
        assert fitted == pytest.approx(2.0 - np.sqrt(3.0), rel=0.05)


class TestDecayBound:
    def test_holds_on_tuned_run(self, quad_trace):
        margin, binds_at = evolve.verify_decay_bound(quad_trace)
        assert margin > 0.0
        # t = 0 is left out: its margin is 1 - 1/sqrt(3) by construction
        rel = (quad_trace.bound - quad_trace.norm) / quad_trace.bound
        assert margin == rel[1:].min()
        assert binds_at == quad_trace.times[1 + np.argmin(rel[1:])] > 0.0

    def test_margin_has_no_hidden_slack(self):
        # a norm 1e-9 above the envelope is a failure, with a negative margin
        trace = synthetic_trace([0.0, 1.0], [1.0, 1.0])
        trace.bound = np.array([np.sqrt(3.0), 1.0 - 1e-9])
        margin, binds_at = evolve.verify_decay_bound(trace)
        assert margin == pytest.approx(-1e-9, rel=1e-6)
        assert binds_at == 1.0

    def test_trace_without_a_step_is_rejected(self):
        trace = synthetic_trace([0.0, 1.0], [1.0, 1.0])
        trace.times, trace.norm = trace.times[:1], trace.norm[:1]
        with pytest.raises(PreconditionError, match="t > 0"):
            evolve.verify_decay_bound(trace)

    def test_samples_on_the_roundoff_floor_are_left_out(self):
        # e^{-t} until it stalls at 1e-16, under the envelope sqrt(3) e^{-t/2},
        # which falls below the stalled norm from t ~ 72.6 on
        t = np.linspace(0.0, 100.0, 1001)
        trace = synthetic_trace(t, np.maximum(np.exp(-t), 1e-16))
        trace.bound = np.sqrt(3.0) * np.exp(-t / 2)
        margin, binds_at = evolve.verify_decay_bound(trace)
        assert margin == (trace.bound[1] - trace.norm[1]) / trace.bound[1] > 0
        assert binds_at == t[1]
        # the same envelope fails on a trace that decays slower than it
        trace.norm = np.exp(-0.4 * t)
        assert evolve.verify_decay_bound(trace)[0] < 0

    def test_trace_on_the_floor_after_t0_is_rejected(self):
        trace = synthetic_trace([0.0, 1.0, 2.0], [1.0, 1e-13, 1e-13])
        with pytest.raises(DegenerateTraceError, match="t > 0"):
            evolve.verify_decay_bound(trace)

    def test_nan_norm_is_judged(self):
        # a NaN never drops to the floor, so it stays in the margin
        trace = synthetic_trace([0.0, 1.0, 2.0], [1.0, 0.5, np.nan])
        trace.bound = np.array([np.sqrt(3.0), 1.0, 1.0])
        assert np.isnan(evolve.verify_decay_bound(trace)[0])


class TestLyapunovDerivative:
    def test_zero_trace_residual(self, ops_quad_small, corr_quad_small, cn_small):
        trace = evolve.integrate(ops_quad_small, np.zeros(ops_quad_small.n), cn_small,
                             1.0, corrector=corr_quad_small, eps=0.3, Lambda=0.05)
        resid = evolve.lyapunov_derivative_check(trace, monotone=False)
        assert resid == 0.0

    def test_residual_small_on_tuned_run(self, quad_trace):
        resid = evolve.lyapunov_derivative_check(quad_trace, monotone=True, t_min=2.0)
        assert resid <= 1e-4

    def test_monotonicity_enforced_on_tuned_runs(self, quad_trace):
        doctored = evolve.DecayTrace(
            dt=quad_trace.dt,
            times=quad_trace.times[:5],
            norm=quad_trace.norm[:5],
            lyap=np.array([1.0, 0.5, 0.8, 0.4, 0.3]),
            diss=quad_trace.diss[:5],
            diss_mid=quad_trace.diss_mid[:4],
            bound=quad_trace.bound[:5],
            mean=quad_trace.mean[:5],
        )
        with pytest.raises(NumericalError):
            evolve.lyapunov_derivative_check(doctored, monotone=True)
        # off the tuned point the functional may rise; only the residual counts
        assert evolve.lyapunov_derivative_check(doctored, monotone=False) > 0.0

    def test_short_trace_rejected(self):
        trace = synthetic_trace([0.0, 0.1], [1.0, 0.9])
        with pytest.raises(PreconditionError):
            evolve.lyapunov_derivative_check(trace, monotone=False)
        # the interior samples of a longer trace end at t = 0.2
        trace = synthetic_trace([0.0, 0.1, 0.2, 0.3], [1.0, 0.9, 0.8, 0.7])
        with pytest.raises(PreconditionError, match="t_min excludes"):
            evolve.lyapunov_derivative_check(trace, monotone=False, t_min=0.25)


class TestCsvRows:
    def test_header_and_repr_precision(self, tmp_path):
        trace = synthetic_trace([0.0, 0.1], [1.0, 1.0 / 3.0])
        report = cli.RunReport(version="", command="evolve", config={},
                               traces=[("decay.csv", trace)])
        cli.emit_report(report, tmp_path)
        assert (tmp_path / "decay.csv").read_text() == (
            "t,norm,lyap,diss,bound,mean\n"
            "0.0,1.0,0.0,0.0,inf,0.0\n"
            "0.1,0.3333333333333333,0.0,0.0,inf,0.0\n"
        )
