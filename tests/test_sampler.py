import tracemalloc
import warnings

import numpy as np
import pytest

from hypolab import model, sampler, tuning
from hypolab.errors import DivergenceError, InsufficientSignalError
from hypolab.model import potential_gradient
from hypolab.sampler import (OBSERVABLES, _baoab_inplace, _force,
                             _ou_coefficients, observe)


def scalar_baoab_reference(x, v, a, gamma, dt, xi):
    """Independent scalar BAOAB for the quadratic potential (pure python)."""
    import math

    v = v - dt / 2 * a * x
    x = x + dt / 2 * v
    c1 = math.exp(-gamma * dt)
    v = c1 * v + math.sqrt(1 - c1 * c1) * xi
    x = x + dt / 2 * v
    v = v - dt / 2 * a * x
    return x, v


def ensemble_peak(cfg):
    """The most bytes tracemalloc sees held during run_ensemble(cfg)."""
    tracemalloc.start()
    try:
        sampler.run_ensemble(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def baoab_step(state, potential, gamma, dt, noise):
    """One step of the sampler's in-place BAOAB kernel on copies of
    state = (x, v), with the starting force evaluated afresh and the unit
    noise scaled by c2 as run_ensemble scales each block."""
    x, v = (np.array(s, dtype=float) for s in state)
    force = np.array(_force(potential, x), dtype=float)
    c1, c2 = _ou_coefficients(gamma, dt)
    _baoab_inplace(x, v, force, potential, dt, c1,
                   np.asarray(noise, dtype=float) * c2, np.empty_like(x))
    return x, v


class TestConfig:
    def test_default_observables_present(self):
        cfg = sampler.SdeConfig(potential=model.quadratic(), particles=100, steps=10)
        assert set(sampler.run_ensemble(cfg).means) >= {"x0", "x_sq", "v_sq", "energy"}


class TestStepBaoab:
    def test_frictionless_step_is_velocity_verlet(self):
        x, v = baoab_step((1.0, 0.0), model.quadratic(1.0), gamma=1e-300,
                          dt=0.1, noise=0.0)
        assert float(x) == pytest.approx(0.995, abs=1e-12)
        assert float(v) == pytest.approx(-0.09975, abs=1e-12)

    def test_critical_point_is_fixed(self):
        x, v = baoab_step((0.0, 0.0), model.double_well(), gamma=1e-300,
                          dt=0.05, noise=0.0)
        assert float(x) == 0.0 and float(v) == 0.0

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(99)
        x, v = 0.7, -0.3
        xs, vs = x, v
        for _ in range(50):
            xi = rng.standard_normal()
            x, v = baoab_step((x, v), model.quadratic(1.0), 4.0, 0.01, xi)
            xs, vs = scalar_baoab_reference(xs, vs, 1.0, 4.0, 0.01, xi)
        assert float(x) == pytest.approx(xs, abs=1e-14)
        assert float(v) == pytest.approx(vs, abs=1e-14)

    def test_vectorized_shapes(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((32, 3))
        v = rng.standard_normal((32, 3))
        xn, vn = baoab_step((x, v), model.quadratic(1.0), 2.0, 0.01,
                            rng.standard_normal((32, 3)))
        assert xn.shape == vn.shape == (32, 3)

    def test_overwrites_state_and_carries_force(self):
        # x and v are advanced in place, force leaves holding U' at the new x
        # (the next step's starting force), and the noise is only read
        rng = np.random.default_rng(1)
        pot = model.double_well()
        x, v = rng.standard_normal((2, 8, 2))
        noise = rng.standard_normal((8, 2))
        expected = baoab_step((x, v), pot, 2.0, 0.01, noise)
        c1, c2 = _ou_coefficients(2.0, 0.01)
        noise *= c2
        noise0 = noise.copy()
        force = potential_gradient(pot, x)
        _baoab_inplace(x, v, force, pot, 0.01, c1, noise, np.empty_like(x))
        np.testing.assert_array_equal(x, expected[0])
        np.testing.assert_array_equal(v, expected[1])
        np.testing.assert_array_equal(force, potential_gradient(pot, x))
        np.testing.assert_array_equal(noise, noise0)

    @pytest.mark.parametrize("pot, arrays", [
        (model.quadratic(), 1), (model.double_well(), 2), (model.cosine_bump(2.0), 2),
    ], ids=["quadratic", "double_well", "cosine_bump"])
    def test_steps_allocate_only_the_force(self, pot, arrays):
        # a full chunk at d = 4: the arithmetic writes into the scratch array,
        # so a step holds only U' and, beyond the quadratic, one temporary of
        # its formula; ensemble_bytes states CHUNK_TEMPORARIES such arrays
        d = 4
        width = sampler.CHUNK // d
        rng = np.random.default_rng(2)
        x, v = rng.standard_normal((2, width, d))
        force = _force(pot, x)
        noise = rng.standard_normal((width, 16, d))
        scratch = np.empty_like(x)
        c1 = _ou_coefficients(2.0, 0.01)[0]
        _baoab_inplace(x, v, force, pot, 0.01, c1, noise[:, 0], scratch)
        tracemalloc.start()
        try:
            for k in range(1, 16):
                _baoab_inplace(x, v, force, pot, 0.01, c1, noise[:, k], scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arrays <= sampler.CHUNK_TEMPORARIES
        assert peak <= arrays * 8 * width * d + 2048


class TestForce:
    def test_overflowing_sum_of_finite_forces_passes_silently(self):
        x = np.full((4, 2), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(_force(model.quadratic(), x), x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_force_names_its_flat_coordinate(self, bad):
        x = np.full((4, 2), 1e308)
        x[0, 1] = bad
        x[2, 0] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                _force(model.quadratic(), x)
        assert err.value.coordinate == 1


def assert_traces_equal(a, b):
    assert list(a.means) == list(b.means)
    np.testing.assert_array_equal(a.times, b.times)
    for name in a.means:
        np.testing.assert_array_equal(a.means[name], b.means[name])
        np.testing.assert_array_equal(a.stderrs[name], b.stderrs[name])
    for name in ("final_x_mean", "final_x_var", "final_v_mean", "final_v_var"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.divergence == b.divergence


class TestRunEnsemble:
    def test_matches_step_baoab_per_trajectory(self, monkeypatch):
        # 600 steps cross noise blocks and end in a partial one; CHUNK = 128
        # coordinates, 64 trajectories at d = 2, splits the 100 particles into
        # a full and a partial chunk.  Every record is reduced as its block
        # ends, and must equal the reduction of the whole (records, particles)
        # array bit for bit.
        monkeypatch.setattr("hypolab.sampler.CHUNK", 128)
        for pot in (model.quadratic(), model.double_well(), model.cosine_bump(2.0)):
            cfg = sampler.SdeConfig(potential=pot, d=2, particles=100,
                               steps=600, gamma=2.0, seed=5, init_shift=0.5)
            trace = sampler.run_ensemble(cfg)
            x = np.full((cfg.particles, cfg.d), cfg.init_shift)
            v = np.empty_like(x)
            ref = np.empty((len(OBSERVABLES), len(trace.times), cfg.particles))
            for i in range(cfg.particles):
                gen = np.random.Generator(np.random.Philox(key=[cfg.seed, i]))
                draws = gen.standard_normal((cfg.steps + 1, cfg.d))
                v[i] = draws[0]
                for t in range(cfg.steps + 1):  # t is the position index
                    if t > 0:
                        x[i], v[i] = baoab_step((x[i], v[i]), cfg.potential,
                                                cfg.gamma, cfg.dt, draws[t])
                    if t % cfg.record_every == 0:
                        observe(cfg.potential, x[i], v[i],
                                ref[:, t // cfg.record_every, i])
            assert list(trace.means) == list(OBSERVABLES)
            for n, rows in zip(OBSERVABLES, ref):
                np.testing.assert_array_equal(trace.means[n], rows.mean(axis=1))
                np.testing.assert_array_equal(
                    trace.stderrs[n],
                    rows.std(axis=1, ddof=1) / np.sqrt(cfg.particles))
            np.testing.assert_array_equal(trace.final_x_mean, x.mean(axis=0))
            np.testing.assert_array_equal(trace.final_v_var, v.var(axis=0))

    def test_same_seed_is_bitwise_identical(self):
        cfg = sampler.SdeConfig(potential=model.quadratic(), particles=300, steps=100,
                           gamma=4.0, seed=7)
        a = sampler.run_ensemble(cfg)
        b = sampler.run_ensemble(cfg)
        for name in a.means:
            np.testing.assert_array_equal(a.means[name], b.means[name])
        np.testing.assert_array_equal(a.final_x_mean, b.final_x_mean)
        assert a.divergence is None and not a.diverged

    def test_chunking_does_not_change_results(self, monkeypatch):
        cfg = sampler.SdeConfig(potential=model.quadratic(), particles=300, steps=80,
                           gamma=4.0, seed=13)
        a = sampler.run_ensemble(cfg)
        monkeypatch.setattr("hypolab.sampler.CHUNK", 64)
        assert_traces_equal(a, sampler.run_ensemble(cfg))

    @pytest.mark.parametrize("block", [7, 80, 256])
    def test_noise_block_length_does_not_change_results(self, block, monkeypatch):
        # at record_every 1 every step is a record, and at 3 records fall on
        # either side of the block edges
        cfgs = [sampler.SdeConfig(potential=model.double_well(), d=3, particles=150,
                             steps=80, gamma=3.0, seed=21, init_shift=1.0,
                             record_every=every) for every in (10, 1, 3)]
        traces = [sampler.run_ensemble(cfg) for cfg in cfgs]
        monkeypatch.setattr("hypolab.sampler.BLOCK", block)
        for cfg, trace in zip(cfgs, traces):
            assert_traces_equal(trace, sampler.run_ensemble(cfg))

    def test_memory_does_not_grow_with_steps(self):
        """Only the per-record means and stderrs grow with the steps."""

        def peak(steps):
            return ensemble_peak(sampler.SdeConfig(potential=model.double_well(), d=2,
                                              particles=1000, steps=steps,
                                              gamma=2.0, seed=3))

        assert peak(4000) - peak(1000) <= 2**20

    def test_records_are_reduced_one_at_a_time(self):
        """The block's records are reduced one by one: a whole-block std
        would hold a temporary the size of the record buffer."""
        p = 1024

        def peak(every):
            return ensemble_peak(sampler.SdeConfig(potential=model.quadratic(), particles=p,
                                              steps=sampler.BLOCK, seed=3,
                                              record_every=every))

        buffer_growth = (sampler.BLOCK - 1) * len(OBSERVABLES) * p * 8
        assert peak(1) - peak(sampler.BLOCK) <= buffer_growth + 2**20

    def test_chunk_counts_coordinates_not_trajectories(self, monkeypatch):
        # at d = 4, CHUNK = 4 * 4096 is the 4096-trajectory partition that a
        # CHUNK of trajectories gave; 4096 coordinates are 1024 trajectories
        cfg = sampler.SdeConfig(potential=model.double_well(), d=4, particles=2500,
                           steps=40, gamma=3.0, seed=17, init_shift=0.5)
        traces = []
        for chunk in (4 * 4096, 4096):
            monkeypatch.setattr("hypolab.sampler.CHUNK", chunk)
            traces.append(sampler.run_ensemble(cfg))
        assert_traces_equal(*traces)

    def test_memory_beyond_the_state_does_not_grow_with_dimension(self):
        """The noise is CHUNK * BLOCK doubles at any d <= CHUNK; only the
        O(particles * d) state, x, v and the force plus one temporary of the
        final moments, grows with d."""
        p = sampler.CHUNK  # a full chunk at d = 1

        def peak_beyond_state(d):
            cfg = sampler.SdeConfig(potential=model.quadratic(), d=d, particles=p,
                               steps=sampler.BLOCK, seed=3)
            return ensemble_peak(cfg) - 4 * 8 * p * d

        assert peak_beyond_state(16) <= peak_beyond_state(1) + 2**20

    @pytest.mark.parametrize("d, particles, every", [
        (1, 4100, 1), (1, 1000, 10), (4, 2000, 3), (16, 300, 10), (16, 700, 1),
        (1, 8, 1),
    ])
    def test_ensemble_bytes_bounds_the_peak_closely(self, d, particles, every):
        # 4100 particles at d = 1 and 700 at d = 16 leave a last chunk part
        # full; at 8 particles the formula stays above the peak only with
        # RUN_BYTES
        cfg = sampler.SdeConfig(potential=model.double_well(), d=d, particles=particles,
                           steps=300, gamma=2.0, seed=3, init_shift=1.0,
                           record_every=every)
        peak = ensemble_peak(cfg)
        assert peak <= sampler.ensemble_bytes(cfg) <= 1.1 * peak

    def test_fit_record_bytes_bound_the_ensemble_and_its_fit(self, monkeypatch):
        # overdamped, the mean of x0 decays at about a / gamma = 0.02, so every
        # record stays above the noise floor and the fit holds all of them;
        # a short BLOCK makes the records, not the block buffers, set the peak
        monkeypatch.setattr(sampler, "BLOCK", 16)
        cfg = sampler.SdeConfig(potential=model.quadratic(), particles=100, steps=4000,
                           gamma=50.0, seed=3, init_shift=1000.0, record_every=1)
        tracemalloc.start()
        try:
            trace = sampler.run_ensemble(cfg)
            ensemble = tracemalloc.get_traced_memory()[1]
            sampler.estimate_observable_decay(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bias = np.abs(trace.means["x0"])
        assert (bias > 5 * trace.stderrs["x0"]).all()
        # the fit sets the peak, above what ensemble_bytes alone counts
        assert ensemble < sampler.ensemble_bytes(cfg) < peak
        assert peak <= sampler.ensemble_bytes(cfg) + sampler.FIT_RECORD_BYTES * 4001

    def test_generator_fits_its_constant(self):
        tracemalloc.start()
        try:
            gens = [np.random.Generator(np.random.Philox(key=[2024, i]))
                    for i in range(100)]
            size = tracemalloc.get_traced_memory()[0] / len(gens)
        finally:
            tracemalloc.stop()
        assert size <= sampler.GENERATOR_BYTES

    def test_ensemble_bytes_counts_in_python_ints(self):
        # 3 * 10**12 * 10**8 * 8 bytes overflows int64
        cfg = sampler.SdeConfig(potential=model.quadratic(), d=10**12, particles=10**8)
        assert sampler.ensemble_bytes(cfg) > 24 * 10**20

    def test_equilibrium_moments_quadratic(self):
        cfg = sampler.SdeConfig(potential=model.quadratic(1.0), particles=4000,
                           steps=1200, dt=0.01, gamma=4.0, seed=2024)
        trace = sampler.run_ensemble(cfg)
        se = np.sqrt(2.0 / cfg.particles)
        v_sq = float((trace.final_v_var + trace.final_v_mean**2).mean())
        x_sq = float((trace.final_x_var + trace.final_x_mean**2).mean())
        assert abs(v_sq - 1.0) <= 3 * se
        assert abs(x_sq - 1.0) <= 3 * se

    @pytest.mark.parametrize(
        "pot,m_h,K,seed",
        [
            (model.double_well(), 0.7917922360, 1.0, 5),
            (model.cosine_bump(2.0), 0.2039779318, 1.0, 6),
        ],
    )
    def test_equilibrium_velocity_all_potentials(self, pot, m_h, K, seed):
        gamma_star = np.sqrt(16 * m_h + 2 * K)
        cfg = sampler.SdeConfig(potential=pot, particles=4000, steps=1500, dt=0.01,
                           gamma=gamma_star, seed=seed)
        trace = sampler.run_ensemble(cfg)
        se = np.sqrt(2.0 / cfg.particles)
        v_sq = float((trace.final_v_var + trace.final_v_mean**2).mean())
        assert abs(v_sq - 1.0) <= 3 * se
        # energy finite and stable over the second half of the run
        energy = trace.means["energy"]
        half = len(energy) // 2
        assert np.all(np.isfinite(energy))
        spread = energy[half:].max() - energy[half:].min()
        assert spread <= 0.1 * abs(energy[-1])

    def test_multidimensional_moments(self):
        cfg = sampler.SdeConfig(potential=model.quadratic(1.0), d=3, particles=2000,
                           steps=800, dt=0.01, gamma=4.0, seed=3)
        trace = sampler.run_ensemble(cfg)
        se = np.sqrt(2.0 / (cfg.particles * cfg.d))
        v_sq = float((trace.final_v_var + trace.final_v_mean**2).mean())
        assert abs(v_sq - 1.0) <= 4 * se
        assert trace.final_x_mean.shape == (3,)

    def test_divergence_flagged(self):
        cfg = sampler.SdeConfig(potential=model.double_well(), particles=200, steps=200,
                           dt=0.2, gamma=4.0, seed=0, init_shift=20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            trace = sampler.run_ensemble(cfg)
        assert trace.diverged
        assert len(trace.times) < cfg.steps // cfg.record_every + 1

    def test_divergence_names_trajectory_and_step(self):
        # near the stability edge only some trajectories blow up; the report
        # names the first to do so, in step and then trajectory order
        cfg = sampler.SdeConfig(potential=model.double_well(), d=2, particles=200,
                           steps=200, dt=0.2, gamma=4.0, seed=0, init_shift=11.4)
        first = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            trace = sampler.run_ensemble(cfg)
            for i in range(cfg.particles):
                gen = np.random.Generator(np.random.Philox(key=[cfg.seed, i]))
                draws = gen.standard_normal((cfg.steps + 1, cfg.d))
                state = (np.full(cfg.d, cfg.init_shift), draws[0])
                for t in range(cfg.steps):
                    try:
                        state = baoab_step(state, cfg.potential, cfg.gamma,
                                           cfg.dt, draws[t + 1])
                    except DivergenceError:
                        first[i] = t + 1
                        break
        step = min(first.values())
        assert 0 < len(first) < cfg.particles
        assert trace.divergence == {
            "trajectory": min(i for i, s in first.items() if s == step),
            "step": step,
        }
        assert trace.diverged


    def test_divergence_does_not_depend_on_partitioning(self, monkeypatch):
        # at CHUNK = 128 (chunks of 64 trajectories at d = 2) every chunk
        # diverges, chunk 1 first (step 8) and chunk 0 at step 9; BLOCK = 8
        # ends the run before chunk 0 diverges
        cfg = sampler.SdeConfig(potential=model.double_well(), d=2, particles=300,
                           steps=200, dt=0.2, gamma=4.0, seed=0, init_shift=11.4)
        traces = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for chunk, block in [(4096, 256), (128, 256), (4096, 7), (128, 7),
                                 (128, 8)]:
                monkeypatch.setattr("hypolab.sampler.CHUNK", chunk)
                monkeypatch.setattr("hypolab.sampler.BLOCK", block)
                traces.append(sampler.run_ensemble(cfg))
        first = traces[0]
        step = first.divergence["step"]
        assert len(first.times) == max(step - 1, 0) // cfg.record_every + 1
        for name in ("final_x_mean", "final_x_var", "final_v_mean", "final_v_var"):
            assert getattr(first, name) is None
        for trace in traces[1:]:
            assert_traces_equal(first, trace)


class TestObservableDecay:
    def test_overdamped_regime_rate(self):
        cfg = sampler.SdeConfig(potential=model.quadratic(1.0), particles=10000,
                           steps=2000, dt=0.01, gamma=4.0, seed=2024,
                           init_shift=2.0)
        r = sampler.estimate_observable_decay(sampler.run_ensemble(cfg))
        oracle = 2.0 - np.sqrt(3.0)
        assert abs(r - oracle) <= 0.15 * oracle

    def test_underdamped_regime_rate(self):
        cfg = sampler.SdeConfig(potential=model.quadratic(1.0), particles=10000,
                           steps=4000, dt=0.01, gamma=0.2, seed=2024,
                           init_shift=2.0)
        r = sampler.estimate_observable_decay(sampler.run_ensemble(cfg))
        assert abs(r - 0.1) <= 0.2 * 0.1

    def test_no_signal_rejected(self):
        cfg = sampler.SdeConfig(potential=model.quadratic(1.0), particles=500,
                           steps=100, dt=0.01, gamma=4.0, seed=1)
        with pytest.raises(InsufficientSignalError, match="at t = 0"):
            sampler.estimate_observable_decay(sampler.run_ensemble(cfg))
        # a shifted start, but 6 records: fewer than MIN_FIT_SAMPLES = 8 to fit
        cfg = sampler.SdeConfig(potential=model.quadratic(1.0), particles=500,
                           steps=5, dt=0.01, gamma=4.0, seed=1, init_shift=2.0,
                           record_every=1)
        with pytest.raises(InsufficientSignalError, match="fewer than 8"):
            sampler.estimate_observable_decay(sampler.run_ensemble(cfg))


class TestGammaSweep:
    def test_critical_damping_maximizes_rate(self):
        # 2x2 moment-ODE oracle: rate gamma/2 below 2, decreasing above
        rates = {}
        for gamma in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
            theory = gamma / 2 if gamma <= 2 else (gamma - np.sqrt(gamma**2 - 4)) / 2
            steps = int(min(40.0 / theory, 60.0) / 0.01)
            cfg = sampler.SdeConfig(potential=model.quadratic(1.0), particles=4000,
                               steps=steps, dt=0.01, gamma=gamma, seed=11,
                               init_shift=2.0)
            rates[gamma] = sampler.estimate_observable_decay(sampler.run_ensemble(cfg))
        assert max(rates, key=rates.get) == 2.0
        tuned = rates[4.0]
        assert tuned >= tuning.rate(1.0, 0.0)[1]  # certified rate is a lower bound
