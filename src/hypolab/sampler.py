"""Monte Carlo simulation of the underdamped dynamics in arbitrary dimension.

BAOAB splitting with the exact Ornstein-Uhlenbeck velocity update: the noise
amplitude sqrt(1 - e^{-2 gamma dt}) realizes the fluctuation-dissipation
pairing, so the velocity marginal is sampled with only O(dt^2) bias.  The
force at the end of one step is the force at the start of the next, so it is
carried over and evaluated once per step.

Reproducibility: every trajectory draws from its own counter-based Philox
stream keyed by (seed, trajectory index).  Results are therefore independent
of chunking/execution order; reductions accumulate in fixed trajectory order.
Each stream stays alive for its chunk and is drawn from in time blocks of
BLOCK steps; consecutive draws give the same bits as one draw of the whole
path, so the block length changes no output byte.  The noise held at any time
is O(CHUNK * BLOCK * d) values, independent of the number of steps.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError, InsufficientSignalError
from .model import Potential, eval_potential, potential_gradient

CHUNK = 4096  # trajectories advanced together
BLOCK = 256  # steps of noise drawn per stream at a time


def default_observables(potential: Potential) -> dict:
    """Named ensemble observables (x, v) -> per-particle scalar."""

    def energy(x, v):
        return (v**2).sum(axis=-1) / 2 + eval_potential(potential, x)[0].sum(axis=-1)

    return {
        "x0": lambda x, v: x[..., 0],
        "x_sq": lambda x, v: (x**2).mean(axis=-1),
        "v_sq": lambda x, v: (v**2).mean(axis=-1),
        "energy": energy,
    }


@dataclass
class SdeConfig:
    potential: Potential
    d: int = 1
    particles: int = 10000
    dt: float = 0.01
    steps: int = 2000
    gamma: float = 4.0
    seed: int = 2024
    record_every: int = 10
    init_shift: float = 0.0

    def __post_init__(self):
        if self.d < 1:
            raise ConfigurationError("sde.d must be >= 1")
        if self.particles < 100:
            raise ConfigurationError("sde.particles must be >= 100 for statistics")
        if self.dt <= 0 or self.steps < 1:
            raise ConfigurationError("sde.dt and sde.steps must be positive")
        if self.gamma <= 0:
            raise ConfigurationError("friction gamma must be positive")
        if self.dt * self.gamma >= 1.0:
            raise ConfigurationError("integrator guard: need dt * gamma < 1")
        if self.record_every < 1:
            raise ConfigurationError("sde.record_every must be >= 1")


@dataclass
class EnsembleTrace:
    times: np.ndarray
    means: dict
    stderrs: dict
    final_x_mean: np.ndarray
    final_x_var: np.ndarray
    final_v_mean: np.ndarray
    final_v_var: np.ndarray
    particles: int
    # {"trajectory", "step"} of the first non-finite force (step 0 is the
    # initial position), None when every trajectory ran to the end
    divergence: dict | None = None

    @property
    def diverged(self) -> bool:
        return self.divergence is not None

    def csv_rows(self):
        names = list(self.means)
        yield "t," + ",".join(f"{n}_mean,{n}_stderr" for n in names)
        for k in range(len(self.times)):
            cells = [repr(float(self.times[k]))]
            for n in names:
                cells.append(repr(float(self.means[n][k])))
                cells.append(repr(float(self.stderrs[n][k])))
            yield ",".join(cells)


def _force(potential: Potential, x: np.ndarray) -> np.ndarray:
    du = potential_gradient(potential, x)
    if not np.all(np.isfinite(du)):
        bad = int(np.argmax(~np.isfinite(du).ravel()))
        raise DivergenceError(
            f"non-finite force at flat coordinate index {bad}", coordinate=bad
        )
    return du


def _baoab_inplace(x, v, force, potential: Potential, gamma: float, dt: float,
                   noise):
    """One BAOAB step that overwrites the float arrays x and v.

    force holds U'(x) on entry and is overwritten with U' at the new x.
    """
    c1 = np.exp(-gamma * dt)
    v -= (dt / 2) * force
    x += (dt / 2) * v
    v *= c1
    v += np.sqrt(1.0 - c1 * c1) * noise
    x += (dt / 2) * v
    force[...] = _force(potential, x)
    v -= (dt / 2) * force


def step_baoab(state, potential: Potential, gamma: float, dt: float, noise):
    """One BAOAB step; the potential acts coordinate-wise.

    state is (x, v) with matching shapes (..., d); noise has the same shape,
    standard normal.  Returns the updated (x, v); state is left unchanged.
    """
    x, v = (np.array(s, dtype=float, copy=True) for s in state)
    force = np.array(_force(potential, x), dtype=float)
    _baoab_inplace(x, v, force, potential, gamma, dt,
                   np.asarray(noise, dtype=float))
    return x, v


def run_ensemble(cfg: SdeConfig) -> EnsembleTrace:
    """Evolve independent trajectories; fully deterministic given cfg.seed.

    Per-particle observable values are buffered and reduced at the end over
    the full, fixed-length particle axis, so the output is bit-identical no
    matter how the particles are partitioned for execution.
    """
    n_rec = cfg.steps // cfg.record_every + 1
    times = np.arange(n_rec) * (cfg.dt * cfg.record_every)
    observables = default_observables(cfg.potential)
    names = list(observables)
    values = {n: np.zeros((n_rec, cfg.particles)) for n in names}
    final_x = np.zeros((cfg.particles, cfg.d))
    final_v = np.zeros((cfg.particles, cfg.d))
    divergence = None
    done_records = n_rec
    processed = 0

    for start in range(0, cfg.particles, CHUNK):
        count = min(CHUNK, cfg.particles - start)
        cols = slice(start, start + count)
        gens = [
            np.random.Generator(np.random.Philox(key=[cfg.seed, start + i]))
            for i in range(count)
        ]
        v = np.empty((count, cfg.d))
        for i, gen in enumerate(gens):
            v[i] = gen.standard_normal(cfg.d)
        x = np.full((count, cfg.d), cfg.init_shift, dtype=float)
        # particle-major, so each stream fills one contiguous (b, d) slab
        noise = np.empty((count, min(BLOCK, cfg.steps), cfg.d))

        rec = 0
        for n in names:
            values[n][rec, cols] = observables[n](x, v)
        t = -1  # a force that fails in step t belongs to position t + 1
        try:
            force = _force(cfg.potential, x)
            for t in range(cfg.steps):
                k = t % BLOCK
                if k == 0:
                    b = min(BLOCK, cfg.steps - t)
                    for i, gen in enumerate(gens):
                        gen.standard_normal((b, cfg.d), out=noise[i, :b])
                _baoab_inplace(x, v, force, cfg.potential, cfg.gamma, cfg.dt,
                               noise[:, k])
                if (t + 1) % cfg.record_every == 0:
                    rec += 1
                    for n in names:
                        values[n][rec, cols] = observables[n](x, v)
        except DivergenceError as err:
            divergence = {"trajectory": start + err.coordinate // cfg.d,
                          "step": t + 1}
            done_records = rec + 1
        final_x[cols] = x
        final_v[cols] = v
        processed += count
        if divergence is not None:
            break

    keep = slice(0, done_records)
    used = slice(0, processed)
    n_used = processed
    means = {}
    stderrs = {}
    for n in names:
        block = values[n][keep, used]
        means[n] = block.mean(axis=1)
        spread = block.std(axis=1, ddof=1) if n_used > 1 else np.zeros(done_records)
        stderrs[n] = spread / np.sqrt(n_used)
    fx = final_x[used]
    fv = final_v[used]
    return EnsembleTrace(
        times=times[keep],
        means=means,
        stderrs=stderrs,
        final_x_mean=fx.mean(axis=0),
        final_x_var=fx.var(axis=0),
        final_v_mean=fv.mean(axis=0),
        final_v_var=fv.var(axis=0),
        particles=n_used,
        divergence=divergence,
    )


def estimate_observable_decay(cfg: SdeConfig) -> float:
    """Log-linear decay rate of |ensemble mean of x0| from cfg.init_shift.

    Every potential is even, so x0 has equilibrium mean 0.  Fits over the
    samples whose bias exceeds 5 standard errors.
    """
    trace = run_ensemble(cfg)
    bias = np.abs(trace.means["x0"])
    floor = 5.0 * np.maximum(trace.stderrs["x0"], 1e-300)
    mask = bias > floor
    if not mask[0]:
        raise InsufficientSignalError(
            "observable bias is below 5 standard errors at t = 0"
        )
    if mask.sum() < 8:
        raise InsufficientSignalError("fewer than 8 samples above the noise floor")
    slope = np.polyfit(trace.times[mask], np.log(bias[mask]), 1)[0]
    return float(-slope)
