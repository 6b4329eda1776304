"""Monte Carlo simulation of the underdamped dynamics in arbitrary dimension.

BAOAB splitting with the exact Ornstein-Uhlenbeck velocity update: the noise
amplitude sqrt(1 - e^{-2 gamma dt}) realizes the fluctuation-dissipation
pairing, so the velocity marginal is sampled with only O(dt^2) bias.  The
force at the end of one step is the force at the start of the next, so it is
carried over and evaluated once per step.

Reproducibility: every trajectory draws from its own counter-based Philox
stream keyed by (seed, trajectory index), built once per run.  Time blocks of
BLOCK steps are the outer loop and chunks of CHUNK trajectories the inner one;
each stream is drawn from one block at a time, and consecutive draws give the
same bits as one draw of the whole path.  When every chunk has finished a
block, each record it completed is one contiguous row over all particles and
is reduced on the spot; numpy's pairwise sum over that row runs in the same
order as a reduction of the whole (records, particles) array.  Results are
therefore independent of CHUNK, BLOCK and execution order.

Memory held at any time: the noise, O(CHUNK * BLOCK * d); the records of the
current block, O(particles * BLOCK / record_every); the state,
O(particles * d); and one generator per particle (about 0.65 KiB each).  Only
the per-record means and standard errors grow with the number of steps.

Divergence: a chunk stops at its own first non-finite force (step 0 is the
initial force), the other chunks finish the block, and the run ends.  The
ensemble's divergence is the smallest (step, trajectory) pair over all
chunks, compared step first; the trace keeps the records at steps
0 ... max(step - 1, 0) and has no final moments.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError, InsufficientSignalError
from .model import Potential, eval_potential, potential_gradient

CHUNK = 4096  # trajectories advanced together
BLOCK = 256  # steps advanced, and drawn per stream, before a reduction


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
    # moments of the final state, None for a diverged ensemble
    final_x_mean: np.ndarray | None
    final_x_var: np.ndarray | None
    final_v_mean: np.ndarray | None
    final_v_var: np.ndarray | None
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


def run_ensemble(cfg: SdeConfig) -> EnsembleTrace:
    """Evolve independent trajectories; fully deterministic given cfg.seed.

    Time blocks of BLOCK steps are the outer loop and chunks of CHUNK
    trajectories the inner one.  When every chunk has finished a block, each
    record the block completed is held for all particles in one contiguous
    row and reduced on the spot, in fixed trajectory order, so the output is
    bit-identical no matter how the particles are partitioned for execution.

    A chunk stops at its own first non-finite force; the others finish the
    block and the run ends there.  The divergence is the smallest (step,
    trajectory) pair over all chunks, the trace keeps the records at steps
    0 ... max(step - 1, 0), and the final moments are None.
    """
    p, d, every = cfg.particles, cfg.d, cfg.record_every
    n_rec = cfg.steps // every + 1
    times = np.arange(n_rec) * (cfg.dt * every)
    observables = default_observables(cfg.potential)
    gens = [np.random.Generator(np.random.Philox(key=[cfg.seed, i]))
            for i in range(p)]
    v = np.empty((p, d))
    for i, gen in enumerate(gens):
        v[i] = gen.standard_normal(d)
    x = np.full((p, d), cfg.init_shift, dtype=float)
    force = np.empty((p, d))
    # particle-major, so each stream fills one contiguous (b, d) slab
    noise = np.empty((min(CHUNK, p), min(BLOCK, cfg.steps), d))
    # the records completed in the current block, one row each
    rows = {n: np.empty((BLOCK // every + 1, p)) for n in observables}
    means = {n: np.empty(n_rec) for n in observables}
    stderrs = {n: np.empty(n_rec) for n in observables}
    hits = []  # (step, trajectory) of each chunk's first non-finite force
    done = 0  # records reduced so far

    for t0 in range(0, cfg.steps, BLOCK):
        b = min(BLOCK, cfg.steps - t0)
        for start in range(0, p, CHUNK):
            cols = slice(start, min(start + CHUNK, p))
            xc, vc, fc = x[cols], v[cols], force[cols]
            for i, gen in enumerate(gens[cols]):
                gen.standard_normal((b, d), out=noise[i, :b])
            t = t0 - 1  # a force that fails in step t belongs to position t + 1
            try:
                if t0 == 0:
                    for n, obs in observables.items():
                        rows[n][0, cols] = obs(xc, vc)
                    fc[...] = _force(cfg.potential, xc)
                for t in range(t0, t0 + b):
                    _baoab_inplace(xc, vc, fc, cfg.potential, cfg.gamma, cfg.dt,
                                   noise[:len(xc), t - t0])
                    if (t + 1) % every == 0:
                        for n, obs in observables.items():
                            rows[n][(t + 1) // every - done, cols] = obs(xc, vc)
            except DivergenceError as err:
                hits.append((t + 1, start + err.coordinate // d))
        end = (t0 + b) // every + 1
        if hits:
            end = min(end, max(min(hits)[0] - 1, 0) // every + 1)
        for n in observables:
            for j in range(done, end):
                row = rows[n][j - done]
                means[n][j] = row.mean()
                stderrs[n][j] = row.std(ddof=1) / np.sqrt(p)
        done = end
        if hits:
            break

    divergence = None
    final = (None,) * 4  # a diverged ensemble has no common final state
    if hits:
        step, trajectory = min(hits)
        divergence = {"trajectory": trajectory, "step": step}
    else:
        final = (x.mean(axis=0), x.var(axis=0), v.mean(axis=0), v.var(axis=0))
    return EnsembleTrace(
        times=times[:done],
        means={n: m[:done] for n, m in means.items()},
        stderrs={n: s[:done] for n, s in stderrs.items()},
        final_x_mean=final[0],
        final_x_var=final[1],
        final_v_mean=final[2],
        final_v_var=final[3],
        particles=p,
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
