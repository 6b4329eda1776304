"""Monte Carlo simulation of the underdamped dynamics in arbitrary dimension.

BAOAB splitting with the exact Ornstein-Uhlenbeck velocity update: the noise
amplitude sqrt(1 - e^{-2 gamma dt}) realizes the fluctuation-dissipation
pairing, so the velocity marginal is sampled with only O(dt^2) bias.  The
force at the end of one step is the force at the start of the next, so it is
carried over and evaluated once per step.

Reproducibility: every trajectory draws from its own counter-based Philox
stream keyed by (seed, trajectory index), built once per run.  Time blocks of
BLOCK = 128 steps are the outer loop and chunks of max(1, CHUNK // d)
trajectories (CHUNK coordinates) the inner one; each stream is drawn from one
block at a time, and consecutive draws give the same bits as one draw of the
whole path.  Each chunk's block of noise is scaled by c2 with one in-place
multiply; IEEE multiplication commutes, so that gives the same bits as
scaling each step's noise.
Each record is one observe call per chunk, which writes every observable
into that record's (observables, particles) slab of a single
(BLOCK // record_every + 1, observables, particles) buffer.  When every chunk
has finished a block, each record it completed is reduced on the spot by one
mean and one std call along the contiguous particle axis; numpy's pairwise
sum over a row runs in the same order as a reduction of the whole
(records, particles) array.  Results are therefore independent of CHUNK,
BLOCK and execution order.  A record is reduced alone because a whole
block's std would allocate a temporary the size of the block.

Memory: ensemble_bytes states what run_ensemble holds at its peak.  Two
buffers scale with BLOCK: the noise, CHUNK BLOCK doubles (4 MiB) for d <=
CHUNK, and the record buffer, 13 records at record_every = 10.  A step writes
its (dt / 2) products into one scratch array per run and allocates only its
force.

Divergence: a chunk stops at its own first non-finite force (step 0 is the
initial force), the other chunks finish the block, and the run ends.  The
ensemble's divergence is the smallest (step, trajectory) pair over all
chunks, compared step first; the trace keeps the records at steps
0 ... max(step - 1, 0) and has no final moments.

Decay fit: estimate_observable_decay fits the decay of the mean of x0 in a
trace it is given, run from a shifted start; it runs no ensemble of its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InsufficientSignalError
# benchmarks/tracing.py wraps hypolab.sampler.eval_potential, so the name
# stays importable here; the sampler itself calls potential_value and
# potential_gradient
from .model import (Potential, eval_potential, potential_gradient,
                    potential_value)

CHUNK = 4096  # coordinates (trajectories x d) advanced together
BLOCK = 128  # steps advanced, and drawn per stream, before a reduction
MIN_FIT_SAMPLES = 8  # records above the noise floor a decay fit needs
# estimate_observable_decay's bytes a record beyond its trace (81 to tracemalloc,
# numpy 2.4)
FIT_RECORD_BYTES = 88
OBSERVABLES = ("x0", "x_sq", "v_sq", "energy")  # per-particle scalars, in CSV order
# bytes of one Philox Generator: 600 to tracemalloc, 701 of RSS over 10^5
# of them (numpy 2.4)
GENERATOR_BYTES = 768
# (width, d) arrays an observe call holds at once, 5 for cosine_bump at d = 1;
# a step allocates only its force, U' and one temporary of U''s formula
CHUNK_TEMPORARIES = 5
# bytes a run holds beyond its arrays' data: their headers and the Python
# objects of the loop and the trace, at most 4.0 KiB to tracemalloc at 2
# particles (numpy 2.4)
RUN_BYTES = 8192


def observe(potential: Potential, x: np.ndarray, v: np.ndarray, out: np.ndarray):
    """Write the OBSERVABLES of the trajectories (x, v), each (..., d), into
    out, one row per observable (shape (len(OBSERVABLES), ...))."""
    v_sq = v**2
    out[0] = x[..., 0]
    out[1] = (x**2).mean(axis=-1)
    out[2] = v_sq.mean(axis=-1)
    out[3] = v_sq.sum(axis=-1) / 2 + potential_value(potential, x).sum(axis=-1)


@dataclass
class SdeConfig:
    """One ensemble run; BAOAB needs dt * gamma < 1, which the CLI checks
    before a run samples."""

    potential: Potential
    d: int = 1
    particles: int = 10000
    dt: float = 0.01
    steps: int = 2000
    gamma: float = 4.0
    seed: int = 2024
    record_every: int = 10
    init_shift: float = 0.0


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
    # {"trajectory", "step"} of the first non-finite force (step 0 is the
    # initial position), None when every trajectory ran to the end
    divergence: dict | None = None

    @property
    def diverged(self) -> bool:
        return self.divergence is not None

    @property
    def columns(self) -> dict:
        """The per-record series by name, in CSV order: t, then each
        observable's mean and standard error."""
        out = {"t": self.times}
        for n in self.means:
            out[f"{n}_mean"] = self.means[n]
            out[f"{n}_stderr"] = self.stderrs[n]
        return out


def record_count(cfg: SdeConfig) -> int:
    """The records a run keeps: steps 0, record_every, ... up to steps."""
    return cfg.steps // cfg.record_every + 1


def ensemble_bytes(cfg: SdeConfig) -> int:
    """The bytes run_ensemble(cfg) holds at its peak, an upper bound, in
    Python ints so that no size overflows.

    In doubles, with width = min(max(1, CHUNK // d), particles) trajectories
    per chunk and n = len(OBSERVABLES):

    - the state x, v and the force, 3 particles d, and the step's scratch,
      width d;
    - the noise, width min(BLOCK, steps) d: at most CHUNK BLOCK for d <=
      CHUNK, one trajectory's BLOCK d above that;
    - the record buffer, (BLOCK // record_every + 1) n particles;
    - the times, means and standard errors, (2 n + 1) record_count(cfg);
    - the temporaries: a final variance's particles d, a record's std's n
      particles, and CHUNK_TEMPORARIES width d for an observe call, which
      covers a step's.

    Then GENERATOR_BYTES for each particle's generator and RUN_BYTES once.
    Only the records grow with the steps, and only the state, its variance
    and (for d > CHUNK) the noise grow with the dimension.
    """
    p, d, every, n = cfg.particles, cfg.d, cfg.record_every, len(OBSERVABLES)
    width = min(max(1, CHUNK // d), p)
    doubles = (3 * p * d + width * d
               + width * min(BLOCK, cfg.steps) * d
               + (BLOCK // every + 1) * n * p
               + (2 * n + 1) * record_count(cfg)
               + p * d + n * p + CHUNK_TEMPORARIES * width * d)
    return 8 * doubles + GENERATOR_BYTES * p + RUN_BYTES


def _force(potential: Potential, x: np.ndarray) -> np.ndarray:
    """U'(x), or DivergenceError naming the first non-finite coordinate.

    A NaN or inf entry makes the sum non-finite, so a finite sum clears the
    whole array in one reduction; a sum that overflows from finite entries
    falls through to the exact elementwise scan.
    """
    du = potential_gradient(potential, x)
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(du, axis=None)
    if not math.isfinite(total):
        bad = np.flatnonzero(~np.isfinite(du))
        if bad.size:
            raise DivergenceError(
                f"non-finite force at flat coordinate index {bad[0]}",
                coordinate=int(bad[0]))
    return du


def _ou_coefficients(gamma: float, dt: float) -> tuple:
    """The exact Ornstein-Uhlenbeck velocity update over dt: v becomes
    c1 v + c2 xi, with c1 = e^{-gamma dt} and c2 = sqrt(1 - c1^2)."""
    c1 = np.exp(-gamma * dt)
    return c1, np.sqrt(1.0 - c1 * c1)


def _baoab_inplace(x, v, force, potential: Potential, dt: float, c1: float,
                   noise, scratch):
    """One BAOAB step that overwrites the float arrays x and v, with c1 and
    the noise, already scaled by c2, from _ou_coefficients(gamma, dt).

    force holds U'(x) on entry and is overwritten with U' at the new x.
    scratch, shaped like x, takes each (dt / 2) product, so the arithmetic
    allocates nothing; only the force evaluation does.
    """
    h = dt / 2
    v -= np.multiply(force, h, out=scratch)
    x += np.multiply(v, h, out=scratch)
    v *= c1
    v += noise
    x += np.multiply(v, h, out=scratch)
    force[...] = _force(potential, x)
    v -= np.multiply(force, h, out=scratch)


def run_ensemble(cfg: SdeConfig) -> EnsembleTrace:
    """Evolve independent trajectories; fully deterministic given cfg.seed.

    Time blocks of BLOCK steps are the outer loop and chunks of
    max(1, CHUNK // d) trajectories the inner one.  observe writes each
    record's OBSERVABLES into one (observables, particles) slab of the block's
    record buffer.  When every chunk has finished a block, each record the
    block completed is reduced on the spot, one mean and one std along the
    particles in fixed trajectory order, so the output is bit-identical no
    matter how the particles are partitioned for execution.  The (observables,
    records) results become the trace's means and stderrs by name.

    A chunk stops at its own first non-finite force; the others finish the
    block and the run ends there.  The divergence is the smallest (step,
    trajectory) pair over all chunks, the trace keeps the records at steps
    0 ... max(step - 1, 0), and the final moments are None.
    """
    p, d, every = cfg.particles, cfg.d, cfg.record_every
    width = max(1, CHUNK // d)  # trajectories per chunk
    c1, c2 = _ou_coefficients(cfg.gamma, cfg.dt)
    n_rec = record_count(cfg)
    times = np.arange(n_rec) * (cfg.dt * every)
    gens = [np.random.Generator(np.random.Philox(key=[cfg.seed, i]))
            for i in range(p)]
    v = np.empty((p, d))
    for gen, row in zip(gens, v):
        gen.standard_normal(out=row)
    x = np.full((p, d), cfg.init_shift, dtype=float)
    force = np.empty((p, d))
    # one flat buffer, so that each chunk's block of b steps is a contiguous
    # particle-major view: each stream fills one contiguous (b, d) slab, and
    # scaling the block by c2 in place needs no ufunc buffer
    noise = np.empty(min(width, p) * min(BLOCK, cfg.steps) * d)
    scratch = np.empty((min(width, p), d))  # the step's (dt / 2) products
    # the records completed in the current block, each an (observables,
    # particles) slab with the particles contiguous
    records = np.empty((BLOCK // every + 1, len(OBSERVABLES), p))
    means = np.empty((len(OBSERVABLES), n_rec))
    stderrs = np.empty((len(OBSERVABLES), n_rec))
    hits = []  # (step, trajectory) of each chunk's first non-finite force
    done = 0  # records reduced so far

    for t0 in range(0, cfg.steps, BLOCK):
        b = min(BLOCK, cfg.steps - t0)
        for start in range(0, p, width):
            cols = slice(start, min(start + width, p))
            xc, vc, fc = x[cols], v[cols], force[cols]
            sc = scratch[:len(xc)]
            block = noise[:len(xc) * b * d].reshape(len(xc), b, d)
            for gen, slab in zip(gens[cols], block):
                gen.standard_normal(out=slab)
            block *= c2
            t = t0 - 1  # a force that fails in step t belongs to position t + 1
            try:
                if t0 == 0:
                    observe(cfg.potential, xc, vc, records[0, :, cols])
                    fc[...] = _force(cfg.potential, xc)
                for t in range(t0, t0 + b):
                    _baoab_inplace(xc, vc, fc, cfg.potential, cfg.dt, c1,
                                   block[:, t - t0], sc)
                    if (t + 1) % every == 0:
                        observe(cfg.potential, xc, vc,
                                records[(t + 1) // every - done, :, cols])
            except DivergenceError as err:
                hits.append((t + 1, start + err.coordinate // d))
        end = (t0 + b) // every + 1
        if hits:
            end = min(end, max(min(hits)[0] - 1, 0) // every + 1)
        for j in range(done, end):
            record = records[j - done]
            means[:, j] = record.mean(axis=-1)
            stderrs[:, j] = record.std(axis=-1, ddof=1) / np.sqrt(p)
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
        means=dict(zip(OBSERVABLES, means[:, :done])),
        stderrs=dict(zip(OBSERVABLES, stderrs[:, :done])),
        final_x_mean=final[0],
        final_x_var=final[1],
        final_v_mean=final[2],
        final_v_var=final[3],
        divergence=divergence,
    )


def estimate_observable_decay(trace: EnsembleTrace) -> float:
    """Log-linear decay rate of |ensemble mean of x0| in a given trace, run
    from a shifted start (SdeConfig.init_shift != 0).

    Every potential is even, so x0 has equilibrium mean 0.  Fits over the
    samples whose bias exceeds 5 standard errors.
    """
    bias = np.abs(trace.means["x0"])
    floor = 5.0 * np.maximum(trace.stderrs["x0"], 1e-300)
    mask = bias > floor
    if not mask[0]:
        raise InsufficientSignalError(
            "observable bias is below 5 standard errors at t = 0"
        )
    if mask.sum() < MIN_FIT_SAMPLES:
        raise InsufficientSignalError(
            f"fewer than {MIN_FIT_SAMPLES} samples above the noise floor")
    slope = np.polyfit(trace.times[mask], np.log(bias[mask]), 1)[0]
    return float(-slope)
