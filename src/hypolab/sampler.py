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
BLOCK, the number of processes and execution order.  A record is reduced
alone because a whole block's std would allocate a temporary the size of the
block.

Processes: worker_ranges(cfg) splits the particles into W = min(WORKERS,
chunks) contiguous ranges, equal to within one trajectory, where WORKERS is
the number of CPUs this process may run on.  The calling process is worker 0
and forks the other W - 1 once the state and the record buffer exist, so
each inherits them.  Every worker builds and draws only its own streams and
runs the block and chunk loop above on its range.  After each block a forked
worker writes to its data pipe a header, then its columns of the block's
records; the header holds the smallest (step, trajectory) of its
non-finite forces, if any.  It then waits for one byte on its reply pipe:
continue or stop.  Worker 0 reads every worker's columns into the record
buffer and reduces each record over all particles exactly as a single
process does.  It replies stop at the first divergence or after the last
block.  Each forked worker then sends its rows of x and v once and ends
with os._exit.  The workers call no BLAS.  An exception in a worker is
pickled to worker 0 and raised there with its class; a worker that ends
without reporting raises ChildProcessError.  Every worker is reaped before
run_ensemble returns or raises.  W = 1 is the same loop with no fork.
start_ensemble forks one more process that calls run_ensemble as worker 0,
with the same ranges, and sends back the pickled trace with its seconds, or
its exception like a worker's.  Its parent reads it with .result(), or
ends it with .stop(): SIGTERM raises in it, so that run_ensemble reaps its
workers within one block before the process exits.

Memory: ensemble_bytes states what run_ensemble holds at its peak, summed
over its processes.  Two buffers scale with BLOCK: the noise, CHUNK BLOCK
doubles (4 MiB) for d <= CHUNK, and the record buffer, 13 records at
record_every = 10.  A step writes its (dt / 2) products into one scratch
array per process and allocates only its force.  Each forked worker adds
worker_bytes: its own noise, scratch and temporaries, and its copies of the
state rows and record columns it writes.

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
import os
import pickle
import signal
import time
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
# doubles after each trajectory's noise slab, one 64-byte cache line.  Unpadded,
# a step's noise view at d = 1 strides by BLOCK * 8 = 1024 bytes and v += noise
# takes 25.2 us a full chunk against 7.1 us padded (d = 2: 16.9 -> 14.7 us,
# d = 4: 17.5 -> 9.2 us, d = 8: 7.8 -> 7.2 us; 2-core Xeon, numpy 2.4)
NOISE_PAD = 8
# processes a run may use, one per CPU this process may run on; 1 where the
# affinity mask cannot be read (no os.sched_getaffinity, as on macOS)
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
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
    workers: int = 1  # the processes that ran it

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


def worker_ranges(cfg: SdeConfig) -> list:
    """The (start, stop) trajectory ranges of the processes that run cfg:
    min(WORKERS, chunks) contiguous ranges, equal to within one trajectory,
    where a chunk is max(1, CHUNK // d) trajectories."""
    chunks = -(-cfg.particles // max(1, CHUNK // cfg.d))
    w = min(WORKERS, chunks)
    bounds = [k * cfg.particles // w for k in range(w + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _process_doubles(cfg: SdeConfig, trajectories: int) -> int:
    """The doubles of one process's chunk buffers for a range of trajectories:
    the padded noise, the step's scratch and CHUNK_TEMPORARIES arrays for an
    observe call, which covers a step's; each is width = min(max(1, CHUNK //
    d), trajectories) rows."""
    d = cfg.d
    width = min(max(1, CHUNK // d), trajectories)
    return width * (min(BLOCK, cfg.steps) * d + NOISE_PAD
                    + (1 + CHUNK_TEMPORARIES) * d)


def worker_bytes(cfg: SdeConfig, trajectories: int) -> int:
    """The bytes a forked worker adds for its range of trajectories: its
    copies of the rows of x, v and the force and of the record columns it
    writes, its own chunk buffers and RUN_BYTES.  Its generators are counted
    by ensemble_bytes with the rest, and the interpreter's own copy-on-write
    pages are not counted."""
    rows = BLOCK // cfg.record_every + 1
    return (8 * (3 * trajectories * cfg.d + rows * len(OBSERVABLES) * trajectories
                 + _process_doubles(cfg, trajectories)) + RUN_BYTES)


def ensemble_bytes(cfg: SdeConfig) -> int:
    """The bytes run_ensemble(cfg) holds at its peak over all its processes,
    an upper bound, in Python ints so that no size overflows.

    In doubles, with width = min(max(1, CHUNK // d), particles) trajectories
    per chunk and n = len(OBSERVABLES), worker 0 holds:

    - the state x, v and the force, 3 particles d;
    - its chunk buffers: the noise, width (min(BLOCK, steps) d + NOISE_PAD),
      at most CHUNK BLOCK plus the pad for d <= CHUNK and one trajectory's
      BLOCK d above that; the step's scratch, width d; and CHUNK_TEMPORARIES
      width d for an observe call, which covers a step's;
    - the record buffer, (BLOCK // record_every + 1) n particles;
    - the times, means and standard errors, (2 n + 1) record_count(cfg);
    - the temporaries of a final variance, particles d, and of a record's
      std, n particles.

    Then GENERATOR_BYTES for each particle's generator, whichever process
    builds it, RUN_BYTES once, and worker_bytes for each forked worker's
    range of worker_ranges(cfg).  Only the records grow with the steps, and
    only the state, its variance and (for d > CHUNK) the noise grow with the
    dimension.
    """
    p, d, n = cfg.particles, cfg.d, len(OBSERVABLES)
    doubles = (3 * p * d + _process_doubles(cfg, p)
               + (BLOCK // cfg.record_every + 1) * n * p
               + (2 * n + 1) * record_count(cfg) + p * d + n * p)
    return (8 * doubles + GENERATOR_BYTES * p + RUN_BYTES
            + sum(worker_bytes(cfg, stop - start)
                  for start, stop in worker_ranges(cfg)[1:]))


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


def _block_records(cfg: SdeConfig, t0: int) -> range:
    """The records that the block of steps from t0 completes; record j is
    row j - start of the record buffer."""
    every = cfg.record_every
    return range(t0 // every + 1 if t0 else 0,
                 min(t0 + BLOCK, cfg.steps) // every + 1)


def _advance(cfg: SdeConfig, x, v, force, records, start: int, stop: int):
    """Run trajectories start:stop of the state (x, v, force) block by block,
    and yield after each block the smallest (step, trajectory) of a
    non-finite force in it, or None.

    Builds the range's generators and draws its initial velocities first.
    Each block's chunks of max(1, CHUNK // d) trajectories run one after
    another, and each writes its columns of the block's records.
    """
    d, every = cfg.d, cfg.record_every
    width = min(max(1, CHUNK // d), stop - start)  # trajectories per chunk
    c1, c2 = _ou_coefficients(cfg.gamma, cfg.dt)
    gens = [np.random.Generator(np.random.Philox(key=[cfg.seed, i]))
            for i in range(start, stop)]
    for gen, row in zip(gens, v[start:stop]):
        gen.standard_normal(out=row)
    # one row per trajectory, so that each stream fills one contiguous (b, d)
    # slab; NOISE_PAD zeros after it keep a step's view off a power-of-two
    # stride.  A block is scaled by c2 a whole row at a time: the rows are
    # contiguous, so that needs no ufunc buffer, where the strided (n, b, d)
    # view makes numpy copy the block
    noise = np.zeros((width, min(BLOCK, cfg.steps) * d + NOISE_PAD))
    scratch = np.empty((width, d))  # the step's (dt / 2) products
    for t0 in range(0, cfg.steps, BLOCK):
        b = min(BLOCK, cfg.steps - t0)
        first = _block_records(cfg, t0).start
        hits = []  # (step, trajectory) of each chunk's first non-finite force
        for lo in range(start, stop, width):
            cols = slice(lo, min(lo + width, stop))
            xc, vc, fc = x[cols], v[cols], force[cols]
            sc = scratch[:len(xc)]
            block = noise[:len(xc), :b * d].reshape(len(xc), b, d)
            for gen, slab in zip(gens[lo - start:cols.stop - start], block):
                gen.standard_normal(out=slab)
            noise[:len(xc)] *= c2
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
                                records[(t + 1) // every - first, :, cols])
            except DivergenceError as err:
                hits.append((t + 1, lo + err.coordinate // d))
        yield min(hits, default=None)


_CONTINUE, _STOP = b"\1", b"\0"  # worker 0's reply after each block


def _rows(a: np.ndarray) -> list:
    """The C-contiguous pieces of a, whose last axis is contiguous, in C
    order: the pieces a worker sends of a view and worker 0 reads into."""
    return [a] if a.flags.c_contiguous else [r for sub in a for r in _rows(sub)]


def _write(fd: int, buf):
    view = memoryview(buf).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, buf, sender: str):
    view = memoryview(buf).cast("B")
    while view:
        n = os.readv(fd, [view])
        if not n:
            raise ChildProcessError(f"{sender} ended without reporting")
        view = view[n:]


def _send(fd: int, hit, *arrays):
    """Write one message to a worker's data pipe: the header (0, step,
    trajectory) of its hit, or (0, -1, 0) for none, then each array's rows."""
    _write(fd, np.array((0, -1, 0) if hit is None else (0, *hit), dtype=np.int64))
    for a in arrays:
        for row in _rows(a):
            _write(fd, row)


def _send_error(fd: int, exc: BaseException):
    """Write the header (1, length, 0) and then exc, pickled."""
    try:
        payload = pickle.dumps(exc)
    except Exception:
        payload = pickle.dumps(ChildProcessError(f"sampler worker raised {exc!r}"))
    _write(fd, np.array((1, len(payload), 0), dtype=np.int64))
    _write(fd, payload)


@dataclass
class _Worker:
    """A forked worker as worker 0 sees it: its range, its pid, the read end
    of its data pipe and the write end of its reply pipe."""

    rank: int
    start: int
    stop: int
    pid: int
    data: int
    reply: int

    def receive(self, *arrays):
        """Read one message, its rows into arrays, and return its hit; raise
        the worker's exception if it sent one."""
        sender = f"sampler worker {self.rank}"
        head = np.empty(3, dtype=np.int64)
        _read(self.data, head, sender)
        error, step, trajectory = (int(h) for h in head)
        if error:
            payload = bytearray(step)
            _read(self.data, payload, sender)
            raise pickle.loads(payload)
        for a in arrays:
            for row in _rows(a):
                _read(self.data, row, sender)
        return None if step < 0 else (step, trajectory)

    def reap(self):
        """Close the pipes, so that a worker still running fails its next
        read or write and exits, and wait for it."""
        os.close(self.data)
        os.close(self.reply)
        os.waitpid(self.pid, 0)


def _serve(cfg: SdeConfig, x, v, force, records, start: int, stop: int,
           data: int, reply: int):
    """A forked worker's loop: after each block, send its hit and its
    columns of the block's records, and go on while worker 0 replies
    _CONTINUE; then send its rows of x and v."""
    blocks = _advance(cfg, x, v, force, records, start, stop)
    for t0, hit in zip(range(0, cfg.steps, BLOCK), blocks):
        _send(data, hit, records[:len(_block_records(cfg, t0)), :, start:stop])
        if os.read(reply, 1) != _CONTINUE:
            break
    _send(data, None, x[start:stop], v[start:stop])


def _fork(cfg: SdeConfig, x, v, force, records, rank: int, start: int,
          stop: int, forked: list) -> _Worker:
    """Fork worker rank for trajectories start:stop.  The child closes the
    pipe ends of the workers forked before it, serves, reports an exception
    to worker 0, and always ends with os._exit."""
    data_r, data_w = os.pipe()
    reply_r, reply_w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        for fd in (data_r, data_w, reply_r, reply_w):
            os.close(fd)
        raise
    if pid == 0:
        status = 1
        try:
            for fd in [data_r, reply_w] + [fd for w in forked for fd in (w.data, w.reply)]:
                os.close(fd)
            _serve(cfg, x, v, force, records, start, stop, data_w, reply_r)
            status = 0
        except BaseException as exc:
            try:
                _send_error(data_w, exc)
            except BaseException:
                pass
        finally:
            os._exit(status)
    os.close(data_w)
    os.close(reply_r)
    return _Worker(rank, start, stop, pid, data_r, reply_w)


def run_ensemble(cfg: SdeConfig) -> EnsembleTrace:
    """Evolve independent trajectories; fully deterministic given cfg.seed.

    The particles run in the processes of worker_ranges(cfg), each on its own
    range; the calling process is worker 0 and forks the others.  Time blocks
    of BLOCK steps are the outer loop and chunks of max(1, CHUNK // d)
    trajectories the inner one.  observe writes each record's OBSERVABLES
    into one (observables, particles) slab of the block's record buffer.
    When every chunk has finished a block, worker 0 gathers the other
    workers' columns and reduces each record the block completed on the
    spot, one mean and one std along the particles in fixed trajectory
    order, so the output is bit-identical no matter how the particles are
    partitioned for execution.  The (observables, records) results become
    the trace's means and stderrs by name.

    A chunk stops at its own first non-finite force; the others finish the
    block and the run ends there.  The divergence is the smallest (step,
    trajectory) pair over all chunks, the trace keeps the records at steps
    0 ... max(step - 1, 0), and the final moments are None.
    """
    p, d, every = cfg.particles, cfg.d, cfg.record_every
    n_rec = record_count(cfg)
    times = np.arange(n_rec) * (cfg.dt * every)
    x = np.full((p, d), cfg.init_shift, dtype=float)
    v = np.empty((p, d))
    force = np.empty((p, d))
    # the records completed in the current block, each an (observables,
    # particles) slab with the particles contiguous
    records = np.empty((BLOCK // every + 1, len(OBSERVABLES), p))
    means = np.empty((len(OBSERVABLES), n_rec))
    stderrs = np.empty((len(OBSERVABLES), n_rec))
    ranges = worker_ranges(cfg)
    hits = []  # (step, trajectory) of each worker's first non-finite force
    done = 0  # records reduced so far
    forked = []
    try:
        for rank, (start, stop) in enumerate(ranges[1:], 1):
            forked.append(_fork(cfg, x, v, force, records, rank, start, stop, forked))
        blocks = _advance(cfg, x, v, force, records, *ranges[0])
        for t0 in range(0, cfg.steps, BLOCK):
            block = _block_records(cfg, t0)
            rows = records[:len(block)]
            hits = [next(blocks)] + [w.receive(rows[:, :, w.start:w.stop])
                                     for w in forked]
            hits = [hit for hit in hits if hit is not None]
            end = block.stop
            if hits:
                end = min(end, max(min(hits)[0] - 1, 0) // every + 1)
            for j in range(block.start, end):
                record = rows[j - block.start]
                means[:, j] = record.mean(axis=-1)
                stderrs[:, j] = record.std(axis=-1, ddof=1) / np.sqrt(p)
            done = end
            go = not hits and t0 + BLOCK < cfg.steps
            for w in forked:
                os.write(w.reply, _CONTINUE if go else _STOP)
            if not go:
                break
        for w in forked:
            w.receive(x[w.start:w.stop], v[w.start:w.stop])
    finally:
        for w in forked:
            w.reap()

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
        workers=len(ranges),
    )


class _Stopped(BaseException):
    """Raised in an ensemble process by the SIGTERM its parent sends to stop
    it; a BaseException, so that nothing on the way catches it."""


def _raise_stopped(signum, frame):
    raise _Stopped(f"ensemble process stopped by signal {signum}")


@dataclass
class EnsembleProcess:
    """An ensemble running in a forked process, as start_ensemble returns it:
    its pid, None once reaped, and the read end of its pipe."""

    pid: int | None
    data: int

    def result(self) -> tuple:
        """(trace, seconds): the ensemble and the seconds run took in its
        process.  Raises the process's exception with its class, or
        ChildProcessError if it ended without reporting; reaps it either way."""
        sender = "the ensemble process"
        try:
            head = np.empty(3, dtype=np.int64)
            _read(self.data, head, sender)
            error, length, _ = (int(h) for h in head)
            payload = bytearray(length)
            _read(self.data, payload, sender)
        finally:
            self.stop()
        value = pickle.loads(payload)
        if error:
            raise value
        return value

    def stop(self):
        """Stop the process if it still runs, and reap it; a no-op once
        reaped.  Closing the pipe makes its report fail, and SIGTERM raises
        _Stopped in it, so that run_ensemble stops and reaps its workers
        within one block, and the process exits."""
        if self.pid is None:
            return
        os.close(self.data)
        os.kill(self.pid, signal.SIGTERM)
        os.waitpid(self.pid, 0)
        self.pid = None


def start_ensemble(cfg: SdeConfig, run=run_ensemble) -> EnsembleProcess:
    """Fork a process that returns run(cfg), run_ensemble by default, with
    the seconds it took; read both with .result(), or end the process with
    .stop().  The process is worker 0 of its ensemble and forks the others,
    so the trace, worker_ranges and its workers are as in this process.  It
    reports an exception to this one, pickled like a worker's, and always
    ends with os._exit."""
    data_r, data_w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(data_r)
        os.close(data_w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(data_r)
            signal.signal(signal.SIGTERM, _raise_stopped)
            t0 = time.perf_counter()
            payload = pickle.dumps((run(cfg), time.perf_counter() - t0))
            # the workers are reaped: from here a SIGTERM ends the process
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            _write(data_w, np.array((0, len(payload), 0), dtype=np.int64))
            _write(data_w, payload)
            status = 0
        except BaseException as exc:
            try:
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                _send_error(data_w, exc)
            except BaseException:
                pass
        finally:
            os._exit(status)
    os.close(data_w)
    return EnsembleProcess(pid, data_r)


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
