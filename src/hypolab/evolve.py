"""Backward-equation time integration and decay verification.

The one-step map is trapezoidal (Crank-Nicolson),

    f_{n+1} = M^{-1} (f_n + (dt/2) L f_n),    M = I - (dt/2) L,

with L f_n the product the diagnostics already take.  Because the symmetric
part of L is gamma * L_s <= 0 the map is non-expansive, but it is not
L-stable: on a mode with dt |lambda| >> 1 its amplification factor tends to 1
in modulus, so stiff modes are barely damped.  On under-resolved grids a
decay-bound failure can therefore be a time-stepping artifact rather than a
mathematical one (double_well at N_x = 32, N_v = 8: dt |lambda| ~ 220 and the
random state's decay_bound margin is -13.7).  The constant function is a
two-sided null vector of L, hence the weighted mean is conserved to machine
precision and the mean-zero subspace is invariant.

In position-major order M is banded, kl = ku = n_v - 1.  crank_nicolson
factors it once per (gamma, dt) as M = L_1 U by band elimination without
pivoting, in one band array whose two views are the factors, and each step
is two BLAS banded triangular solves.  Pivoting is
not needed: L_a is antisymmetric and L_s = -N, so the symmetric part of M is
I + (dt/2) gamma N >= I.  Every Schur complement of M then has a symmetric
part >= I too, so the elimination exists and every pivot is >= 1; element
growth is bounded by n (||T|| + ||S||^2) with T and S the symmetric and
skew parts of M (Golub & Van Loan, unsymmetric positive-definite systems).
A pivot that is not finite and positive raises NumericalError; the growth
max|factors| / max|M| and the smallest pivot are reported with the trace.

The step obeys the discrete Lyapunov identity H(f_{n+1}) - H(f_n) =
-dt D(g_n), g_n = (f_n + f_{n+1}) / 2, exactly: H is a quadratic form with a
symmetric matrix and f_{n+1} - f_n = dt L g_n.  With d the bilinear form of
D, D(g_n) = (D(f_n) + D(f_{n+1}) + d(f_n, f_{n+1}) + d(f_{n+1}, f_n)) / 4 is
a few dot products of the S f and L f that both ends of the step already
take, so the residual (lyapunov_identity) goes through real products with L
and checks every solve.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .corrector import Corrector, ModifiedFunctional
from .discretize import OperatorSet, compose_generator, lo_bands
from .errors import (
    ConfigurationError,
    DegenerateTraceError,
    NumericalError,
    PreconditionError,
)
from .sampler import MIN_FIT_SAMPLES
from .tuning import PREFACTOR

if TYPE_CHECKING:
    import scipy.sparse as sp

DT_GUARD = 0.1
INITIAL_KINDS = ("gap", "velocity", "random")  # the kinds initial_condition builds
MEAN_TOL = 1e-10  # largest mean of f0, and drift of the mean, that counts as zero
ROUNDOFF_FLOOR = 1e-12


@dataclass
class DecayTrace:
    """Per-step samples of the decaying state and the certified envelope.

    dt is the step taken; diss_mid holds D(g_n) at the step midpoints
    g_n = (f_n + f_{n+1}) / 2, one per step; solve_residual is the relative
    residual ||M f_1 - b|| / ||b|| of the first step's solve (None without
    steps).
    """

    dt: float
    times: np.ndarray
    norm: np.ndarray
    lyap: np.ndarray
    diss: np.ndarray
    diss_mid: np.ndarray
    bound: np.ndarray
    mean: np.ndarray
    solve_residual: float | None = None

    @property
    def columns(self) -> dict:
        """The per-sample series by name, in CSV order."""
        return {"t": self.times, "norm": self.norm, "lyap": self.lyap,
                "diss": self.diss, "bound": self.bound, "mean": self.mean}


def initial_condition(ops: OperatorSet, kind: str, seed: int = 0) -> np.ndarray:
    """Initial states exercising slow, fast, and mixed subspaces.

    gap: the spectral-gap eigenvector of -L_o lifted to phase space, by one
    step of inverse iteration at the run's m_h from sqrt(w) x (LAPACK's
    pivoted tridiagonal solve), signed to correlate positively with that
    start;  velocity: sqrt(w) on Hermite mode 1;  random: a seeded normal
    vector.  Each is made mean-zero and unit by ops.mean_zero_unit.
    """
    if kind == "random":
        return ops.mean_zero_unit(np.random.default_rng(seed).standard_normal(ops.n))
    state = np.zeros((ops.n_x, ops.n_v))
    if kind == "gap":
        from scipy.linalg.lapack import dgtsv

        diag, upper = lo_bands(ops.grid)
        start = ops.grid.sqrt_weights * ops.grid.nodes
        *_, vec, info = dgtsv(upper, diag - ops.m_h, upper, start)
        if info != 0:
            raise NumericalError(f"dgtsv on -L_o - m_h I returned info {info}")
        # the gap mode changes sign once: start @ vec sums terms of one sign
        state[:, 0] = vec if start @ vec > 0 else -vec
    elif kind == "velocity":
        state[:, 1] = ops.grid.sqrt_weights
    else:
        raise ConfigurationError(f"unknown initial-condition kind {kind!r}")
    return ops.mean_zero_unit(state.ravel())


@dataclass
class BandLU:
    """Pivot-free factors M = L_1 U of a banded matrix in BLAS band storage.

    Both are F-ordered (ldab, n) views, ldab = kl + ku + 1, of one buffer of
    ldab n + ku doubles; dtbsv reads only rows 0..k of each.  upper, at
    offset 0, holds U with its diagonal in row ku; lower, at offset ku, holds
    the unit-lower factor with its unreferenced diagonal in row 0.  dtbsv is
    BLAS's banded triangular solve, bound by band_lu, so that a step runs
    no import.
    """

    kl: int
    ku: int
    lower: np.ndarray
    upper: np.ndarray
    growth: float
    min_pivot: float
    dtbsv: Callable

    def solve(self, b: np.ndarray) -> np.ndarray:
        """M^{-1} b by two banded triangular solves."""
        y = self.dtbsv(self.kl, self.lower, b, lower=1, diag=1)
        return self.dtbsv(self.ku, self.upper, y, overwrite_x=1)

    def diagnostics(self) -> dict:
        return {"kl": self.kl, "ku": self.ku, "growth": self.growth,
                "min_pivot": self.min_pivot}


def band_lu(matrix: sp.spmatrix) -> BandLU:
    """Factor a sparse banded matrix by elimination without pivoting.

    The matrix goes into LAPACK band storage ab[ku + i - j, j], Fortran
    order: the first ldab n entries of the buffer flat.  Through the strided
    view V[i, j] = flat[ku + i + j (ldab - 1)], V[i, j] is entry (i, j) for
    every (i, j) in the band, so each column's elimination is plain slicing:
    scale the kl multipliers below the pivot, then subtract their outer
    product with the pivot row from the kl x ku window to the lower right.
    Raises NumericalError unless every pivot is finite and positive (the
    errstate keeps a zero pivot from surfacing as a warning first).
    """
    import scipy.sparse as sp
    from scipy.linalg.blas import dtbsv

    dia = sp.dia_matrix(matrix)
    n = dia.shape[0]
    kl, ku = max(0, -int(dia.offsets.min())), max(0, int(dia.offsets.max()))
    ldab = kl + ku + 1
    flat = np.zeros(ldab * n + ku)
    ab = flat[:ldab * n].reshape((ldab, n), order="F")
    ab[ku - dia.offsets] = dia.data  # dia.data[k, j] = M[j - offsets[k], j]
    scale = max(ab.max(), -ab.min())
    view = as_strided(flat[ku:], shape=(n, n),
                      strides=(flat.itemsize, (ldab - 1) * flat.itemsize))
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(n - 1):
            below, right = min(n, j + kl + 1), min(n, j + ku + 1)
            col = view[j + 1:below, j]
            col /= view[j, j]
            view[j + 1:below, j + 1:right] -= col[:, None] * view[j, j + 1:right]
    pivots = ab[ku]
    bad = np.flatnonzero(~(np.isfinite(pivots) & (pivots > 0)))
    if bad.size:
        raise NumericalError(
            f"pivot-free band LU: pivot {pivots[bad[0]]!r} at column {bad[0]} "
            "is not finite and positive"
        )
    return BandLU(
        kl=kl,
        ku=ku,
        lower=flat[ku:].reshape((ldab, n), order="F"),
        upper=ab,
        growth=float(max(ab.max(), -ab.min()) / scale),
        min_pivot=float(pivots.min()),
        dtbsv=dtbsv,
    )


@dataclass
class CrankNicolson:
    """The trapezoidal map of L = L_a + gamma L_s at step dt: L and the band
    factors of M = I - (dt/2) L.  Built once per (gamma, dt) and shared by
    every trace integrated there."""

    dt: float
    L: sp.csr_matrix
    lu: BandLU


def step_size(dt: float, gamma: float) -> float:
    """The Crank-Nicolson step at gamma: the largest step dt, or DT_GUARD /
    gamma if that is smaller."""
    return float(min(dt, DT_GUARD / gamma))


def crank_nicolson(ops: OperatorSet, gamma: float, dt: float) -> CrankNicolson:
    """Factor the trapezoidal map at gamma by band_lu, at step_size(dt, gamma)."""
    import scipy.sparse as sp

    dt = step_size(dt, gamma)
    L = compose_generator(ops, gamma)
    lu = band_lu(sp.identity(ops.n, format="csr") - (dt / 2) * L)
    return CrankNicolson(dt=dt, L=L, lu=lu)


def integrate(
    ops: OperatorSet,
    f0: np.ndarray,
    cn: CrankNicolson,
    t_end: float,
    corrector: Corrector,
    eps: float,
    Lambda: float,
) -> DecayTrace:
    """Advance f0 to t_end by the factored trapezoidal map cn, sampling every
    step.

    Each step solves M f_{n+1} = f_n + (dt/2) L f_n with the L f_n of the
    diagnostics, and the first solve's relative residual is kept.  Each
    sample records the norm, the corrector's modified functional and its
    dissipation at eps, and the mean; each step records D at its midpoint for
    lyapunov_identity.  The envelope is PREFACTOR e^{-Lambda t} ||f0||, with
    tuning's PREFACTOR = sqrt(3).
    """
    dt, L, lu = cn.dt, cn.L, cn.lu
    f0 = np.asarray(f0, dtype=float)
    norm0 = np.linalg.norm(f0)
    if abs(ops.mean(f0)) > MEAN_TOL * max(norm0, 1.0):
        raise PreconditionError("f0 is not mean-zero")

    n_steps = max(0, int(round(t_end / dt)))
    times = np.arange(n_steps + 1) * dt
    norm = np.empty(n_steps + 1)
    lyap = np.empty(n_steps + 1)
    diss = np.empty(n_steps + 1)
    cross = np.empty(n_steps)
    mean = np.empty(n_steps + 1)

    functional = ModifiedFunctional(corrector, L, eps)
    f = f0.copy()
    products = functional.products(f)
    solve_residual = None
    for k in range(n_steps + 1):
        norm[k] = np.linalg.norm(f)
        lyap[k], diss[k] = functional.values(f, products)
        mean[k] = ops.mean(f)
        if k < n_steps:
            rhs = f + (dt / 2) * products[1]
            f_next = lu.solve(rhs)
            next_products = functional.products(f_next)
            if k == 0:  # M f_1 from the L f_1 the next sample needs anyway
                solve_residual = float(np.linalg.norm(
                    f_next - (dt / 2) * next_products[1] - rhs
                ) / max(np.linalg.norm(rhs), 1e-300))
            cross[k] = functional.dissipation(
                f, products, f_next, next_products
            ) + functional.dissipation(f_next, next_products, f, products)
            f, products = f_next, next_products

    bound = PREFACTOR * np.exp(-Lambda * times) * norm0
    return DecayTrace(
        dt=dt,
        times=times,
        norm=norm,
        lyap=lyap,
        diss=diss,
        diss_mid=(diss[:-1] + diss[1:] + cross) / 4,
        bound=bound,
        mean=mean,
        solve_residual=solve_residual,
    )


def _above_floor(trace: DecayTrace) -> int:
    """How many samples precede the norm's first drop to ROUNDOFF_FLOOR
    ||f(0)||, below which the trace decays no further (a NaN never drops)."""
    low = np.flatnonzero(trace.norm <= ROUNDOFF_FLOOR * trace.norm[0])
    return int(low[0]) if low.size else len(trace.norm)


def estimate_rate(trace: DecayTrace) -> float:
    """Least-squares slope of -log||f(t)|| over the trailing half of the
    samples above the roundoff floor (_above_floor)."""
    n = _above_floor(trace)
    if n < MIN_FIT_SAMPLES:
        raise DegenerateTraceError(f"only {n} samples above the roundoff floor")
    start = (n - 1) // 2
    slope = np.polyfit(trace.times[start:n], -np.log(trace.norm[start:n]), 1)[0]
    return float(slope)


def verify_decay_bound(trace: DecayTrace):
    """(margin, time): the smallest relative margin (bound - norm) / bound of
    norm <= sqrt(3) e^{-Lambda t} norm0 over the samples with t > 0 above the
    roundoff floor (_above_floor), negative where the bound fails, and the
    time of the sample where it binds.  At t = 0 the margin is 1 - 1/sqrt(3)
    by construction; on the floor the norm stalls while the envelope falls.
    The zero state meets the bound by construction, so it is rejected, as is
    a trace with no step; one with no such sample raises DegenerateTraceError."""
    if trace.norm[0] == 0.0:
        raise PreconditionError("the zero state meets the decay bound trivially")
    if len(trace.times) < 2:
        raise PreconditionError("the decay bound needs a sample with t > 0")
    n = _above_floor(trace)
    if n < 2:
        raise DegenerateTraceError("no sample with t > 0 above the roundoff floor")
    rel = (trace.bound[1:n] - trace.norm[1:n]) / trace.bound[1:n]
    i = int(np.argmin(rel))
    return float(rel[i]), float(trace.times[i + 1])


def lyapunov_derivative_check(
    trace: DecayTrace, monotone: bool, t_min: float = 0.0
) -> float:
    """Max central-difference residual |d lyap/dt + diss| over interior samples.

    t_min restricts the max to t >= t_min (the second-order asymptotics need
    dt * |eigenvalue| << 1; rough initial states leave that regime).  With
    monotone set (the trace ran at the tuned (gamma*, eps*)), also asserts
    that the functional never increases.
    """
    if len(trace.times) < 3:
        raise PreconditionError("trace too short for a central difference")
    resid = np.abs(
        (trace.lyap[2:] - trace.lyap[:-2]) / (2 * trace.dt) + trace.diss[1:-1]
    )
    keep = trace.times[1:-1] >= t_min
    if not np.any(keep):
        raise PreconditionError("t_min excludes every interior sample")
    if monotone:
        scale = max(abs(trace.lyap[0]), 1e-300)
        if np.any(np.diff(trace.lyap) > 1e-10 * scale):
            raise NumericalError("Lyapunov functional increased on a tuned run")
    return float(resid[keep].max())


def lyapunov_identity(trace: DecayTrace) -> float:
    """max_n |H(f_{n+1}) - H(f_n) + dt D(g_n)| / |H(f_0)|.

    The discrete Lyapunov identity of the trapezoidal step (see the module
    docstring) makes this zero in exact arithmetic at any (gamma, eps); what
    remains is roundoff, including that of every solve.  A trace without steps
    gives 0.
    """
    if len(trace.times) < 2:
        return 0.0
    resid = np.abs(np.diff(trace.lyap) + trace.dt * trace.diss_mid)
    return float(resid.max() / max(abs(trace.lyap[0]), 1e-300))
