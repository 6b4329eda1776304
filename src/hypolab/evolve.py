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

In position-major order M is banded, kl = ku = n_v - 1.  It is factored once
per run as M = L_1 U by band elimination without pivoting, and each step is
two BLAS banded triangular solves.  Pivoting is not needed: L_a is
antisymmetric and L_s = -N, so the symmetric part of M is
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
a few dot products of the A f, L f and A L f that both ends of the step
already take, so the residual (lyapunov_identity) goes through real products
with L and checks every solve.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.blas import dtbsv

from .corrector import Corrector, ModifiedFunctional
from .discretize import OperatorSet, compose_generator
from .errors import (
    ConfigurationError,
    DegenerateTraceError,
    NumericalError,
    PreconditionError,
)

DT_GUARD = 0.1
MEAN_TOL = 1e-10
ROUNDOFF_FLOOR = 1e-12
MIN_FIT_SAMPLES = 8


@dataclass
class DecayTrace:
    """Per-step samples of the decaying state and the certified envelope.

    diss_mid holds D(g_n) at the step midpoints g_n = (f_n + f_{n+1}) / 2,
    one per step; band holds the factorization diagnostics of BandLU.
    """

    times: np.ndarray
    norm: np.ndarray
    lyap: np.ndarray
    diss: np.ndarray
    diss_mid: np.ndarray
    bound: np.ndarray
    mean: np.ndarray
    gamma: float
    eps: float
    Lambda: float
    band: dict

    def csv_rows(self):
        header = "t,norm,lyap,diss,bound,mean"
        yield header
        for k in range(len(self.times)):
            yield ",".join(
                repr(float(v))
                for v in (
                    self.times[k],
                    self.norm[k],
                    self.lyap[k],
                    self.diss[k],
                    self.bound[k],
                    self.mean[k],
                )
            )


def initial_condition(ops: OperatorSet, kind: str, seed: int = 0) -> np.ndarray:
    """Initial states exercising slow, fast, and mixed subspaces.

    gap: the spectral-gap eigenvector of -L_o lifted to phase space;
    velocity: Hermite mode 1;  random: seeded mean-zero unit vector;  zero.
    """
    if kind == "zero":
        return np.zeros(ops.n)
    if kind == "gap":
        _, vecs = sla.eigh(-ops.lo_x)
        state = np.zeros((ops.n_x, ops.n_v))
        state[:, 0] = vecs[:, 1]
        return state.ravel()
    if kind == "velocity":
        state = np.zeros((ops.n_x, ops.n_v))
        state[:, 1] = ops.grid.sqrt_weights
        return state.ravel()
    if kind == "random":
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(ops.n)
        f = ops.project_mean_zero(f)
        return f / np.linalg.norm(f)
    raise ConfigurationError(f"unknown initial-condition kind {kind!r}")


@dataclass
class BandLU:
    """Pivot-free factors M = L_1 U of a banded matrix in BLAS band storage.

    lower (kl+1, n) holds the unit-lower factor with its unreferenced diagonal
    in row 0; upper (ku+1, n) holds U with its diagonal in row ku.
    """

    kl: int
    ku: int
    lower: np.ndarray
    upper: np.ndarray
    growth: float
    min_pivot: float

    def solve(self, b: np.ndarray) -> np.ndarray:
        """M^{-1} b by two banded triangular solves."""
        y = dtbsv(self.kl, self.lower, b, lower=1, diag=1)
        return dtbsv(self.ku, self.upper, y, overwrite_x=1)

    def diagnostics(self) -> dict:
        return {"kl": self.kl, "ku": self.ku, "growth": self.growth,
                "min_pivot": self.min_pivot}


def band_lu(matrix: sp.spmatrix) -> BandLU:
    """Factor a sparse banded matrix by elimination without pivoting.

    The matrix goes into LAPACK band storage ab[ku + i - j, j], Fortran
    order.  Seen through the strided view V[i, j] = flat[ku + i + j (ldab - 1)]
    of the column-major flat = ab.ravel("F"), V[i, j] is entry (i, j) for
    every (i, j) in the band, so each column's elimination is plain slicing:
    scale the kl multipliers below the pivot, then subtract their outer
    product with the pivot row from the kl x ku window to the lower right.
    Raises NumericalError unless every pivot is finite and positive (the
    errstate keeps a zero pivot from surfacing as a warning first).
    """
    dia = sp.dia_matrix(matrix)
    n = dia.shape[0]
    kl, ku = max(0, -int(dia.offsets.min())), max(0, int(dia.offsets.max()))
    ldab = kl + ku + 1
    ab = np.zeros((ldab, n), order="F")
    ab[ku - dia.offsets] = dia.data  # dia.data[k, j] = M[j - offsets[k], j]
    scale = np.abs(ab).max()
    flat = ab.reshape(-1, order="F")  # a view: ab is Fortran-ordered
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
        lower=np.asfortranarray(ab[ku:]),
        upper=np.asfortranarray(ab[:ku + 1]),
        growth=float(np.abs(ab).max() / scale),
        min_pivot=float(pivots.min()),
    )


def integrate(
    ops: OperatorSet,
    f0: np.ndarray,
    gamma: float,
    t_end: float,
    dt: float,
    corrector: Corrector,
    eps: float,
    Lambda: float,
) -> DecayTrace:
    """Advance f0 to t_end by the trapezoidal map, sampling every step.

    M = I - (dt/2) L is factored once by band_lu; each step solves
    M f_{n+1} = f_n + (dt/2) L f_n with the L f_n of the diagnostics.  Each
    sample records the norm, the corrector's modified functional and its
    dissipation at eps, and the mean; each step records D at its midpoint for
    lyapunov_identity.  The envelope is sqrt(3) e^{-Lambda t} ||f0||.
    """
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    if dt > DT_GUARD / gamma * (1 + 1e-12):
        raise ConfigurationError(
            f"dt = {dt} violates the stability/accuracy guard dt <= {DT_GUARD}/gamma"
        )
    f0 = np.asarray(f0, dtype=float)
    norm0 = np.linalg.norm(f0)
    if abs(ops.mean(f0)) > MEAN_TOL * max(norm0, 1.0):
        raise PreconditionError("f0 is not mean-zero")

    L = compose_generator(ops, gamma)
    lu = band_lu(sp.identity(ops.n, format="csr") - (dt / 2) * L)
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
    for k in range(n_steps + 1):
        norm[k] = np.linalg.norm(f)
        lyap[k], diss[k] = functional.values(f, products)
        mean[k] = ops.mean(f)
        if k < n_steps:
            f_next = lu.solve(f + (dt / 2) * products[1])
            next_products = functional.products(f_next)
            cross[k] = functional.dissipation(
                f, products, f_next, next_products
            ) + functional.dissipation(f_next, next_products, f, products)
            f, products = f_next, next_products

    bound = np.sqrt(3.0) * np.exp(-Lambda * times) * norm0
    return DecayTrace(
        times=times,
        norm=norm,
        lyap=lyap,
        diss=diss,
        diss_mid=(diss[:-1] + diss[1:] + cross) / 4,
        bound=bound,
        mean=mean,
        gamma=float(gamma),
        eps=float(eps),
        Lambda=float(Lambda),
        band=lu.diagnostics(),
    )


def estimate_rate(trace: DecayTrace) -> float:
    """Least-squares slope of -log||f(t)|| over the trailing half of the
    samples taken before the norm first drops to the roundoff floor
    ROUNDOFF_FLOOR ||f(0)||, below which the trace decays no further."""
    above = trace.norm > ROUNDOFF_FLOOR * trace.norm[0]
    n = len(above) if above.all() else int(np.argmin(above))
    if n < MIN_FIT_SAMPLES:
        raise DegenerateTraceError(f"only {n} samples above the roundoff floor")
    start = (n - 1) // 2
    slope = np.polyfit(trace.times[start:n], -np.log(trace.norm[start:n]), 1)[0]
    return float(slope)


def verify_decay_bound(trace: DecayTrace):
    """(holds, min_margin) for  norm <= sqrt(3) e^{-Lambda t} norm0."""
    ok = np.ones(len(trace.times), dtype=bool)
    margin = np.ones(len(trace.times))
    positive = trace.bound > 0
    ok[positive] = trace.norm[positive] <= trace.bound[positive] * (1 + 1e-8)
    margin[positive] = (trace.bound[positive] - trace.norm[positive]) / trace.bound[
        positive
    ]
    zero = ~positive
    ok[zero] = trace.norm[zero] == 0.0
    return bool(np.all(ok)), float(margin.min())


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
    dt = trace.times[1] - trace.times[0]
    resid = np.abs(
        (trace.lyap[2:] - trace.lyap[:-2]) / (2 * dt) + trace.diss[1:-1]
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
    dt = trace.times[1] - trace.times[0]
    resid = np.abs(np.diff(trace.lyap) + dt * trace.diss_mid)
    return float(resid.max() / max(abs(trace.lyap[0]), 1e-300))
