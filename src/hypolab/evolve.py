"""Backward-equation time integration and decay verification.

The one-step map is trapezoidal (Crank-Nicolson),

    f_{n+1} = (I - dt/2 L)^{-1} (I + dt/2 L) f_n,

applied through a sparse LU factorization computed once.  Because the
symmetric part of L is gamma * L_s <= 0 the map is non-expansive, so failures
of the decay bound can only be mathematical, never stability artifacts.  The
constant function is a two-sided null vector of L, hence the weighted mean is
conserved to machine precision and the mean-zero subspace is invariant.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
    """Per-step samples of the decaying state and the certified envelope."""

    times: np.ndarray
    norm: np.ndarray
    lyap: np.ndarray
    diss: np.ndarray
    bound: np.ndarray
    mean: np.ndarray
    gamma: float
    eps: float
    Lambda: float

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

    Each sample records the norm, the corrector's modified functional and its
    dissipation at eps, and the mean; the envelope is
    sqrt(3) e^{-Lambda t} ||f0||.
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

    L = compose_generator(ops, gamma).tocsc()
    n_steps = max(0, int(round(t_end / dt)))
    if n_steps:
        identity = sp.identity(ops.n, format="csc")
        try:
            lu = spla.splu(identity - (dt / 2) * L)
        except RuntimeError as exc:  # pragma: no cover - well conditioned
            raise NumericalError(f"Crank-Nicolson factorization failed: {exc}")
        forward = (identity + (dt / 2) * L).tocsr()
    times = np.arange(n_steps + 1) * dt
    norm = np.empty(n_steps + 1)
    lyap = np.empty(n_steps + 1)
    diss = np.empty(n_steps + 1)
    mean = np.empty(n_steps + 1)

    functional = ModifiedFunctional(corrector, L, eps)
    f = f0.copy()
    for k in range(n_steps + 1):
        norm[k] = np.linalg.norm(f)
        lyap[k], diss[k] = functional.values(f)
        mean[k] = ops.mean(f)
        if k < n_steps:
            f = lu.solve(forward @ f)

    bound = np.sqrt(3.0) * np.exp(-Lambda * times) * norm0
    return DecayTrace(
        times=times,
        norm=norm,
        lyap=lyap,
        diss=diss,
        bound=bound,
        mean=mean,
        gamma=float(gamma),
        eps=float(eps),
        Lambda=float(Lambda),
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
