"""Confining potentials, their closed-form derivatives and constants.

Built-in family (1-D, all derivatives closed form):

    quadratic    U(x) = a x^2 / 2              (a > 0)
    double_well  U(x) = s (x^2 - 1)^2 / 4      (s > 0, default 1)
    cosine_bump  U(x) = x^2 / 2 + c cos(x)     (c >= 0)

A Potential also carries the constants every other module reads: the
Hessian lower bound K = max(0, -inf U''), the known spectral gap analytic_m
and the default domain.  K is in closed form, so the bound checks downstream
test the estimate logic, not discretization slack.
The normalization constant Z is never materialized; measures enter everywhere
as normalized weight vectors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, PreconditionError

POTENTIAL_KINDS = ("quadratic", "double_well", "cosine_bump")


@dataclass(frozen=True)
class Potential:
    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise ConfigurationError(f"unknown potential kind {self.kind!r}")
        par = tuple(float(p) for p in self.params) or (1.0,)
        if len(par) != 1:
            raise ConfigurationError(f"{self.kind} takes a single parameter")
        if not np.isfinite(par[0]):
            raise ConfigurationError(f"{self.kind} parameter must be finite")
        if self.kind == "quadratic" and par[0] <= 0:
            raise ConfigurationError("quadratic curvature must be positive")
        if self.kind == "double_well" and par[0] <= 0:
            raise ConfigurationError("double-well scale must be positive")
        if self.kind == "cosine_bump" and par[0] < 0:
            raise ConfigurationError("cosine bump amplitude must be >= 0")
        object.__setattr__(self, "params", par)

    @property
    def K(self) -> float:
        """Closed-form K = max(0, -inf_x U''(x))."""
        (par,) = self.params
        if self.kind == "quadratic":
            return 0.0
        if self.kind == "double_well":
            return par  # inf of s(3x^2 - 1) is -s
        return max(0.0, par - 1.0)  # inf of 1 - c cos(x) is 1 - c

    @property
    def analytic_m(self) -> float | None:
        """The known spectral gap where one exists (quadratic: the curvature
        a); None otherwise."""
        return self.params[0] if self.kind == "quadratic" else None

    @property
    def domain(self) -> float:
        """Default truncation half-width.

        The double well needs a tighter box: e^{-U} underflows beyond
        |x| ~ 7.5, and steep-tail bonds otherwise create fast oscillatory
        modes that the trapezoidal integrator barely damps.
        """
        return 4.0 if self.kind == "double_well" else 8.0


def quadratic(a: float = 1.0) -> Potential:
    return Potential("quadratic", (a,))


def double_well(scale: float = 1.0) -> Potential:
    return Potential("double_well", (scale,))


def cosine_bump(c: float = 1.0) -> Potential:
    return Potential("cosine_bump", (c,))


def eval_potential(p: Potential, x):
    """Evaluate (U, U', U'') at x (scalar or array), exactly for the family."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise PreconditionError("potential evaluated at non-finite x")
    (par,) = p.params
    du = potential_gradient(p, x)
    if p.kind == "quadratic":
        return par * x**2 / 2, du, par * np.ones_like(x)
    if p.kind == "double_well":
        return par * (x**2 - 1) ** 2 / 4, du, par * (3 * x**2 - 1)
    return x**2 / 2 + par * np.cos(x), du, 1 - par * np.cos(x)


def potential_gradient(p: Potential, x: np.ndarray) -> np.ndarray:
    """U'(x) alone for a float array x, the one place its formulas are written.

    No finiteness check on x: for every kind U' is non-finite wherever x is,
    so a caller that checks the result checks both.
    """
    (par,) = p.params
    if p.kind == "quadratic":
        return par * x
    if p.kind == "double_well":
        return par * (x**3 - x)
    return x - par * np.sin(x)
