"""Closed-form friction/rate pipeline.

Given the Poincare constant m > 0 of the position marginal and the Hessian
lower bound K >= 0, the pipeline produces

    zeta        = gamma/(2 sqrt(m)) + sqrt(2 + K/(2m))
    a(gamma)    = 2 + zeta^2
    eps_star    = gamma / a                  (clean suboptimal choice)
    eps_max     = 2 gamma / (sqrt(a)(sqrt(a) + sqrt(a-1)))
    gamma_star  = sqrt(16 m + 2 K)
    x_star      = sqrt(4 + K/(2m))           (maximizer of Phi(x) =
                  x / (2 ((x + sqrt(2 + K/2m))^2 + 2)))
    lambda_coer = sqrt(m) / (4 (sqrt(2+K/2m) + sqrt(4+K/2m)))
    Lambda      = (2/3) lambda_coer
    prefactor   = sqrt(3)

and the 2x2 dissipation matrix M = [[gamma-eps, -eps*zeta/2],
[-eps*zeta/2, eps/2]], positive definite iff eps < 2 gamma / (2 + zeta^2).

Everything here is plain arithmetic on the inputs; all constants are exact up
to floating point and homogeneous of degree 1/2 under (m, K) -> (c m, c K).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

PREFACTOR = math.sqrt(3)  # of the decay envelope PREFACTOR e^{-Lambda t}


@dataclass(frozen=True)
class TuningResult:
    m: float
    K: float
    zeta: float
    a: float
    eps_star: float
    eps_max: float
    gamma_star: float
    x_star: float
    lambda_coer: float
    Lambda: float
    prefactor: float

    def as_dict(self) -> dict:
        return asdict(self)


def curvature_roots(m: float, K: float):
    """(sqrt(2 + K/(2m)), sqrt(4 + K/(2m))), the two roots the constants and
    the corrector bound on ||A L_a (1 - Pi_v)|| are written in."""
    k = K / (2 * m)
    return math.sqrt(2 + k), math.sqrt(4 + k)


def _zeta(gamma: float, m: float, K: float) -> float:
    return gamma / (2 * math.sqrt(m)) + curvature_roots(m, K)[0]


def dissipation_matrix(gamma: float, eps: float, m: float, K: float):
    """2x2 coercivity matrix with its determinant, trace, admissibility."""
    z = _zeta(gamma, m, K)
    M = np.array([[gamma - eps, -eps * z / 2], [-eps * z / 2, eps / 2]])
    det = eps * (gamma - eps) / 2 - eps**2 * z**2 / 4
    trace = gamma - eps / 2
    admissible = eps < 2 * gamma / (2 + z**2)
    return M, det, trace, admissible


def optimize_friction(m: float, K: float) -> TuningResult:
    """Full tuned pipeline at gamma = gamma_star = sqrt(16 m + 2 K)."""
    gamma_star = math.sqrt(16 * m + 2 * K)
    z = _zeta(gamma_star, m, K)
    a = 2 + z**2
    eps_star = gamma_star / a
    eps_max = 2 * gamma_star / (math.sqrt(a) * (math.sqrt(a) + math.sqrt(a - 1)))
    x_star = curvature_roots(m, K)[1]
    lam, Lam, pref = rate(m, K)
    return TuningResult(
        m=m,
        K=K,
        zeta=z,
        a=a,
        eps_star=eps_star,
        eps_max=eps_max,
        gamma_star=gamma_star,
        x_star=x_star,
        lambda_coer=lam,
        Lambda=Lam,
        prefactor=pref,
    )


def rate(m: float, K: float):
    """(lambda_coer, Lambda, prefactor) from the closed forms."""
    root2, root4 = curvature_roots(m, K)
    lam = math.sqrt(m) / (4 * (root2 + root4))
    return lam, 2 * lam / 3, PREFACTOR


def check_ratio_consistency(tuned: TuningResult) -> dict:
    """Evaluate the bound chain det/tr <= lambda_min(M) at (gamma*, eps*)."""
    M, det, trace, admissible = dissipation_matrix(
        tuned.gamma_star, tuned.eps_star, tuned.m, tuned.K
    )
    lam_min = float(np.linalg.eigvalsh(M)[0])
    return {
        "det_over_trace": det / trace,
        "lambda_min_M": lam_min,
        "lambda_coer": tuned.lambda_coer,
        "admissible": admissible,
        "chain_holds": lam_min >= det / trace >= tuned.lambda_coer,
    }
