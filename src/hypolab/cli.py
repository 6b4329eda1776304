"""Experiment runner: config parsing, orchestration, report emission.

Config files are flat key/value text with dotted sections::

    potential.kind = double_well
    grid.N_x = 128
    evolve.dt = 0.02

Command-line flags override file values.  COMMANDS lists the stages each
subcommand runs, in order; run_experiment runs them and times each one into
report.timings[stage], so a stage function only computes and judges.  Before
the first stage _preflight checks every limit the config sets on the stages,
so a stage raises no ConfigurationError from a config value; then a command
that runs operator stages beside its sample stage (all) forks its ensemble
into a process of its own, before any stage loads scipy, and runs the
operator stages while it samples.  The full report
is printed as JSON; with --out it is also written to report.json plus one CSV
per trace and a summary.txt digest.  Each verdict is skipped, or
passes if and only if its margin is a finite number >= 0.  Exit codes: 0 ok,
1 a verdict failed, 2 config error, 3 numerical failure, 4 IO error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .corrector import (
    bochner_residual,
    build_corrector,
    dissipation_form_min_eig,
    singular_pairs,
    verify_corrector_bounds,
)
from .discretize import (
    assemble_operators,
    bochner_test_suite,
    build_grid,
    build_velocity_basis,
    check_structure,
    discrete_curvature,
    poincare_constant,
)
from .errors import ConfigurationError, NumericalError, PreconditionError
from .evolve import (
    INITIAL_KINDS,
    MEAN_TOL,
    crank_nicolson,
    estimate_rate,
    initial_condition,
    integrate,
    lyapunov_derivative_check,
    lyapunov_identity,
    step_size,
    verify_decay_bound,
)
from .model import POTENTIAL_KINDS, Potential
from .sampler import (FIT_RECORD_BYTES, MIN_FIT_SAMPLES, SdeConfig, ensemble_bytes,
                      estimate_observable_decay, record_count, run_ensemble,
                      start_ensemble, worker_ranges)
from .tuning import (
    TuningResult,
    check_ratio_consistency,
    dissipation_matrix,
    optimize_friction,
)

# subcommand -> the stages it runs, in order; each stage is timed under its name
COMMANDS = {
    "gap": ("gap",),
    "tune": ("tune",),
    "verify": ("structure", "corrector", "bochner"),
    "evolve": ("gap", "tune", "evolve"),
    "sample": ("sample",),
    "sweep": ("sweep",),
    "all": ("gap", "tune", "structure", "corrector", "bochner", "evolve", "sample"),
}
SUBCOMMANDS = tuple(COMMANDS)
EQUILIBRIUM_Z = 3.0  # standard errors a sampled second moment may stray
FIRST_MOMENT_RTOL = 0.15  # relative error allowed the sampled first-moment rate
TUNED_RTOL = 1e-12  # relative distance at which a parameter counts as tuned
EXACT_TOL = 1e-12  # residual allowed an identity that holds exactly
LAMBDA_RTOL = 4 * np.finfo(float).eps  # Lambda against its closed form, a few ulp
# most Crank-Nicolson steps one integration may take, far above any run's need:
# integrate keeps seven per-step arrays and peaks at nine (56-72 bytes a step)
MAX_CN_STEPS = 10**6
MAX_SDE_BYTES = 2**31  # most bytes of one ensemble over its processes, with its fit
POSITIVE = "positive"  # a range rule: the value, or each entry, is > 0


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _key(key: str, default, parse, rule=None):
    """A config field: its dotted key, default, parser of the value text and
    range rule (a minimum, POSITIVE, a tuple or range of allowed values).  The
    rule applies to each entry of a tuple value, every float must also be
    finite, and None is unset, so that defaults apply."""
    return field(default=default, metadata={"key": key, "parse": parse, "rule": rule})


@dataclass
class ExperimentConfig:
    potential_kind: str = _key("potential.kind", "quadratic", str, POTENTIAL_KINDS)
    potential_params: tuple = _key("potential.params", (), _floats)  # checked by Potential
    grid_l_dom: float | None = _key("grid.L_dom", None, float, POSITIVE)
    grid_n_x: int = _key("grid.N_x", 128, int, 16)
    grid_n_v: int = _key("grid.N_v", 20, int, 4)
    tuning_gamma: float | None = _key("tuning.gamma", None, float, POSITIVE)
    tuning_eps: float | None = _key("tuning.eps", None, float, POSITIVE)
    evolve_t_end_factor: float = _key("evolve.t_end_factor", 5.0, float, POSITIVE)
    evolve_dt: float = _key("evolve.dt", 0.02, float, POSITIVE)
    evolve_f0: str = _key("evolve.f0", "random", str, INITIAL_KINDS + ("all",))
    # numpy takes the sampler's Philox key [seed, i] exactly only below 2**63
    seed: int = _key("seed", 2024, int, range(2**63))
    sde_d: int = _key("sde.d", 1, int, 1)
    sde_particles: int = _key("sde.particles", 10000, int, 100)
    sde_dt: float = _key("sde.dt", 0.01, float, POSITIVE)
    sde_steps: int = _key("sde.steps", 2000, int, 1)
    sde_record_every: int = _key("sde.record_every", 10, int, 1)
    sde_init_shift: float = _key("sde.init_shift", 2.0, float)
    sweep_gammas: tuple = _key("sweep.gammas", (0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
                               _floats, POSITIVE)
    sweep_target: str = _key("sweep.target", "sample", str, ("evolve", "sample"))

    def echo(self) -> dict:
        """Flat dotted-key view; parsing the echo reproduces the config."""
        out = {}
        for key, f in _KEYS.items():
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, tuple):
                out[key] = ",".join(repr(float(v)) for v in value)
            else:
                out[key] = value if isinstance(value, str) else repr(value)
        return out


# config key -> its ExperimentConfig field
_KEYS = {f.metadata["key"]: f for f in fields(ExperimentConfig)}
# command-line flag -> the config key it overrides
_FLAGS = {"--seed": "seed", "--gamma": "tuning.gamma", "--eps": "tuning.eps",
          "--nx": "grid.N_x", "--nv": "grid.N_v"}


def parse_config_text(text: str) -> dict:
    """Parse the flat key = value document into a string map; a key may be
    given once."""
    out, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigurationError(f"{key}: unknown configuration key")
        if key in first_line:
            raise ConfigurationError(f"{key}: given on lines {first_line[key]} and {lineno}")
        first_line[key] = lineno
        out[key] = value
    return out


def build_config(raw: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for key, value in raw.items():
        f = _KEYS[key]
        try:
            setattr(cfg, f.name, f.metadata["parse"](str(value)))
        except ValueError as exc:
            raise ConfigurationError(f"{key}: {exc}")
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig):
    def bad(key, msg):
        raise ConfigurationError(f"{key}: {msg}")

    for key, f in _KEYS.items():
        value, rule = getattr(cfg, f.name), f.metadata["rule"]
        for v in value if isinstance(value, tuple) else (value,):
            if v is None:
                continue
            if isinstance(v, float) and not math.isfinite(v):
                bad(key, "must be finite")
            if isinstance(rule, tuple):
                if v not in rule:
                    bad(key, f"must be one of {', '.join(rule)}, not {v!r}")
            elif isinstance(rule, range):
                if v not in rule:
                    bad(key, f"must be in [{rule.start}, {rule.stop}), not {v}")
            elif rule == POSITIVE:
                if v <= 0:
                    bad(key, "must be positive")
            elif rule is not None and v < rule:
                bad(key, f"must be >= {rule}")
    # the rules that span keys
    try:
        Potential(cfg.potential_kind, cfg.potential_params)
    except ConfigurationError as exc:
        bad("potential.params", exc)
    if not cfg.sweep_gammas:
        bad("sweep.gammas", "must list one or more gammas")
    labels = [f"{g:g}" for g in cfg.sweep_gammas]
    if len(set(labels)) < len(labels):
        bad("sweep.gammas", f"gammas share a report label: {', '.join(labels)}")


@dataclass
class RunReport:
    version: str
    command: str
    config: dict
    results: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    manifest: list = field(default_factory=list)
    traces: list = field(default_factory=list)  # (filename, trace with .columns)

    def check(self, name, margin):
        """A checked verdict: it passes if and only if margin is a finite
        number >= 0; None (nothing to measure) or NaN fails."""
        ok = margin is not None and math.isfinite(margin) and margin >= 0
        self.verdicts.append(
            {"name": name, "status": "pass" if ok else "fail", "margin": margin}
        )

    def skip(self, name):
        """A verdict that does not apply to this run."""
        self.verdicts.append({"name": name, "status": "skipped", "margin": None})

    @property
    def failed(self) -> bool:
        return any(v["status"] == "fail" for v in self.verdicts)

    def as_dict(self) -> dict:
        return {
            "version": self.version,
            "command": self.command,
            "config": self.config,
            "results": self.results,
            "verdicts": self.verdicts,
            "timings": self.timings,
            "manifest": self.manifest,
        }


def report_json(report: RunReport) -> str:
    return json.dumps(report.as_dict(), indent=2)


class _Workspace:
    """Lazily built grid, gap, operators, operating point and ensemble shared
    across subcommand stages; each is resolved once, and only here.  The gap
    and the tuning need the grid alone; the operators, and with them scipy,
    are built by the first stage that reads them (structure, corrector,
    bochner, evolve or an evolve sweep).  The ensemble needs no scipy: the
    sample stage runs it here, unless run_experiment has set it from the
    ensemble process it forked before the first stage."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.potential = Potential(cfg.potential_kind, cfg.potential_params)

    @property
    def l_dom(self) -> float:
        if self.cfg.grid_l_dom is not None:
            return self.cfg.grid_l_dom
        return self.potential.domain

    @property
    def fits_first_moment(self) -> bool:
        """The sampler's decay from the shifted start is fitted to the ODE."""
        return self.potential.analytic_m is not None and self.cfg.sde_init_shift != 0.0

    @property
    def t_end(self) -> float:
        return self.cfg.evolve_t_end_factor / self.tuned.Lambda

    @cached_property
    def grid(self):
        return build_grid(self.potential, self.l_dom, self.cfg.grid_n_x)

    @cached_property
    def m_h(self) -> float:
        return poincare_constant(self.grid)

    @cached_property
    def ops(self):
        lowering = build_velocity_basis(self.cfg.grid_n_v)
        return assemble_operators(self.grid, lowering, self.m_h)

    @cached_property
    def tuned(self) -> TuningResult:
        """Closed-form pipeline at the run's (m_h, K), the constants the
        corrector and its checks read too."""
        return optimize_friction(self.m_h, self.potential.K)

    @cached_property
    def gamma(self) -> float:
        """tuning.gamma, defaulting to gamma_star."""
        if self.cfg.tuning_gamma is not None:
            return self.cfg.tuning_gamma
        return self.tuned.gamma_star

    @cached_property
    def eps(self) -> float:
        """tuning.eps, defaulting to eps_star."""
        if self.cfg.tuning_eps is not None:
            return self.cfg.tuning_eps
        return self.tuned.eps_star

    @cached_property
    def gamma_is_tuned(self) -> bool:
        """gamma is gamma_star: the decay bound and the rate are certified."""
        return abs(self.gamma - self.tuned.gamma_star) <= (
            TUNED_RTOL * self.tuned.gamma_star
        )

    @cached_property
    def point_is_tuned(self) -> bool:
        """(gamma, eps) is (gamma_star, eps_star): the functional decreases."""
        return self.gamma_is_tuned and abs(self.eps - self.tuned.eps_star) <= (
            TUNED_RTOL * self.tuned.eps_star
        )

    @cached_property
    def corrector(self):
        return build_corrector(self.ops)

    @cached_property
    def ensemble(self):
        """The sample stage's ensemble, at the operating point's gamma."""
        return run_ensemble(_sde_config(self, self.gamma))


def _stage_gap(ws: _Workspace, report: RunReport):
    report.results["gap"] = {
        "m_h": ws.m_h,
        "K": ws.potential.K,
        "analytic_m": ws.potential.analytic_m,
        "L_dom": ws.l_dom,
        "N_x": ws.cfg.grid_n_x,
        "N_v": ws.cfg.grid_n_v,
    }
    report.check("gap_positive", ws.m_h)


def _stage_tune(ws: _Workspace, report: RunReport):
    tuned = ws.tuned
    report.results["tuning"] = tuned.as_dict()
    chain = check_ratio_consistency(tuned)
    report.results["tuning"]["ratio_chain"] = chain
    M, _, _, admissible = dissipation_matrix(ws.gamma, ws.eps, tuned.m, tuned.K)
    report.results["tuning"]["operating_point"] = {
        "gamma": ws.gamma,
        "eps": ws.eps,
        "admissible": admissible,
        "lambda_min_M": float(np.linalg.eigvalsh(M)[0]),
    }
    # the smallest gap in 0 < eps* < eps_max < 2 gamma* / a
    report.check("eps_ordering", min(
        tuned.eps_star,
        tuned.eps_max - tuned.eps_star,
        2 * tuned.gamma_star / tuned.a - tuned.eps_max,
    ))
    # the paper's closed form for Lambda, written out apart from tuning.rate
    m, K = tuned.m, tuned.K
    closed = math.sqrt(m) / (
        6 * (math.sqrt(2 + K / (2 * m)) + math.sqrt(4 + K / (2 * m)))
    )
    rel = abs(tuned.Lambda - closed) / closed
    report.check("lambda_relation", LAMBDA_RTOL - rel)
    # the smaller gap in lambda_min(M) >= det/tr >= lambda_coer
    report.check("ratio_chain", min(
        chain["lambda_min_M"] - chain["det_over_trace"],
        chain["det_over_trace"] - chain["lambda_coer"],
    ))


def _stage_structure(ws: _Workspace, report: RunReport):
    structure = check_structure(ws.ops)
    report.results["structure"] = structure
    report.check("structure_exact", EXACT_TOL - max(structure["exact"].values()))


def _stage_corrector(ws: _Workspace, report: RunReport):
    # one eigensolve: the bounds read the pairs, then the min-eig empties them
    pairs = singular_pairs(ws.ops)
    norms = verify_corrector_bounds(ws.corrector, pairs)
    min_eig, residual, cap, steps = dissipation_form_min_eig(
        ws.corrector, ws.eps, ws.gamma, pairs)
    lambda_coer = ws.tuned.lambda_coer
    report.results["corrector"] = {
        **norms,
        "min_eig_Q": min_eig,
        "min_eig_residual": residual,
        "min_eig_residual_cap": cap,
        "min_eig_newton_steps": steps,
        "lambda_coer": lambda_coer,
        "slack": min_eig - lambda_coer,
    }
    for name, ratio in zip(("bound_A", "bound_LaA", "bound_ALa_fast"), norms["ratios"]):
        report.check(name, norms["ratio_allowance"] - (ratio - 1.0))
    # the paper states lambda_coer at (gamma*, eps*) only; min_eig - residual
    # bounds the form's smallest eigenvalue while the residual is rounding
    if ws.point_is_tuned:
        report.check("dissipation_coercive", min(
            (min_eig - residual) / lambda_coer - 1, 1 - residual / cap))
    else:
        report.skip("dissipation_coercive")


def _stage_bochner(ws: _Workspace, report: RunReport):
    ops = ws.ops
    report.results["bochner_residuals"] = {
        name: bochner_residual(ops, values)
        for name, values in bochner_test_suite(ops.grid).items()
    }
    # the discrete inequality holds for every h exactly when K >= max c
    curvature = discrete_curvature(ops.grid)
    i = int(np.argmax(curvature))
    K, K_h, x = ws.potential.K, float(curvature[i]), float(ops.grid.nodes[i])
    report.results["bochner"] = {"K": K, "K_h": K_h, "x_at_max": x}
    report.check("bochner_inequality", K - K_h)


def _stage_evolve(ws: _Workspace, report: RunReport):
    cfg = ws.cfg
    tuned = ws.tuned
    gamma = ws.gamma
    kinds = INITIAL_KINDS if cfg.evolve_f0 == "all" else (cfg.evolve_f0,)
    cn = crank_nicolson(ws.ops, gamma, cfg.evolve_dt)  # one factorization, every kind
    rates, solve_residual, binds_at = {}, {}, {}
    for kind in kinds:
        trace = integrate(ws.ops, initial_condition(ws.ops, kind, seed=cfg.seed), cn,
                          ws.t_end, ws.corrector, ws.eps, tuned.Lambda)
        solve_residual[kind] = trace.solve_residual
        suffix = f"_{kind}" if len(kinds) > 1 else ""
        name = f"decay_{ws.potential.kind}_{gamma:g}{suffix}.csv"
        report.traces.append((name, trace))
        report.results.setdefault("lyapunov_identity", {})[kind] = lyapunov_identity(trace)
        drift = float(np.abs(trace.mean - trace.mean[0]).max())
        report.check(f"mean_conserved{suffix}", MEAN_TOL - drift)
        rates[f"evolve_{kind}"] = fitted = estimate_rate(trace)
        if ws.gamma_is_tuned:
            margin, binds_at[kind] = verify_decay_bound(trace)
            report.check(f"decay_bound{suffix}", margin)
            report.check(f"rate_above_Lambda{suffix}", fitted / tuned.Lambda - 1)
            resid = lyapunov_derivative_check(trace, monotone=ws.point_is_tuned)
            report.results.setdefault("lyapunov_residuals", {})[kind] = resid
        else:
            report.skip(f"decay_bound{suffix}")
            report.skip(f"rate_above_Lambda{suffix}")
    report.results.setdefault("rates", {}).update(rates)
    report.results["evolve"] = {
        "gamma": gamma, "eps": ws.eps, "Lambda": tuned.Lambda,
        "t_end": ws.t_end, "dt": cn.dt, "kinds": list(kinds),
        "band": cn.lu.diagnostics(), "solve_residual": solve_residual,
        "decay_bound_time": binds_at,
    }


def _sde_config(ws: _Workspace, gamma: float) -> SdeConfig:
    cfg = ws.cfg
    return SdeConfig(potential=ws.potential, d=cfg.sde_d, particles=cfg.sde_particles,
                     dt=cfg.sde_dt, steps=cfg.sde_steps, gamma=gamma, seed=cfg.seed,
                     record_every=cfg.sde_record_every, init_shift=cfg.sde_init_shift)


def _first_moment_rate(gamma: float, a: float) -> float:
    """Slow decay rate of the 2x2 first-moment ODE d/dt (Ex, Ev)."""
    eigs = np.linalg.eigvals(np.array([[0.0, 1.0], [-a, -gamma]]))
    return float(-np.max(eigs.real))


def _stage_sample(ws: _Workspace, report: RunReport):
    sde, trace = _sde_config(ws, ws.gamma), ws.ensemble
    report.traces.append((f"sde_{ws.potential.kind}_{sde.gamma:g}.csv", trace))

    def moment(values):
        # a diverged ensemble has no common final state: its moments are null
        return None if values is None else values.tolist()

    report.results["sample"] = {
        "gamma": sde.gamma,
        "final_v_var": moment(trace.final_v_var),
        "final_x_var": moment(trace.final_x_var),
        "final_v_mean": moment(trace.final_v_mean),
        "final_x_mean": moment(trace.final_x_mean),
        "diverged": trace.diverged,
        "divergence": trace.divergence,
        "workers": trace.workers,
    }
    se_v = np.sqrt(2.0 / (sde.particles * sde.d))  # var of v^2 under kappa is 2

    def equilibrium(name, var, mean, target, se):
        if trace.diverged:  # nothing to measure: the None margin fails
            report.check(name, None)
        else:
            z = abs(float((var + mean**2).mean()) - target) / se
            report.check(name, EQUILIBRIUM_Z - z)

    equilibrium("equilibrium_v_sq", trace.final_v_var, trace.final_v_mean, 1.0, se_v)
    a = ws.potential.analytic_m
    if a is None:
        report.skip("equilibrium_x_sq")
    else:
        equilibrium("equilibrium_x_sq", trace.final_x_var, trace.final_x_mean,
                    1.0 / a, se_v / a)
    if ws.fits_first_moment:
        rate = estimate_observable_decay(trace)
        oracle = _first_moment_rate(sde.gamma, a)
        rates = report.results.setdefault("rates", {})
        rates["sample_first_moment"] = rate
        rates["sample_first_moment_oracle"] = oracle
        report.check("first_moment_rate",
                     FIRST_MOMENT_RTOL - abs(rate - oracle) / oracle)
    else:
        report.skip("first_moment_rate")


def _stage_sweep(ws: _Workspace, report: RunReport):
    cfg = ws.cfg
    rates = {}
    if cfg.sweep_target == "sample":
        for gamma in cfg.sweep_gammas:
            trace = run_ensemble(_sde_config(ws, gamma))
            rates[f"{gamma:g}"] = estimate_observable_decay(trace)
    else:
        f0 = initial_condition(ws.ops, "random", seed=cfg.seed)
        for gamma in cfg.sweep_gammas:
            cn = crank_nicolson(ws.ops, gamma, cfg.evolve_dt)
            rates[f"{gamma:g}"] = estimate_rate(integrate(
                ws.ops, f0, cn, ws.t_end, ws.corrector, ws.eps, ws.tuned.Lambda))
    report.results["sweep"] = {"target": cfg.sweep_target, "rates": rates}
    # the first-moment ODE x'' + gamma x' + a x = 0 is critically damped at
    # gamma_c = 2 sqrt(a)
    critical = None
    a = ws.potential.analytic_m
    if a is not None and len(rates) > 1:
        gamma_c = 2.0 * math.sqrt(a)
        critical = next((f"{g:g}" for g in cfg.sweep_gammas
                         if abs(g - gamma_c) <= TUNED_RTOL * gamma_c), None)
    if critical is None:
        report.skip("sweep_argmax_critical")
    else:
        other = max(r for g, r in rates.items() if g != critical)
        report.check("sweep_argmax_critical",
                     (rates[critical] - other) / rates[critical])


# stage name -> the function that computes and judges it
_STAGES = {
    "gap": _stage_gap, "tune": _stage_tune, "structure": _stage_structure,
    "corrector": _stage_corrector, "bochner": _stage_bochner,
    "evolve": _stage_evolve, "sample": _stage_sample, "sweep": _stage_sweep,
}


def _preflight(command: str, ws: _Workspace):
    """Check, before the first stage, every limit the config sets on the
    command's stages, at each gamma the run integrates or samples; each
    message names its key.  An integration takes at most MAX_CN_STEPS steps
    of step_size; BAOAB needs sde.dt * gamma < 1; an ensemble, summed over
    the processes it runs in, and its decay fit hold at most MAX_SDE_BYTES;
    each decay fit has MIN_FIT_SAMPLES."""
    cfg, stages = ws.cfg, COMMANDS[command]
    target = cfg.sweep_target if "sweep" in stages else None
    integrates = "evolve" in stages or target == "evolve"
    samples = "sample" in stages or target == "sample"
    if not (integrates or samples):
        return
    unset = " (unset, so gamma*)" if cfg.tuning_gamma is None else ""
    gammas = ([("sweep.gammas", g) for g in cfg.sweep_gammas] if target
              else [(f"tuning.gamma{unset}", ws.gamma)])
    fits = []  # (key, what gives a decay fit its samples, their number)
    for key, gamma in gammas if integrates else ():
        dt = step_size(cfg.evolve_dt, gamma)
        steps = ws.t_end / dt
        where = f"at {key} = {gamma:g}, t_end / dt = {ws.t_end:g} / {dt:g} = {steps:g}"
        if not steps <= MAX_CN_STEPS:  # also NaN and inf
            raise ConfigurationError(f"evolve.t_end_factor: {where} steps, and at "
                                     f"most MAX_CN_STEPS = {MAX_CN_STEPS} are allowed")
        fits.append(("evolve.t_end_factor", where, round(steps) + 1))
    if target == "sample" and cfg.sde_init_shift == 0.0:
        raise ConfigurationError("sde.init_shift: a sample sweep fits the decay "
                                 "from the shifted start, so it must be nonzero")
    fit = target == "sample" or "sample" in stages and ws.fits_first_moment
    for key, gamma in gammas if samples else ():
        sde = _sde_config(ws, gamma)
        if cfg.sde_dt * gamma >= 1.0:
            raise ConfigurationError(
                f"{key}: the sampler needs sde.dt * gamma < 1, and "
                f"{cfg.sde_dt:g} * {gamma:g} = {cfg.sde_dt * gamma:g}")
        need = ensemble_bytes(sde)
        need += FIT_RECORD_BYTES * record_count(sde) if fit else 0
        if need > MAX_SDE_BYTES:
            raise ConfigurationError(
                f"sde.particles, sde.d, sde.steps, sde.record_every: the ensemble needs "
                f"{need} bytes{' with its decay fit' if fit else ''}, and at most "
                f"MAX_SDE_BYTES = {MAX_SDE_BYTES} are allowed (summed over the "
                f"{len(worker_ranges(sde))} processes it runs in)")
    if fit:  # a fit samples, so sde is the last gamma's
        fits.append(("sde.steps", "steps // record_every + 1", record_count(sde)))
    for key, where, count in fits:
        if count < MIN_FIT_SAMPLES:
            raise ConfigurationError(f"{key}: {where} gives a trace of {count} "
                                     f"samples, and the decay fit needs {MIN_FIT_SAMPLES}")


def run_experiment(command: str, cfg: ExperimentConfig) -> RunReport:
    """Run the command's stages in COMMANDS order, each timed under its name.

    A command that runs other stages beside sample (all) forks its ensemble
    process right after _preflight, before any stage loads scipy, and runs
    its other stages while the ensemble runs.  The sample stage waits for the
    result where it stands in the order, so errors surface in COMMANDS
    order, and timings["sample"] is the ensemble's own seconds plus the
    stage's, without the wait; the stage times therefore overlap.  If a
    stage raises, the ensemble process and its workers are stopped and
    reaped before the error propagates."""
    if command not in SUBCOMMANDS:
        raise ConfigurationError(f"unknown subcommand {command!r}")
    report = RunReport(version=__version__, command=command, config=dict(cfg.echo()))
    ws = _Workspace(cfg)
    stages = COMMANDS[command]
    # the clock runs from before the preflight, whose gamma and t_end may build
    # the grid, the gap and the tuning: the first stage carries that set-up
    clock = time.perf_counter
    t0 = clock()
    _preflight(command, ws)
    ensemble = None
    if "sample" in stages and len(stages) > 1:
        # the process calls this module's run_ensemble, as the sample stage would
        ensemble = start_ensemble(_sde_config(ws, ws.gamma), run_ensemble)
    try:
        for stage in stages:
            if stage == "sample" and ensemble is not None:
                t1 = clock()
                ws.ensemble, sampled = ensemble.result()
                # the wait is no stage's time; the ensemble's own seconds are
                t0 += clock() - t1 - sampled
            _STAGES[stage](ws, report)
            t1 = clock()
            report.timings[stage] = t1 - t0
            t0 = t1
    finally:
        if ensemble is not None:
            ensemble.stop()
    return report


def emit_report(report: RunReport, outdir) -> list:
    """Write report.json, trace CSVs, and summary.txt; returns the manifest.

    A trace's CSV is its named columns: a header of the names, then one row
    per sample, each cell repr(float(value)).
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for name, trace in report.traces:
        columns = trace.columns
        with open(out / name, "w") as fh:
            fh.write(",".join(columns) + "\n")
            for row in zip(*columns.values()):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        manifest.append(name)
    report.manifest = manifest
    lines = []
    for v in report.verdicts:
        margin = "" if v["margin"] is None else f" margin={v['margin']:.6g}"
        lines.append(f"{v['status'].upper():7s} {v['name']}{margin}")
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    (out / "report.json").write_text(report_json(report) + "\n")
    return manifest + ["summary.txt", "report.json"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hypolab",
        description="Numerical laboratory for kinetic hypocoercivity estimates",
    )
    parser.add_argument("command", choices=SUBCOMMANDS)
    parser.add_argument("--config", type=str, default=None)
    parser.add_argument("--out", type=str, default=None)
    for flag in _FLAGS:
        parser.add_argument(flag)
    args = parser.parse_args(argv)

    try:
        raw = {}
        if args.config:
            try:
                raw = parse_config_text(Path(args.config).read_text(encoding="utf-8"))
            except UnicodeDecodeError as exc:
                raise ConfigurationError(f"{args.config}: not UTF-8 text ({exc})")
        for flag, key in _FLAGS.items():
            value = getattr(args, flag[2:])
            if value is not None:
                raw[key] = value
        report = run_experiment(args.command, build_config(raw))
        if args.out:
            emit_report(report, args.out)
        print(report_json(report))
    except (ConfigurationError, PreconditionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    return 0 if not report.failed else 1


if __name__ == "__main__":
    sys.exit(main())
