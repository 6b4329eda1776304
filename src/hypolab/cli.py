"""Experiment runner: config parsing, orchestration, report emission.

Config files are flat key/value text with dotted sections::

    potential.kind = double_well
    grid.N_x = 128
    evolve.dt = 0.02

Command-line flags override file values.  Subcommands: gap, tune, verify,
evolve, sample, sweep, all.  The full report is printed as JSON; with --out
it is also written to report.json plus one CSV per trace and a summary.txt
digest.  Each verdict is skipped, or passes if and only if its margin is a
finite number >= 0.  Exit codes: 0 ok, 1 a verdict failed, 2 config error,
3 numerical failure, 4 IO error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .corrector import (
    bochner_residual,
    build_corrector,
    dissipation_form_min_eig,
    verify_corrector_bounds,
)
from .discretize import (
    assemble_operators,
    bochner_test_suite,
    build_grid,
    build_velocity_basis,
    check_structure,
    poincare_constant,
)
from .errors import ConfigurationError, NumericalError, PreconditionError
from .evolve import (
    crank_nicolson,
    estimate_rate,
    initial_condition,
    integrate,
    lyapunov_derivative_check,
    lyapunov_identity,
    verify_decay_bound,
)
from .model import POTENTIAL_KINDS, Potential, default_domain, gibbs_model
from .sampler import MIN_FIT_SAMPLES, SdeConfig, estimate_observable_decay, run_ensemble
from .tuning import (
    TuningResult,
    check_ratio_consistency,
    dissipation_matrix,
    optimize_friction,
)

SUBCOMMANDS = ("gap", "tune", "verify", "evolve", "sample", "sweep", "all")
BOUND_SLACK = 0.05  # acceptance tolerance on the corrector bounds
TUNED_RTOL = 1e-12  # relative distance at which a parameter counts as tuned
EXACT_TOL = 1e-12  # residual allowed an identity that holds exactly
LAMBDA_RTOL = 4 * np.finfo(float).eps  # Lambda against its closed form, a few ulp


@dataclass
class ExperimentConfig:
    potential_kind: str = "quadratic"
    potential_params: tuple = ()
    grid_l_dom: float | None = None
    grid_n_x: int = 128
    grid_n_v: int = 20
    tuning_gamma: float | None = None
    tuning_eps: float | None = None
    evolve_t_end_factor: float = 5.0
    evolve_dt: float = 0.02
    evolve_f0: str = "random"
    seed: int = 2024
    sde_d: int = 1
    sde_particles: int = 10000
    sde_dt: float = 0.01
    sde_steps: int = 2000
    sde_record_every: int = 10
    sde_init_shift: float = 2.0
    sweep_gammas: tuple = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    sweep_target: str = "sample"

    def echo(self) -> dict:
        """Flat dotted-key view; parsing the echo reproduces the config."""
        out = {}
        for key, (name, _) in _KEYS.items():
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, tuple):
                out[key] = ",".join(repr(float(v)) for v in value)
            else:
                out[key] = value if isinstance(value, str) else repr(value)
        return out


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v.strip())


# config key -> (ExperimentConfig attribute, parser of the value text)
_KEYS = {
    "potential.kind": ("potential_kind", str),
    "potential.params": ("potential_params", _floats),
    "grid.L_dom": ("grid_l_dom", float),
    "grid.N_x": ("grid_n_x", int),
    "grid.N_v": ("grid_n_v", int),
    "tuning.gamma": ("tuning_gamma", float),
    "tuning.eps": ("tuning_eps", float),
    "evolve.t_end_factor": ("evolve_t_end_factor", float),
    "evolve.dt": ("evolve_dt", float),
    "evolve.f0": ("evolve_f0", str),
    "seed": ("seed", int),
    "sde.d": ("sde_d", int),
    "sde.particles": ("sde_particles", int),
    "sde.dt": ("sde_dt", float),
    "sde.steps": ("sde_steps", int),
    "sde.record_every": ("sde_record_every", int),
    "sde.init_shift": ("sde_init_shift", float),
    "sweep.gammas": ("sweep_gammas", _floats),
    "sweep.target": ("sweep_target", str),
}


def parse_config_text(text: str) -> dict:
    """Parse the flat key = value document into a string map."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigurationError(f"{key}: unknown configuration key")
        out[key] = value
    return out


def build_config(raw: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for key, value in raw.items():
        name, parse = _KEYS[key]
        try:
            setattr(cfg, name, parse(str(value)))
        except ValueError as exc:
            raise ConfigurationError(f"{key}: {exc}")
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig):
    def bad(key, msg):
        raise ConfigurationError(f"{key}: {msg}")

    try:
        Potential(cfg.potential_kind, cfg.potential_params)
    except ConfigurationError as exc:
        known = cfg.potential_kind in POTENTIAL_KINDS
        bad("potential.params" if known else "potential.kind", exc)
    if cfg.grid_n_x < 16:
        bad("grid.N_x", "must be >= 16")
    if cfg.grid_n_v < 4:
        bad("grid.N_v", "must be >= 4")
    if cfg.grid_l_dom is not None and cfg.grid_l_dom <= 0:
        bad("grid.L_dom", "must be positive")
    for key, value in (
        ("tuning.gamma", cfg.tuning_gamma),
        ("tuning.eps", cfg.tuning_eps),
    ):
        if value is not None and value <= 0:
            bad(key, "must be positive")
    if cfg.evolve_dt <= 0:
        bad("evolve.dt", "must be positive")
    if cfg.evolve_t_end_factor <= 0:
        bad("evolve.t_end_factor", "must be positive")
    if cfg.evolve_f0 not in ("gap", "velocity", "random", "all"):
        bad("evolve.f0", f"unknown initial-condition kind {cfg.evolve_f0!r}")
    if cfg.sde_particles < 100:
        bad("sde.particles", "must be >= 100")
    if cfg.sde_d < 1:
        bad("sde.d", "must be >= 1")
    if cfg.sde_dt <= 0:
        bad("sde.dt", "must be positive")
    if cfg.sde_steps < 1:
        bad("sde.steps", "must be >= 1")
    if cfg.sde_record_every < 1:
        bad("sde.record_every", "must be >= 1")
    if cfg.sweep_target not in ("evolve", "sample"):
        bad("sweep.target", "must be 'evolve' or 'sample'")
    if not cfg.sweep_gammas or not all(g > 0 for g in cfg.sweep_gammas):
        bad("sweep.gammas", "must list one or more gammas, each positive")
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
    traces: list = field(default_factory=list)  # (filename, csv-row iterable)

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


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def report_json(report: RunReport) -> str:
    return json.dumps(report.as_dict(), indent=2, default=_json_default)


class _Workspace:
    """Lazily built grid/operators and the operating point shared across
    subcommand stages; each is resolved once, and only here."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.potential = Potential(cfg.potential_kind, cfg.potential_params)
        self.model = gibbs_model(self.potential)

    @property
    def l_dom(self) -> float:
        if self.cfg.grid_l_dom is not None:
            return self.cfg.grid_l_dom
        return default_domain(self.potential)

    @cached_property
    def ops(self):
        grid = build_grid(self.model, self.l_dom, self.cfg.grid_n_x)
        basis = build_velocity_basis(self.cfg.grid_n_v)
        ops = assemble_operators(grid, basis)
        poincare_constant(ops)
        return ops

    @cached_property
    def tuned(self) -> TuningResult:
        """Closed-form pipeline at the run's (m_h, K), the constants the
        corrector and its checks read too."""
        return optimize_friction(self.ops.m_h, self.model.K)

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


def _stage_gap(ws: _Workspace, report: RunReport):
    t0 = time.perf_counter()
    ops = ws.ops
    report.results["gap"] = {
        "m_h": ops.m_h,
        "K": ws.model.K,
        "analytic_m": ws.model.analytic_m,
        "L_dom": ws.l_dom,
        "N_x": ops.n_x,
        "N_v": ops.n_v,
    }
    report.check("gap_positive", ops.m_h)
    report.timings["gap"] = time.perf_counter() - t0


def _stage_tune(ws: _Workspace, report: RunReport):
    t0 = time.perf_counter()
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
    report.timings["tune"] = time.perf_counter() - t0


def _stage_verify(ws: _Workspace, report: RunReport):
    t0 = time.perf_counter()
    ops = ws.ops
    structure = check_structure(ops)
    report.results["structure"] = structure
    report.check("structure_exact", EXACT_TOL - max(structure["exact"].values()))
    report.timings["structure"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    norms = verify_corrector_bounds(ws.corrector)
    min_eig, residual = dissipation_form_min_eig(ws.corrector, ws.eps, ws.gamma)
    lambda_coer = ws.tuned.lambda_coer
    report.results["corrector"] = {
        **norms.as_dict(),
        "min_eig_Q": min_eig,
        "min_eig_residual": residual,
        "lambda_coer": lambda_coer,
        "slack": min_eig - lambda_coer,
    }
    for name, ratio in zip(("bound_A", "bound_LaA", "bound_ALa_fast"), norms.ratios):
        report.check(name, BOUND_SLACK - (ratio - 1.0))
    # subtracting the eigenvector's residual gives the lower bound that
    # coercivity needs
    report.check("dissipation_coercive",
                 (min_eig - residual) / lambda_coer - (1 - BOUND_SLACK))
    report.timings["corrector"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    resids, slacks = {}, []
    for name, values in bochner_test_suite(ops.grid).items():
        resids[name], slack = bochner_residual(ops, values)
        if name != "one":  # both sides are roundoff: a relative slack is 0/0
            slacks.append(slack)
    report.results["bochner_residuals"] = resids
    report.check("bochner_inequality", min(slacks))
    report.timings["bochner"] = time.perf_counter() - t0


def _stage_evolve(ws: _Workspace, report: RunReport):
    cfg = ws.cfg
    t0 = time.perf_counter()
    ops = ws.ops
    tuned = ws.tuned
    gamma, eps = ws.gamma, ws.eps
    corr = ws.corrector
    t_end = cfg.evolve_t_end_factor / tuned.Lambda
    kinds = ("gap", "velocity", "random") if cfg.evolve_f0 == "all" else (cfg.evolve_f0,)
    cn = crank_nicolson(ops, gamma, cfg.evolve_dt)  # one factorization, every kind
    rates = {}
    for kind in kinds:
        f0 = initial_condition(ops, kind, seed=cfg.seed)
        trace = integrate(ops, f0, cn, t_end, corrector=corr, eps=eps,
                          Lambda=tuned.Lambda)
        tag = f"{kind}" if len(kinds) > 1 else None
        suffix = f"_{tag}" if tag else ""
        name = f"decay_{ws.potential.name}_{gamma:g}{suffix}.csv"
        report.traces.append((name, trace))
        report.results.setdefault("lyapunov_identity", {})[kind] = lyapunov_identity(trace)
        drift = float(np.abs(trace.mean - trace.mean[0]).max())
        report.check(f"mean_conserved{suffix}", 1e-10 - drift)
        rates[f"evolve_{kind}"] = fitted = estimate_rate(trace)
        if ws.gamma_is_tuned:
            report.check(f"decay_bound{suffix}", verify_decay_bound(trace))
            report.check(f"rate_above_Lambda{suffix}", fitted / tuned.Lambda - 1)
            resid = lyapunov_derivative_check(trace, monotone=ws.point_is_tuned)
            report.results.setdefault("lyapunov_residuals", {})[kind] = resid
        else:
            report.skip(f"decay_bound{suffix}")
            report.skip(f"rate_above_Lambda{suffix}")
    report.results.setdefault("rates", {}).update(rates)
    report.results["evolve"] = {
        "gamma": gamma, "eps": eps, "Lambda": tuned.Lambda,
        "t_end": t_end, "dt": cn.dt, "kinds": list(kinds),
        "band": cn.lu.diagnostics(),
    }
    report.timings["evolve"] = time.perf_counter() - t0


def _sde_config(ws: _Workspace, gamma: float) -> SdeConfig:
    cfg = ws.cfg
    return SdeConfig(
        potential=ws.potential,
        d=cfg.sde_d,
        particles=cfg.sde_particles,
        dt=cfg.sde_dt,
        steps=cfg.sde_steps,
        gamma=gamma,
        seed=cfg.seed,
        record_every=cfg.sde_record_every,
        init_shift=cfg.sde_init_shift,
    )


def _first_moment_rate(gamma: float, a: float) -> float:
    """Slow decay rate of the 2x2 first-moment ODE d/dt (Ex, Ev)."""
    eigs = np.linalg.eigvals(np.array([[0.0, 1.0], [-a, -gamma]]))
    return float(-np.max(eigs.real))


def _stage_sample(ws: _Workspace, report: RunReport):
    cfg = ws.cfg
    t0 = time.perf_counter()
    sde = _sde_config(ws, ws.gamma)
    trace = run_ensemble(sde)
    report.traces.append((f"sde_{ws.potential.name}_{sde.gamma:g}.csv", trace))

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
    }
    se_v = np.sqrt(2.0 / (sde.particles * sde.d))  # var of v^2 under kappa is 2

    def equilibrium(name, var, mean, target, se):
        if trace.diverged:  # nothing to measure: the None margin fails
            report.check(name, None)
        else:
            z = abs(float((var + mean**2).mean()) - target) / se
            report.check(name, 3.0 - z)

    equilibrium("equilibrium_v_sq", trace.final_v_var, trace.final_v_mean, 1.0, se_v)
    if ws.potential.kind == "quadratic":
        a = ws.potential.params[0]
        equilibrium("equilibrium_x_sq", trace.final_x_var, trace.final_x_mean,
                     1.0 / a, se_v / a)
        if cfg.sde_init_shift != 0.0:
            rate = estimate_observable_decay(sde)
            oracle = _first_moment_rate(sde.gamma, a)
            rel = abs(rate - oracle) / oracle
            report.results["rates"] = report.results.get("rates", {})
            report.results["rates"]["sample_first_moment"] = rate
            report.results["rates"]["sample_first_moment_oracle"] = oracle
            report.check("first_moment_rate", 0.15 - rel)
        else:
            report.skip("first_moment_rate")
    else:
        report.skip("equilibrium_x_sq")
        report.skip("first_moment_rate")
    report.timings["sample"] = time.perf_counter() - t0


def _stage_sweep(ws: _Workspace, report: RunReport):
    cfg = ws.cfg
    t0 = time.perf_counter()
    rates = {}
    if cfg.sweep_target == "sample":
        for gamma in cfg.sweep_gammas:
            rates[f"{gamma:g}"] = estimate_observable_decay(_sde_config(ws, gamma))
    else:
        ops = ws.ops
        tuned = ws.tuned
        corr = ws.corrector
        for gamma in cfg.sweep_gammas:
            f0 = initial_condition(ops, "random", seed=cfg.seed)
            trace = integrate(ops, f0, crank_nicolson(ops, gamma, cfg.evolve_dt),
                              cfg.evolve_t_end_factor / tuned.Lambda,
                              corrector=corr, eps=ws.eps, Lambda=tuned.Lambda)
            rates[f"{gamma:g}"] = estimate_rate(trace)
    report.results["sweep"] = {"target": cfg.sweep_target, "rates": rates}
    # the first-moment ODE x'' + gamma x' + a x = 0 is critically damped at
    # gamma_c = 2 sqrt(a)
    critical = None
    if ws.potential.kind == "quadratic" and len(rates) > 1:
        gamma_c = 2.0 * math.sqrt(ws.potential.params[0])
        critical = next((f"{g:g}" for g in cfg.sweep_gammas
                         if abs(g - gamma_c) <= TUNED_RTOL * gamma_c), None)
    if critical is None:
        report.skip("sweep_argmax_critical")
    else:
        other = max(r for g, r in rates.items() if g != critical)
        report.check("sweep_argmax_critical",
                     (rates[critical] - other) / rates[critical])
    report.timings["sweep"] = time.perf_counter() - t0


def _check_sampling(command: str, ws: _Workspace):
    """The sampler's static preconditions, for a run that samples, before any
    stage; each message names its key.  BAOAB needs sde.dt * gamma < 1 at
    each sampled gamma; the decay fit (of a sample sweep, and of the quadratic
    from a shifted start) needs MIN_FIT_SAMPLES records and that start."""
    cfg = ws.cfg
    sweep = command == "sweep" and cfg.sweep_target == "sample"
    if not sweep and command not in ("sample", "all"):
        return
    if sweep and cfg.sde_init_shift == 0.0:
        raise ConfigurationError("sde.init_shift: a sample sweep fits the decay "
                                 "from the shifted start, so it must be nonzero")
    records = cfg.sde_steps // cfg.sde_record_every + 1
    if records < MIN_FIT_SAMPLES and (sweep or (
            ws.potential.kind == "quadratic" and cfg.sde_init_shift != 0.0)):
        raise ConfigurationError(f"sde.steps: the decay fit needs {MIN_FIT_SAMPLES} "
                                 f"records, and steps // record_every + 1 = {records}")
    if sweep:
        sampled = [("sweep.gammas", g) for g in cfg.sweep_gammas]
    else:
        key = "tuning.gamma" if cfg.tuning_gamma is not None else (
            "tuning.gamma (unset, so gamma*)")
        sampled = [(key, ws.gamma)]
    for key, gamma in sampled:
        if cfg.sde_dt * gamma >= 1.0:
            raise ConfigurationError(
                f"{key}: the sampler needs sde.dt * gamma < 1, and "
                f"{cfg.sde_dt:g} * {gamma:g} = {cfg.sde_dt * gamma:g}")


def run_experiment(command: str, cfg: ExperimentConfig) -> RunReport:
    if command not in SUBCOMMANDS:
        raise ConfigurationError(f"unknown subcommand {command!r}")
    report = RunReport(version=__version__, command=command, config=dict(cfg.echo()))
    ws = _Workspace(cfg)
    _check_sampling(command, ws)
    stages = {
        "gap": (_stage_gap,),
        "tune": (_stage_tune,),
        "verify": (_stage_verify,),
        "evolve": (_stage_gap, _stage_tune, _stage_evolve),
        "sample": (_stage_sample,),
        "sweep": (_stage_sweep,),
        "all": (_stage_gap, _stage_tune, _stage_verify, _stage_evolve, _stage_sample),
    }
    for stage in stages[command]:
        stage(ws, report)
    return report


def emit_report(report: RunReport, outdir) -> list:
    """Write report.json, trace CSVs, and summary.txt; returns the manifest."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for name, trace in report.traces:
        path = out / name
        with open(path, "w") as fh:
            for row in trace.csv_rows():
                fh.write(row + "\n")
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
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--gamma", type=float, default=None)
    parser.add_argument("--eps", type=float, default=None)
    parser.add_argument("--nx", type=int, default=None)
    parser.add_argument("--nv", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        raw = {}
        if args.config:
            raw = parse_config_text(Path(args.config).read_text())
        if args.seed is not None:
            raw["seed"] = str(args.seed)
        if args.gamma is not None:
            raw["tuning.gamma"] = repr(args.gamma)
        if args.eps is not None:
            raw["tuning.eps"] = repr(args.eps)
        if args.nx is not None:
            raw["grid.N_x"] = str(args.nx)
        if args.nv is not None:
            raw["grid.N_v"] = str(args.nv)
        report = run_experiment(args.command, build_config(raw))
    except (ConfigurationError, PreconditionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4

    try:
        if args.out:
            emit_report(report, args.out)
        print(report_json(report))
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    return 0 if not report.failed else 1


if __name__ == "__main__":
    sys.exit(main())
