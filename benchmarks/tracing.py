"""Outside-in spans around the calls into each hypolab module.

The tracer replaces module attributes with timing wrappers and puts the
originals back on exit.  It patches only names that are looked up at call
time in ``hypolab.cli`` (the CLI's imports of the other modules' public
functions), plus ``hypolab.corrector.operator_norm``,
``hypolab.sampler.run_ensemble`` and ``hypolab.sampler.eval_potential``.
No file under ``src/`` changes.

Work done inside a single call stays invisible from here: the Crank-Nicolson
factorization versus its steps, or the sampler's RNG set-up versus its BAOAB
loop, needs spans inside the program, which are left to a later change.
"""
from __future__ import annotations

import functools
import importlib
import resource
import time
from collections import defaultdict
from typing import NamedTuple

LAYERS = ("model", "discretize", "tuning", "corrector", "evolve", "sampler", "cli")

# module -> {attribute looked up at call time: span name}.  A span's layer is
# the part of its name before the first dot.
TARGETS = {
    "hypolab.cli": {
        "main": "cli.main",
        "parse_config_text": "cli.parse_config_text",
        "build_config": "cli.build_config",
        "run_experiment": "cli.run_experiment",
        "emit_report": "cli.emit_report",
        "build_grid": "discretize.build_grid",
        "build_velocity_basis": "discretize.build_velocity_basis",
        "assemble_operators": "discretize.assemble_operators",
        "poincare_constant": "discretize.poincare_constant",
        "check_structure": "discretize.check_structure",
        "optimize_friction": "tuning.optimize_friction",
        "check_ratio_consistency": "tuning.check_ratio_consistency",
        "build_corrector": "corrector.build_corrector",
        "verify_corrector_bounds": "corrector.verify_corrector_bounds",
        "dissipation_form_min_eig": "corrector.dissipation_form_min_eig",
        "bochner_test_suite": "corrector.bochner_test_suite",
        "bochner_residual": "corrector.bochner_residual",
        "initial_condition": "evolve.initial_condition",
        "integrate": "evolve.integrate",
        "estimate_rate": "evolve.estimate_rate",
        "verify_decay_bound": "evolve.verify_decay_bound",
        "lyapunov_derivative_check": "evolve.lyapunov_derivative_check",
        "run_ensemble": "sampler.run_ensemble",
        "estimate_observable_decay": "sampler.estimate_observable_decay",
    },
    "hypolab.corrector": {"operator_norm": "corrector.operator_norm"},
    "hypolab.sampler": {
        "run_ensemble": "sampler.run_ensemble",
        "eval_potential": "model.eval_potential",
    },
}

# Counts read off a call's arguments or result: span name -> (args, result) -> dict.
ATTRS = {
    "corrector.build_corrector": lambda args, result: {"nnz": int(result.matrix.nnz)},
    "evolve.integrate": lambda args, result: {"steps": len(result.times) - 1},
    "sampler.run_ensemble": lambda args, result: {
        "particle_steps": args[0].particles * args[0].steps
    },
}

# Every per-layer metric with its unit and direction, in report order.
LAYER_METRICS = {
    "model.eval_potential_s": ("s", "lower"),
    "model.eval_potential_calls": ("count", "lower"),
    "discretize.assemble_s": ("s", "lower"),
    "discretize.gap_s": ("s", "lower"),
    "discretize.structure_s": ("s", "lower"),
    "tuning.s": ("s", "lower"),
    "corrector.build_s": ("s", "lower"),
    "corrector.bounds_s": ("s", "lower"),
    "corrector.norm_A_s": ("s", "lower"),
    "corrector.norm_LaA_s": ("s", "lower"),
    "corrector.norm_ALa_fast_s": ("s", "lower"),
    "corrector.min_eig_s": ("s", "lower"),
    "corrector.bochner_s": ("s", "lower"),
    "corrector.nnz_A": ("count", "lower"),
    "evolve.integrate_s": ("s", "lower"),
    "evolve.integrate_calls": ("count", "lower"),
    "evolve.cn_steps": ("count", "lower"),
    "evolve.steps_per_s": ("1/s", "higher"),
    "evolve.init_s": ("s", "lower"),
    "evolve.checks_s": ("s", "lower"),
    "sampler.ensemble_s": ("s", "lower"),
    "sampler.decay_fit_s": ("s", "lower"),
    "sampler.ensembles": ("count", "lower"),
    "sampler.particle_steps_per_s": ("1/s", "higher"),
    "sampler.rss_growth_mb": ("MiB", "lower"),
    "cli.emit_s": ("s", "lower"),
    "cli.report_bytes": ("count", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    maxrss_start_kib: int
    maxrss_end_kib: int
    attrs: dict | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Context manager: patch TARGETS on entry, restore the originals on exit.

    Spans stay in memory (``self.spans``) until the caller writes them out.
    The process is single-threaded, so one stack gives each span its parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for module_name, names in TARGETS.items():
            module = importlib.import_module(module_name)
            for attr, span_name in names.items():
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span_name, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the slot so children index after it
            stack.append(index)
            rss0 = _maxrss_kib()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, rss0, _maxrss_kib(), None)
            if attrs_of is not None:
                spans[index] = spans[index]._replace(attrs=attrs_of(args, result))
            return result

        return traced


def self_times(spans: list[Span]) -> dict:
    """Per layer: span durations minus the part their direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    out = dict.fromkeys(LAYERS, 0.0)
    for span, child_time in zip(spans, covered):
        out[span.layer] += span.duration - child_time
    return out


def layer_metrics(spans: list[Span]) -> dict:
    """Every span-derived entry of LAYER_METRICS; 0 where a layer never ran.

    ``cli.report_bytes`` and the ``trace.*`` entries are not span-derived and
    are filled in by the caller.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    attr_sum = defaultdict(int)
    for span in spans:
        total[span.name] += span.duration
        calls[span.name] += 1
        for key, value in (span.attrs or {}).items():
            attr_sum[f"{span.name}.{key}"] += value

    def tot(*names):
        return sum(total[n] for n in names)

    norms = [s.duration for s in spans if s.name == "corrector.operator_norm"]
    norms += [0.0] * (3 - len(norms))
    sampler = [s for s in spans if s.layer == "sampler"]
    rss_growth_kib = (
        max(s.maxrss_end_kib for s in sampler) - sampler[0].maxrss_start_kib
        if sampler else 0
    )
    ensemble_s = total["sampler.run_ensemble"]
    integrate_s = total["evolve.integrate"]
    cn_steps = attr_sum["evolve.integrate.steps"]
    selfs = self_times(spans)
    metrics = {
        "model.eval_potential_s": total["model.eval_potential"],
        "model.eval_potential_calls": calls["model.eval_potential"],
        "discretize.assemble_s": tot(
            "discretize.build_grid",
            "discretize.build_velocity_basis",
            "discretize.assemble_operators",
        ),
        "discretize.gap_s": total["discretize.poincare_constant"],
        "discretize.structure_s": total["discretize.check_structure"],
        "tuning.s": tot("tuning.optimize_friction", "tuning.check_ratio_consistency"),
        "corrector.build_s": total["corrector.build_corrector"],
        "corrector.bounds_s": total["corrector.verify_corrector_bounds"],
        "corrector.norm_A_s": norms[0],
        "corrector.norm_LaA_s": norms[1],
        "corrector.norm_ALa_fast_s": norms[2],
        "corrector.min_eig_s": total["corrector.dissipation_form_min_eig"],
        "corrector.bochner_s": tot(
            "corrector.bochner_test_suite", "corrector.bochner_residual"
        ),
        "corrector.nnz_A": attr_sum["corrector.build_corrector.nnz"],
        "evolve.integrate_s": integrate_s,
        "evolve.integrate_calls": calls["evolve.integrate"],
        "evolve.cn_steps": cn_steps,
        "evolve.steps_per_s": cn_steps / integrate_s if integrate_s else 0.0,
        "evolve.init_s": total["evolve.initial_condition"],
        "evolve.checks_s": tot(
            "evolve.estimate_rate",
            "evolve.verify_decay_bound",
            "evolve.lyapunov_derivative_check",
        ),
        "sampler.ensemble_s": ensemble_s,
        "sampler.decay_fit_s": total["sampler.estimate_observable_decay"],
        "sampler.ensembles": calls["sampler.run_ensemble"],
        "sampler.particle_steps_per_s": (
            attr_sum["sampler.run_ensemble.particle_steps"] / ensemble_s
            if ensemble_s else 0.0
        ),
        "sampler.rss_growth_mb": rss_growth_kib / 1024.0,
        "cli.emit_s": total["cli.emit_report"],
    }
    metrics.update({f"{layer}.self_s": selfs[layer] for layer in LAYERS})
    return metrics
