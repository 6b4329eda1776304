"""Self-tests of the benchmark (not of hypolab).

    PYTHONPATH=src python3 -m pytest benchmarks -q
"""
from __future__ import annotations

import copy
import json
import time

import pytest

import hypolab.cli as cli
import hypolab.corrector
import hypolab.sampler
import run
from gate import check_run, load_reference, reference_for
from tracing import LAYERS, LAYER_METRICS, TARGETS, Span, Tracer, layer_metrics, self_times
from workloads import DEFAULT_SEED, WORKLOADS

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_config_parses_through_build_config(name):
    workload = WORKLOADS[name]
    cfg = cli.build_config(cli.parse_config_text(workload.config_text(7)))
    assert cfg.seed == 7
    assert workload.command in cli.SUBCOMMANDS


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER_METRICS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_tracer_restores_the_original_functions():
    modules = {"hypolab.cli": cli, "hypolab.corrector": hypolab.corrector,
               "hypolab.sampler": hypolab.sampler}
    originals = {(m, a): getattr(modules[m], a) for m, names in TARGETS.items()
                 for a in names}
    with Tracer() as tracer:
        assert all(getattr(modules[m], a) is not f for (m, a), f in originals.items())
        cli.build_config({"grid.N_x": "32"})
    assert all(getattr(modules[m], a) is f for (m, a), f in originals.items())
    assert [s.name for s in tracer.spans] == ["cli.build_config"]


def test_tracer_restores_after_an_exception():
    original = cli.build_config
    with pytest.raises(Exception):
        with Tracer() as tracer:
            cli.build_config({"grid.N_x": "8"})  # rejected: N_x < 16
    assert cli.build_config is original
    assert tracer.spans[0].name == "cli.build_config"


def test_self_times_subtract_direct_children():
    spans = [
        Span("cli.main", 0.0, 10.0, -1, 0, 0, None),
        Span("sampler.run_ensemble", 1.0, 7.0, 0, 0, 0, None),
        Span("model.eval_potential", 2.0, 3.0, 1, 0, 0, None),
        Span("model.eval_potential", 4.0, 6.0, 1, 0, 0, None),
    ]
    selfs = self_times(spans)
    assert selfs["cli"] == 4.0
    assert selfs["sampler"] == 3.0
    assert selfs["model"] == 3.0
    assert sum(selfs.values()) == 10.0
    assert set(selfs) == set(LAYERS)


def test_layer_self_times_never_exceed_wall(tmp_path):
    """A small real run, traced through the child process like the benchmark."""
    (tmp_path / "workload.conf").write_text(
        "grid.N_x = 32\ngrid.N_v = 6\nsde.particles = 400\nsde.steps = 300\n"
    )
    result = run.spawn(tmp_path, "all", deadline=time.perf_counter() + 120, traced=True)
    assert not result.problems
    names = {s.name for s in result.spans}
    assert {"cli.main", "corrector.operator_norm", "sampler.run_ensemble",
            "model.eval_potential", "evolve.integrate"} <= names
    assert sum(self_times(result.spans).values()) <= result.wall_s
    assert 0 < result.setup_s < result.wall_s
    metrics = layer_metrics(result.spans)
    assert metrics["sampler.ensembles"] == 2
    assert metrics["evolve.integrate_calls"] == 1
    assert metrics["corrector.nnz_A"] > 0


@pytest.fixture
def good_run():
    """The all_default reference and a report that matches it."""
    ref = reference_for(load_reference(), "all_default", DEFAULT_SEED)
    results = {section: {} for section in ref["sections"]}
    results["structure"] = {"exact": {"la_antisymmetry": 0.0}}
    results["tuning"] = copy.deepcopy(ref["tuning"])
    results["corrector"] = {"norm_A": ref["norm_A_closed_form"]}
    report = {
        "verdicts": [{"name": n, "status": s, "margin": None} for n, s in ref["verdicts"]],
        "results": results,
    }
    assert check_run(ref, ref["exit_code"], report) == []
    return ref, report


def test_gate_flags_a_doctored_verdict_list(good_run):
    ref, report = good_run
    report["verdicts"][0]["status"] = "fail"
    assert check_run(ref, ref["exit_code"], report)
    del report["verdicts"][0]
    assert check_run(ref, ref["exit_code"], report)


def test_gate_flags_a_wrong_exit_code(good_run):
    ref, report = good_run
    assert check_run(ref, 1, report)
    assert check_run(ref, 3, None)


def test_gate_flags_wrong_numbers(good_run):
    ref, report = good_run
    bad = copy.deepcopy(report)
    bad["results"]["structure"]["exact"]["pi_symmetric"] = 2e-12
    assert check_run(ref, 0, bad)
    bad = copy.deepcopy(report)
    bad["results"]["tuning"]["Lambda"] *= 1 + 1e-9
    assert check_run(ref, 0, bad)
    bad = copy.deepcopy(report)
    bad["results"]["corrector"]["norm_A"] *= 0.94
    assert check_run(ref, 0, bad)
    bad = copy.deepcopy(report)
    del bad["results"]["structure"]
    assert check_run(ref, 0, bad)


def test_gate_does_not_pin_power_iteration_digits(good_run):
    ref, report = good_run
    report["results"]["corrector"].update(norm_LaA=0.123, norm_ALa_fast=0.456)
    report["results"]["corrector"]["norm_A"] *= 1.04  # inside the 5 % gate
    assert check_run(ref, 0, report) == []


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(20)))[0] == 50
    assert run.tail_percentile(list(range(100)))[0] == 90
