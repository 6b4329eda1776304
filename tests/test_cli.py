import ast
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import hypolab.cli as cli
import hypolab.corrector as corrector_module
import hypolab.evolve as evolve
import hypolab.model as model
import hypolab.sampler as sampler
import hypolab.tuning as tuning_module
from hypolab.errors import ConfigurationError, DivergenceError, NumericalError
from hypolab.evolve import DT_GUARD


class TestConfigParsing:
    def test_parse_flat_document(self):
        text = """
        # experiment
        potential.kind = double_well
        grid.N_x = 64          # resolution
        evolve.dt = 0.01
        sweep.gammas = 1,2,4
        """
        raw = cli.parse_config_text(text)
        cfg = cli.build_config(raw)
        assert cfg.potential_kind == "double_well"
        assert cfg.grid_n_x == 64
        assert cfg.evolve_dt == 0.01
        assert cfg.sweep_gammas == (1.0, 2.0, 4.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown configuration key"):
            cli.parse_config_text("grid.N_q = 12")
        with pytest.raises(ConfigurationError, match="line 2: expected 'key = value'"):
            cli.parse_config_text("grid.N_x = 64\ngrid.N_v 12")

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="grid.N_x: given on lines 1 and 3"):
            cli.parse_config_text("grid.N_x = 64\ngrid.N_v = 12\ngrid.N_x = 32")

    def test_field_path_in_error(self):
        with pytest.raises(ConfigurationError, match="grid.N_x"):
            cli.build_config({"grid.N_x": "8"})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigurationError, match="evolve.dt"):
            cli.build_config({"evolve.dt": "fast"})

    def test_potential_checked_by_the_model(self):
        with pytest.raises(ConfigurationError, match="potential.params"):
            cli.build_config({"potential.params": "-1"})
        with pytest.raises(ConfigurationError, match="potential.kind"):
            cli.build_config({"potential.kind": "sombrero"})

    def test_removed_keys_are_unknown(self):
        for key in ("tuning.alpha", "sde.gamma", "tuning.m", "tuning.K"):
            with pytest.raises(ConfigurationError, match="unknown configuration key"):
                cli.parse_config_text(f"{key} = 1.0")

    def test_record_every_rejected_at_the_boundary(self):
        with pytest.raises(ConfigurationError, match="sde.record_every"):
            cli.build_config({"sde.record_every": "0"})

    def test_nonpositive_tuning_gamma_rejected(self):
        with pytest.raises(ConfigurationError, match="tuning.gamma"):
            cli.build_config({"tuning.gamma": "0"})

    @pytest.mark.parametrize("key, value", [
        ("grid.N_v", "3"), ("grid.L_dom", "-2"), ("sde.d", "0"),
        ("sde.particles", "10"), ("sde.dt", "0"), ("sde.steps", "0"),
        ("tuning.eps", "0"), ("evolve.dt", "0"), ("evolve.t_end_factor", "-1"),
        ("grid.L_dom", "nan"), ("grid.L_dom", "inf"), ("tuning.gamma", "inf"),
        ("tuning.eps", "inf"), ("evolve.dt", "nan"), ("evolve.t_end_factor", "inf"),
        ("sde.dt", "inf"), ("sde.init_shift", "nan"), ("sde.init_shift", "-inf"),
        ("potential.params", "nan"), ("potential.params", "inf"),
        ("sweep.gammas", "2,inf"), ("seed", "-1"), ("sweep.target", "bogus"),
        ("grid.N_x", "15"), ("seed", str(2**63)), ("sweep.gammas", ""),
    ])
    def test_range_checked_at_the_boundary(self, key, value):
        # the library below the config trusts these values: this is their check
        with pytest.raises(ConfigurationError, match=f"^{key}: "):
            cli.build_config({key: value})

    def test_largest_seed_accepted(self):
        # the sampler's Philox key [seed, i] is exact for every seed below 2**63
        assert cli.build_config({"seed": str(2**63 - 1)}).seed == 2**63 - 1

    def test_colliding_sweep_labels_rejected(self):
        # rates are keyed by f"{gamma:g}": two gammas may not share a label
        with pytest.raises(ConfigurationError, match="sweep.gammas"):
            cli.build_config({"sweep.gammas": "2,2.0000001,4"})

    def test_zero_initial_state_rejected(self):
        # f = 0 would meet every evolve verdict by construction
        with pytest.raises(ConfigurationError, match="evolve.f0"):
            cli.build_config({"evolve.f0": "zero"})

    def test_round_trip(self):
        raw = {
            "potential.kind": "cosine_bump",
            "potential.params": "2.0",
            "grid.L_dom": "6.5",
            "grid.N_x": "32",
            "grid.N_v": "8",
            "tuning.gamma": "3.5",
            "tuning.eps": "0.125",
            "evolve.t_end_factor": "2.5",
            "evolve.dt": "0.01",
            "evolve.f0": "all",
            "seed": "99",
            "sde.d": "3",
            "sde.particles": "500",
            "sde.dt": "0.005",
            "sde.steps": "300",
            "sde.record_every": "5",
            "sde.init_shift": "-1.5",
            "sweep.gammas": "1,3",
            "sweep.target": "evolve",
        }
        assert sorted(raw) == sorted(cli._KEYS)
        cfg = cli.build_config(raw)
        default = cli.ExperimentConfig()
        for f in fields(cfg):  # each key moved off its default
            assert getattr(cfg, f.name) != getattr(default, f.name), f.name
        again = cli.build_config(cli.parse_config_text(
            "\n".join(f"{k} = {v}" for k, v in cfg.echo().items())
        ))
        assert again == cfg


class TestRunExperiment:
    def test_tune_reports_closed_form_constants(self):
        cfg = cli.build_config(SMALL)
        report = cli.run_experiment("tune", cfg)
        tuning = report.results["tuning"]
        # the pipeline runs at the run's own (m_h, K)
        m_h = cli.run_experiment("gap", cfg).results["gap"]["m_h"]
        assert (tuning["m"], tuning["K"]) == (m_h, 0.0)
        assert tuning["gamma_star"] == math.sqrt(16 * m_h)
        assert tuning["Lambda"] == tuning_module.rate(m_h, 0.0)[1]
        assert not report.failed

    def test_tune_operating_point_follows_the_flags(self, capsys):
        assert cli.main(["tune", "--nx", "32", "--nv", "6",
                         "--gamma", "3.0", "--eps", "0.2"]) == 0
        point = json.loads(capsys.readouterr().out)["results"]["tuning"][
            "operating_point"]
        assert (point["gamma"], point["eps"]) == (3.0, 0.2)
        tuning = cli.run_experiment("tune", cli.build_config(SMALL)).results["tuning"]
        tuned = tuning_module.optimize_friction(tuning["m"], tuning["K"])
        point = tuning["operating_point"]
        assert (point["gamma"], point["eps"]) == (tuned.gamma_star, tuned.eps_star)
        assert point["admissible"]
        assert point["lambda_min_M"] == tuning_module.check_ratio_consistency(tuned)[
            "lambda_min_M"]

    def test_tuned_m_checks_monotonicity(self, monkeypatch):
        calls = []
        original = cli.lyapunov_derivative_check

        def record(trace, monotone, t_min=0.0):
            calls.append(monotone)
            return original(trace, monotone, t_min)

        monkeypatch.setattr(cli, "lyapunov_derivative_check", record)
        raw = {"grid.N_x": "32", "grid.N_v": "6", "evolve.t_end_factor": "0.5"}
        assert not cli.run_experiment("evolve", cli.build_config(raw)).failed
        raw["tuning.eps"] = "0.01"
        cli.run_experiment("evolve", cli.build_config(raw))
        assert calls == [True, False]

    def test_gap_subcommand(self, tmp_path, capsys):
        cfg = cli.build_config({"grid.N_x": "64", "grid.N_v": "8"})
        report = cli.run_experiment("gap", cfg)
        assert report.results["gap"]["m_h"] == pytest.approx(0.9684, abs=1e-3)
        assert report.results["gap"]["K"] == 0.0
        # U = 0.005 x^2 rises 0.32 < 10 on the default [-8, 8]; grid.L_dom
        # widens the domain to [-50, 50], where it rises 12.5
        conf = tmp_path / "flat.conf"
        conf.write_text("potential.params = 0.01\n")
        assert cli.main(["gap", "--config", str(conf)]) == 2
        assert "enlarge the domain" in capsys.readouterr().err
        conf.write_text("potential.params = 0.01\ngrid.L_dom = 50\n")
        assert cli.main(["gap", "--config", str(conf)]) == 0
        gap = json.loads(capsys.readouterr().out)["results"]["gap"]
        assert gap["L_dom"] == 50.0
        assert gap["m_h"] == pytest.approx(0.00997, abs=1e-5)

    def test_evolve_from_the_gap_state_of_a_steep_double_well(self):
        # the select eigensolve's gap vector has weighted mean 1.3e-9 here,
        # above MEAN_TOL: unprojected, integrate refused it
        cfg = cli.build_config({"potential.kind": "double_well",
                                "potential.params": "7", "evolve.f0": "gap",
                                "evolve.t_end_factor": "1"})
        report = cli.run_experiment("evolve", cfg)
        statuses = {v["name"]: v["status"] for v in report.verdicts}
        assert set(statuses.values()) == {"pass"}, statuses

    def test_evolve_reports_identity_and_band(self):
        cfg = cli.build_config(
            {"grid.N_x": "32", "grid.N_v": "6", "evolve.f0": "all",
             "evolve.t_end_factor": "0.2"}
        )
        report = cli.run_experiment("evolve", cfg)
        identity = report.results["lyapunov_identity"]
        assert sorted(identity) == ["gap", "random", "velocity"]
        assert 0.0 < max(identity.values()) <= 1e-12
        band = report.results["evolve"]["band"]
        assert (band["kl"], band["ku"]) == (5, 5)
        assert band["min_pivot"] >= 1.0 - 1e-12
        assert 0.0 < band["growth"] < np.inf

    def test_lambda_relation_checks_the_closed_form(self, monkeypatch):
        def verdict(report):
            return next(v for v in report.verdicts if v["name"] == "lambda_relation")

        cfg = cli.build_config({})
        honest = verdict(cli.run_experiment("tune", cfg))
        assert honest["status"] == "pass"
        assert 0 < honest["margin"] <= cli.LAMBDA_RTOL
        true_rate = tuning_module.rate

        def scaled(m, K):  # off by 1 %, yet self-consistent: Lambda = 2 lam / 3
            lam, Lam, pref = true_rate(m, K)
            return 1.01 * lam, 1.01 * Lam, pref

        monkeypatch.setattr("hypolab.tuning.rate", scaled)
        wrong = verdict(cli.run_experiment("tune", cfg))
        assert wrong["status"] == "fail"
        assert wrong["margin"] < 0

    def test_verify_bound_margins_are_signed(self):
        cfg = cli.build_config({"grid.N_x": "64", "grid.N_v": "12"})
        report = cli.run_experiment("verify", cfg)
        margins = {v["name"]: v["margin"] for v in report.verdicts}
        corrector = report.results["corrector"]
        allowance = corrector["ratio_allowance"]
        assert allowance == 64**2 * np.finfo(float).eps
        for name, ratio in zip(("bound_A", "bound_LaA", "bound_ALa_fast"),
                               corrector["ratios"]):
            assert margins[name] == allowance - (ratio - 1.0)
        # ||A|| attains its bound, so its margin is rounding; ||L_a A|| < 1
        # strictly, so its margin exceeds the allowance
        assert 0.0 <= margins["bound_A"] <= 2 * allowance
        assert margins["bound_LaA"] > 1e-3
        assert corrector["norm_A_exact_residual"] <= 1e-12
        # coercivity is judged on the lower bound min_eig_Q - residual, and
        # on the residual against its rounding level, which does not bind here
        lower = corrector["min_eig_Q"] - corrector["min_eig_residual"]
        assert 0.0 <= corrector["min_eig_residual"] <= 1e-12
        assert "min_eig_iterations" not in corrector
        ws = cli._Workspace(cfg)
        cap = corrector["min_eig_residual_cap"]
        # ||A|| enters in its closed form 1 / (2 sqrt(m_h))
        assert cap == corrector_module.NEWTON_FLOOR * (
            abs(ws.ops.lo_x.toarray()).sum(axis=0).max()
            + ws.gamma * (2 + ws.eps * corrector["bound_A"]))
        coercive = lower / corrector["lambda_coer"] - 1
        assert coercive < 1 - corrector["min_eig_residual"] / cap
        assert margins["dissipation_coercive"] == coercive
        assert coercive == pytest.approx(0.685, abs=0.01)

    @pytest.mark.parametrize("n_x, n_v", [(32, 6), (128, 20)])
    def test_residual_cap_grows_with_gamma(self, n_x, n_v):
        # the residual read 2.4 and 9.8 times a cap without the gamma terms
        cfg = cli.build_config({"grid.N_x": str(n_x), "grid.N_v": str(n_v),
                                "tuning.gamma": "1e4"})
        corrector = cli.run_experiment("verify", cfg).results["corrector"]
        assert corrector["min_eig_residual"] <= corrector["min_eig_residual_cap"]

    def test_slack_uses_the_reported_lambda_coer(self):
        cfg = cli.build_config({"grid.N_x": "64", "grid.N_v": "12"})
        corrector = cli.run_experiment("verify", cfg).results["corrector"]
        m_h = cli.run_experiment("gap", cfg).results["gap"]["m_h"]
        assert corrector["lambda_coer"] == tuning_module.rate(m_h, 0.0)[0]
        assert corrector["slack"] == corrector["min_eig_Q"] - corrector["lambda_coer"]

    def test_unknown_command(self):
        cfg = cli.build_config({})
        with pytest.raises(ConfigurationError):
            cli.run_experiment("fold", cfg)

    def test_sweep_evolve_target(self):
        cfg = cli.build_config(
            {"grid.N_x": "32", "grid.N_v": "6", "sweep.target": "evolve",
             "sweep.gammas": "2,4", "evolve.t_end_factor": "0.3"}
        )
        report = cli.run_experiment("sweep", cfg)
        rates = report.results["sweep"]["rates"]
        assert set(rates) == {"2", "4"}
        assert all(r > 0 for r in rates.values())

    def test_evolve_sweep_builds_its_state_once(self, monkeypatch):
        # integrate copies f0, so every gamma starts from the one random state
        calls = []
        initial_condition = cli.initial_condition
        monkeypatch.setattr(cli, "initial_condition",
                            lambda *args, **kw: calls.append(args) or
                            initial_condition(*args, **kw))
        report = cli.run_experiment("sweep", cli.build_config(RULE_CONFIGS["sweep"]))
        assert len(calls) == 1
        assert list(report.results["sweep"]["rates"]) == ["1", "2", "4"]

    def test_evolve_reports_the_first_solve_residual(self):
        # the pivot-free band LU grows its elements by 1.6e4 on the double well
        # at 16x8; the random state, which excites the stiff transport modes,
        # loses digits there, and the gap and velocity states do not
        def solve_residual(raw):
            cfg = cli.build_config({**raw, "evolve.f0": "all",
                                    "evolve.t_end_factor": "0.05"})
            return cli.run_experiment("evolve", cfg).results["evolve"][
                "solve_residual"]

        coarse = {"potential.kind": "double_well", "grid.N_x": "16", "grid.N_v": "8"}
        residual = solve_residual(coarse)
        assert residual["random"] > 1e-13
        assert max(residual["gap"], residual["velocity"]) < 1e-15
        assert max(solve_residual({"grid.N_x": "128", "grid.N_v": "20"}).values()) < 1e-15
        # it is ||M x - b|| / ||b|| of the first step's solve M x = b
        ws = cli._Workspace(cli.build_config(coarse))
        cn = evolve.crank_nicolson(ws.ops, ws.gamma, ws.cfg.evolve_dt)
        f0 = evolve.initial_condition(ws.ops, "random", seed=ws.cfg.seed)
        b = f0 + (cn.dt / 2) * (cn.L @ f0)
        x = cn.lu.solve(b)
        assert residual["random"] == np.linalg.norm(
            x - (cn.dt / 2) * (cn.L @ x) - b) / np.linalg.norm(b)

    def test_sweep_sample_target(self):
        cfg = cli.build_config(
            {"sweep.target": "sample", "sweep.gammas": "1,2,4",
             "sde.particles": "1000", "sde.steps": "600"}
        )
        report = cli.run_experiment("sweep", cfg)
        rates = report.results["sweep"]["rates"]
        assert max(rates, key=rates.get) == "2"
        assert report.verdicts[0]["status"] == "pass"

    def test_sample_sweep_builds_no_operators(self, monkeypatch):
        # every sampler run takes its gamma from the sweep: no gap is needed
        calls = []
        assemble_operators = cli.assemble_operators
        monkeypatch.setattr(cli, "assemble_operators",
                            lambda *args: calls.append(args) or assemble_operators(*args))
        cfg = cli.build_config({"sweep.gammas": "1,2", **SMALL_SDE})
        assert set(cli.run_experiment("sweep", cfg).results["sweep"]["rates"]) == {
            "1", "2"}
        assert calls == []

    def test_evolve_clamps_the_step_to_the_guard(self):
        # U = x^2: gamma* = 5.48 at 64x12, so the default dt = 0.02 is above
        # DT_GUARD / gamma* and the run takes that largest allowed step
        cfg = cli.build_config({"grid.N_x": "64", "grid.N_v": "12",
                                "potential.params": "2"})
        report = cli.run_experiment("evolve", cfg)
        gamma_star = report.results["tuning"]["gamma_star"]
        assert gamma_star > DT_GUARD / 0.02
        assert report.results["evolve"]["dt"] == DT_GUARD / gamma_star
        assert not report.failed

    def test_evolve_all_factors_once(self, monkeypatch, tmp_path):
        calls = []
        band_lu = evolve.band_lu
        monkeypatch.setattr(evolve, "band_lu",
                            lambda m: calls.append(m) or band_lu(m))
        cfg = cli.build_config({**SMALL, "evolve.f0": "all"})
        report = cli.run_experiment("evolve", cfg)
        cli.emit_report(report, tmp_path / "all")
        assert len(calls) == 1
        # each kind integrated alone, with a factorization of its own, gives
        # the same bytes
        ws = cli._Workspace(cfg)
        alone = cli.RunReport(version="", command="evolve", config={})
        for kind in ("gap", "velocity", "random"):
            trace = evolve.integrate(
                ws.ops, evolve.initial_condition(ws.ops, kind, seed=cfg.seed),
                evolve.crank_nicolson(ws.ops, ws.gamma, cfg.evolve_dt),
                cfg.evolve_t_end_factor / ws.tuned.Lambda,
                corrector=ws.corrector, eps=ws.eps, Lambda=ws.tuned.Lambda,
            )
            alone.traces.append(
                (f"decay_{ws.potential.kind}_{ws.gamma:g}_{kind}.csv", trace))
        cli.emit_report(alone, tmp_path / "alone")
        assert report.manifest == alone.manifest
        for name in alone.manifest:
            assert (tmp_path / "all" / name).read_bytes() == (
                tmp_path / "alone" / name).read_bytes()

    def test_sampler_guard_holds_only_runs_that_sample(self):
        # tune, verify and evolve never sample, so sde.dt does not bound gamma
        cfg = cli.build_config({**SMALL, "tuning.gamma": "150",
                                "sweep.gammas": "1,120"})
        assert cli.run_experiment("tune", cfg).results["tuning"][
            "operating_point"]["gamma"] == 150.0

    def test_sweep_critical_gamma_follows_curvature(self):
        # U = 2 x^2: the first-moment ODE is critically damped at
        # gamma_c = 2 sqrt(4) = 4, not at 2
        cfg = cli.build_config(
            {"potential.params": "4", "sweep.gammas": "1,2,4,8",
             "sde.particles": "2000"}
        )
        report = cli.run_experiment("sweep", cfg)
        rates = report.results["sweep"]["rates"]
        assert max(rates, key=rates.get) == "4"
        (verdict,) = report.verdicts
        assert verdict["name"] == "sweep_argmax_critical"
        assert verdict["status"] == "pass"
        assert verdict["margin"] == (rates["4"] - rates["2"]) / rates["4"]

    def test_sweep_skips_without_critical_gamma(self):
        cfg = cli.build_config(
            {"sweep.target": "evolve", "sweep.gammas": "1,4", **SMALL,
             "evolve.t_end_factor": "0.3"}
        )
        report = cli.run_experiment("sweep", cfg)
        assert report.verdicts == [{"name": "sweep_argmax_critical",
                                    "status": "skipped", "margin": None}]


SMALL = {"grid.N_x": "32", "grid.N_v": "6"}
SMALL_SDE = {"sde.particles": "1000", "sde.steps": "600"}
RULE_CONFIGS = {
    "gap": SMALL,
    "tune": SMALL,
    "verify": SMALL,
    "evolve": {**SMALL, "evolve.f0": "all"},
    "sample": SMALL_SDE,
    "sweep": {**SMALL, "sweep.target": "evolve", "sweep.gammas": "1,2,4",
              "evolve.t_end_factor": "0.3"},
    "all": {**SMALL, **SMALL_SDE},
}


def _forbid_stage_work(monkeypatch):
    """Make the factorization, the structure check and the integration raise."""
    def no_work(*args, **kwargs):
        raise AssertionError("a stage started before the config was checked")

    for name in ("crank_nicolson", "check_structure", "integrate"):
        monkeypatch.setattr(cli, name, no_work)


def _edit_result(edit):
    """A patch that calls the original function and edits its result."""
    return lambda original: lambda *args, **kw: edit(original(*args, **kw))


def _norm_above_bound(name):
    """verify_corrector_bounds with the norm of one block, and its ratio,
    1 % above its bound."""
    i = ("A", "LaA", "ALa_fast").index(name)

    def edit(norms):
        ratios = list(norms["ratios"])
        ratios[i] = 1.01
        return {**norms, f"norm_{name}": 1.01 * norms[f"bound_{name}"],
                "ratios": ratios}

    return _edit_result(edit)


def _rising_rates(original):
    """estimate_rate giving 1, 2, 3, ... in call order: along the sweep's
    gammas 1, 2, 4 the critical 2 is not the fastest."""
    rates = itertools.count(1.0)
    return lambda trace: next(rates)


# verdict -> (command, config, hypolab.cli name, patch of that name's original)
# that breaks exactly what the verdict guards
FAILING_CASES = {
    "eps_ordering": ("tune", SMALL, "optimize_friction", _edit_result(
        lambda t: replace(t, eps_max=2.01 * t.gamma_star / t.a))),
    "ratio_chain": ("tune", SMALL, "optimize_friction", _edit_result(
        lambda t: replace(t, lambda_coer=2 * t.lambda_coer))),
    "bound_A": ("verify", SMALL, "verify_corrector_bounds", _norm_above_bound("A")),
    "bound_LaA": ("verify", SMALL, "verify_corrector_bounds", _norm_above_bound("LaA")),
    "bound_ALa_fast": ("verify", SMALL, "verify_corrector_bounds",
                       _norm_above_bound("ALa_fast")),
    "dissipation_coercive": ("verify", SMALL, "dissipation_form_min_eig",
                             _edit_result(lambda r: (r[0] / 2, *r[1:]))),
    "structure_exact": ("verify", SMALL, "check_structure", _edit_result(
        lambda s: {"exact": {**s["exact"], "la_square": 1e-9}})),
    # a grid curvature above the quadratic's K = 0
    "bochner_inequality": ("verify", SMALL, "discrete_curvature", _edit_result(
        lambda c: c + 1.0)),
    "mean_conserved": ("evolve", SMALL, "integrate", _edit_result(
        lambda t: replace(t, mean=t.mean + 1e-9 * t.times / t.times[-1]))),
    # the honest norm stays below half the envelope after t = 0
    "decay_bound": ("evolve", SMALL, "integrate", _edit_result(
        lambda t: replace(t, norm=3 * t.norm))),
    # a trace that does not decay
    "rate_above_Lambda": ("evolve", SMALL, "estimate_rate",
                          lambda original: lambda t: 0.0),
    "first_moment_rate": ("sample", SMALL_SDE, "_first_moment_rate",
                          lambda original: lambda gamma, a: original(gamma, 2 * a)),
    "sweep_argmax_critical": ("sweep", RULE_CONFIGS["sweep"], "estimate_rate",
                              _rising_rates),
}


class TestStageTable:
    @pytest.mark.parametrize("command", cli.SUBCOMMANDS)
    def test_timings_follow_the_command_table(self, command):
        report = cli.run_experiment(command, cli.build_config(RULE_CONFIGS[command]))
        assert list(report.timings) == list(cli.COMMANDS[command])

    @pytest.mark.parametrize("command", ["sample", "all"])
    def test_first_stage_carries_the_set_up(self, command, monkeypatch):
        # the sampler's check reads gamma*, which needs the gap before any
        # stage runs: that time is the first stage's
        pause = 0.2
        poincare_constant = cli.poincare_constant

        def slow(*args):
            time.sleep(pause)
            return poincare_constant(*args)

        monkeypatch.setattr(cli, "poincare_constant", slow)
        report = cli.run_experiment(command, cli.build_config(RULE_CONFIGS[command]))
        assert report.timings[cli.COMMANDS[command][0]] >= pause

    @pytest.mark.parametrize("command", ["sample", "all"])
    def test_ensemble_time_is_the_sample_stage(self, command, monkeypatch):
        # the ensemble's own seconds are sample's, whether it runs in the
        # stage (sample) or in its own process beside the others (all);
        # scipy is loaded first, so that no stage carries its import
        import scipy.linalg
        import scipy.sparse
        pause = 0.2
        run_ensemble = cli.run_ensemble

        def slow(cfg):
            time.sleep(pause)
            return run_ensemble(cfg)

        monkeypatch.setattr(cli, "run_ensemble", slow)
        raw = {**RULE_CONFIGS[command], "evolve.t_end_factor": "0.3"}
        report = cli.run_experiment(command, cli.build_config(raw))
        assert list(report.timings) == list(cli.COMMANDS[command])
        assert report.timings.pop("sample") >= pause
        assert all(t < pause for t in report.timings.values()), report.timings

    def test_all_samples_beside_the_operator_stages(self, monkeypatch):
        # the ensemble process runs while the operator stages do: a pause in
        # each costs the run one pause, not two
        import scipy.linalg
        import scipy.sparse
        pause = 0.4
        run_ensemble, check_structure = cli.run_ensemble, cli.check_structure

        def slow_ensemble(cfg):
            time.sleep(pause)
            return run_ensemble(cfg)

        def slow_structure(ops):
            time.sleep(pause)
            return check_structure(ops)

        monkeypatch.setattr(cli, "run_ensemble", slow_ensemble)
        monkeypatch.setattr(cli, "check_structure", slow_structure)
        cfg = cli.build_config({**RULE_CONFIGS["all"], "evolve.t_end_factor": "0.3"})
        t0 = time.perf_counter()
        report = cli.run_experiment("all", cfg)
        assert time.perf_counter() - t0 < 0.7
        assert report.timings["structure"] >= pause
        assert report.timings["sample"] >= pause

    def test_all_keeps_the_report_of_its_stage_order(self):
        # the reference runs the stages in COMMANDS order on a fresh
        # workspace, the ensemble inside the sample stage
        cfg = cli.build_config(RULE_CONFIGS["all"])
        report = cli.run_experiment("all", cfg)
        reference = cli.RunReport(version=cli.__version__, command="all",
                                  config=dict(cfg.echo()))
        ws = cli._Workspace(cfg)
        for stage in cli.COMMANDS["all"]:
            cli._STAGES[stage](ws, reference)
        got, want = report.as_dict(), reference.as_dict()
        del got["timings"], want["timings"]
        assert json.dumps(got) == json.dumps(want)
        assert len(report.traces) == len(reference.traces)
        for (name, trace), (ref_name, ref) in zip(report.traces, reference.traces):
            assert name == ref_name
            assert list(trace.columns) == list(ref.columns)
            for key, column in trace.columns.items():
                assert np.array_equal(column, ref.columns[key]), (name, key)


class TestVerdictRule:
    @pytest.mark.parametrize("command", cli.SUBCOMMANDS)
    def test_status_is_the_sign_of_the_margin(self, command):
        report = cli.run_experiment(command, cli.build_config(RULE_CONFIGS[command]))
        verdicts = json.loads(cli.report_json(report))["verdicts"]
        assert verdicts
        for v in verdicts:
            if v["status"] == "skipped":
                assert v["margin"] is None, v
            else:
                assert isinstance(v["margin"], float), v
                assert v["status"] == ("pass" if v["margin"] >= 0 else "fail"), v

    def test_check_and_skip(self):
        report = cli.RunReport(version="", command="", config={})
        for margin in (0.0, 1.5, -1e-300, None, math.nan, math.inf):
            report.check("c", margin)
        report.skip("s")
        assert [v["status"] for v in report.verdicts] == (
            ["pass", "pass"] + ["fail"] * 4 + ["skipped"]
        )
        assert report.verdicts[-1]["margin"] is None

    def test_ratio_chain_margin_is_the_smaller_gap(self):
        report = cli.run_experiment("tune", cli.build_config({}))
        chain = report.results["tuning"]["ratio_chain"]
        upper = chain["lambda_min_M"] - chain["det_over_trace"]
        lower = chain["det_over_trace"] - chain["lambda_coer"]
        margin = next(v["margin"] for v in report.verdicts
                      if v["name"] == "ratio_chain")
        # at the default config lambda_min(M) - det/tr is the binding gap
        assert margin == min(upper, lower) == upper
        assert margin == pytest.approx(0.00156, abs=5e-6)

    def test_understated_k_fails_bochner(self, monkeypatch):
        # the double well's true bound is K = 1, and its grid curvature
        # K_h = 0.997 at the barrier, where U'' < 0, exposes K = 0
        monkeypatch.setattr(model.Potential, "K", property(lambda self: 0.0))
        cfg = cli.build_config({"potential.kind": "double_well"})
        report = cli.run_experiment("verify", cfg)
        verdict = next(v for v in report.verdicts if v["name"] == "bochner_inequality")
        assert verdict["status"] == "fail"
        assert verdict["margin"] == -report.results["bochner"]["K_h"]
        assert verdict["margin"] == pytest.approx(-0.997, abs=1e-3)

    def test_bochner_margin_is_k_minus_grid_curvature(self):
        # cosine_bump(2): K = 1, and the grid curvature peaks near x = 2 pi
        cfg = cli.build_config({"potential.kind": "cosine_bump",
                                "potential.params": "2", "grid.N_x": "64",
                                "grid.N_v": "12"})
        report = cli.run_experiment("verify", cfg)
        bochner = report.results["bochner"]
        assert bochner["K"] == 1.0
        assert bochner["K_h"] == pytest.approx(4.9357, abs=1e-4)
        assert bochner["x_at_max"] == pytest.approx(2 * math.pi, abs=0.1)
        statuses = {v["name"]: v["status"] for v in report.verdicts}
        margins = {v["name"]: v["margin"] for v in report.verdicts}
        assert margins["bochner_inequality"] == bochner["K"] - bochner["K_h"]
        assert [k for k, v in statuses.items() if v == "fail"] == ["bochner_inequality"]

    @pytest.mark.parametrize("verdict", FAILING_CASES)
    def test_each_verdict_fails_alone(self, verdict, monkeypatch):
        command, raw, name, patch = FAILING_CASES[verdict]
        cfg = cli.build_config(raw)
        assert not cli.run_experiment(command, cfg).failed
        monkeypatch.setattr(cli, name, patch(getattr(cli, name)))
        report = cli.run_experiment(command, cfg)
        assert [v["name"] for v in report.verdicts if v["status"] == "fail"] == [verdict]

    def test_rate_above_lambda_skipped_off_tuned_gamma(self):
        cfg = cli.build_config({**SMALL, "tuning.gamma": "3.0",
                                "evolve.t_end_factor": "0.5"})
        report = cli.run_experiment("evolve", cfg)
        verdicts = {v["name"]: v for v in report.verdicts}
        for name in ("decay_bound", "rate_above_Lambda"):
            assert verdicts[name] == {"name": name, "status": "skipped",
                                      "margin": None}
        assert report.results["evolve"]["decay_bound_time"] == {}
        assert report.results["rates"]["evolve_random"] > 0

    def test_decay_bound_judges_the_samples_after_t0(self):
        # at t = 0 the margin is 1 - 1/sqrt(3) by construction
        cfg = cli.build_config({**SMALL, "evolve.f0": "all",
                                "evolve.t_end_factor": "0.5"})
        report = cli.run_experiment("evolve", cfg)
        margins = {v["name"]: v["margin"] for v in report.verdicts}
        binds_at = report.results["evolve"]["decay_bound_time"]
        assert list(binds_at) == list(evolve.INITIAL_KINDS)
        for kind, (_, trace) in zip(evolve.INITIAL_KINDS, report.traces):
            rel = (trace.bound - trace.norm) / trace.bound
            assert rel[0] == pytest.approx(1 - 1 / math.sqrt(3), rel=1e-12)
            assert margins[f"decay_bound_{kind}"] == rel[1:].min() != rel[0]
            assert binds_at[kind] == trace.times[1 + np.argmin(rel[1:])] > 0

    def test_decay_bound_judges_the_samples_above_the_roundoff_floor(self):
        # at t_end_factor 40 each norm stalls at the roundoff of the conserved
        # mean (about 1e-15 ||f0|| from t ~ 220) while the envelope keeps
        # falling: judged on the floor, the kinds read -844, -143 and -158
        cfg = cli.build_config({**SMALL, "evolve.f0": "all",
                                "evolve.t_end_factor": "40"})
        report = cli.run_experiment("evolve", cfg)
        assert not report.failed
        margins = {v["name"]: v["margin"] for v in report.verdicts}
        binds_at = report.results["evolve"]["decay_bound_time"]
        Lambda = report.results["evolve"]["Lambda"]
        for kind, (_, trace) in zip(evolve.INITIAL_KINDS, report.traces):
            floor = evolve.ROUNDOFF_FLOOR * trace.norm[0]
            n = int(np.argmax(trace.norm <= floor))
            assert n > 1 and trace.norm[-1] <= floor
            rel = (trace.bound - trace.norm) / trace.bound
            assert margins[f"decay_bound_{kind}"] == rel[1:n].min() > 0 > rel[n:].min()
            assert 0 < binds_at[kind] < trace.times[n]
            # an envelope above the generator's decay rate still fails there
            steep = replace(trace, bound=tuning_module.PREFACTOR * trace.norm[0]
                            * np.exp(-10 * Lambda * trace.times))
            assert evolve.verify_decay_bound(steep)[0] < 0

    def test_coercivity_skipped_off_the_tuned_point(self, capsys):
        # the paper states lambda_coer at (gamma*, eps*) only; at gamma = 16
        # the form's smallest eigenvalue is 0.79 lambda_coer
        assert cli.main(["verify", "--nx", "64", "--nv", "12", "--gamma", "16"]) == 0
        report = json.loads(capsys.readouterr().out)
        verdicts = {v["name"]: v for v in report["verdicts"]}
        assert verdicts["dissipation_coercive"] == {
            "name": "dissipation_coercive", "status": "skipped", "margin": None}
        corrector = report["results"]["corrector"]
        assert corrector["min_eig_Q"] / corrector["lambda_coer"] == pytest.approx(
            0.794, abs=1e-3)
        assert {v["status"] for n, v in verdicts.items()
                if n != "dissipation_coercive"} == {"pass"}

    def test_coercivity_has_no_slack_below_lambda_coer(self, monkeypatch):
        # lambda_coer raised until min_eig_Q - residual is 0.97 of it
        cfg = cli.build_config(SMALL)
        corrector = cli.run_experiment("verify", cfg).results["corrector"]
        lower = corrector["min_eig_Q"] - corrector["min_eig_residual"]
        monkeypatch.setattr(cli, "optimize_friction", _edit_result(
            lambda t: replace(t, lambda_coer=lower / 0.97))(cli.optimize_friction))
        report = cli.run_experiment("verify", cfg)
        verdict = next(v for v in report.verdicts
                       if v["name"] == "dissipation_coercive")
        assert verdict["status"] == "fail"
        assert verdict["margin"] == pytest.approx(-0.03, rel=1e-9)
        assert not [v for v in report.verdicts
                    if v["status"] == "fail" and v is not verdict]

    @staticmethod
    def scale_block(monkeypatch, factor):
        """The singular pairs' t and (Grad U) diag(t), from which the three
        corrector norms are read, scaled by factor."""
        pairs = corrector_module.singular_pairs

        def scaled(ops):
            sigma, t, block, right = pairs(ops)
            return [sigma, t * factor, block * factor, right]

        monkeypatch.setattr(cli, "singular_pairs", scaled)

    def test_block_off_by_1e_9_fails_bound_a(self, monkeypatch):
        # ||A|| = max t = 1 / (2 sqrt(m_h)) is attained, so bound_A asserts
        # t exactly
        self.scale_block(monkeypatch, 1 + 1e-9)
        report = cli.run_experiment("verify", cli.build_config(SMALL))
        verdicts = {v["name"]: v for v in report.verdicts}
        assert verdicts["bound_A"]["status"] == "fail"
        assert verdicts["bound_A"]["margin"] == pytest.approx(-1e-9, rel=1e-3)
        assert verdicts["bound_LaA"]["status"] == "pass"
        assert verdicts["bound_ALa_fast"]["status"] == "pass"

    def test_flat_gap_passes_the_norm_bounds(self):
        # cosine_bump 10 at 128x20 has m_h = 5.5e-7: a norm of the dense B
        # carried the rounding of its banded solve, about kappa(m_h - L_o)
        # eps, and bound_A failed at -2.06e-10.  The closed forms carry none.
        # dissipation_coercive and bochner_inequality fail there for reasons
        # of their own, so only the three bounds are asserted
        cfg = cli.build_config({"potential.kind": "cosine_bump",
                                "potential.params": "10"})
        report = cli.run_experiment("verify", cfg)
        statuses = {v["name"]: v["status"] for v in report.verdicts}
        assert [statuses[f"bound_{name}"] for name in ("A", "LaA", "ALa_fast")] == (
            ["pass"] * 3)

    def test_block_one_percent_over_fails_bound_ala_fast(self, monkeypatch):
        cfg = cli.build_config(SMALL)
        ratio = cli.run_experiment("verify", cfg).results["corrector"]["ratios"][2]
        self.scale_block(monkeypatch, 1.01 / ratio)
        report = cli.run_experiment("verify", cfg)
        assert report.results["corrector"]["ratios"][2] == pytest.approx(1.01, rel=1e-12)
        verdict = next(v for v in report.verdicts if v["name"] == "bound_ALa_fast")
        assert verdict["status"] == "fail"
        assert verdict["margin"] == pytest.approx(-0.01, rel=1e-9)


class TestEmitReport:
    def make_small_report(self):
        cfg = cli.build_config(
            {"grid.N_x": "32", "grid.N_v": "6", "evolve.f0": "velocity",
             "evolve.t_end_factor": "0.2", "evolve.dt": "0.02"}
        )
        return cli.run_experiment("evolve", cfg)

    def test_files_written(self, tmp_path):
        report = self.make_small_report()
        manifest = cli.emit_report(report, tmp_path)
        assert "summary.txt" in manifest and "report.json" in manifest
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["command"] == "evolve"
        assert data["manifest"] == report.manifest
        csv_name = report.manifest[0]
        first = (tmp_path / csv_name).read_text().splitlines()[0]
        assert first == "t,norm,lyap,diss,bound,mean"

    def test_reruns_are_byte_identical(self, tmp_path):
        r1 = self.make_small_report()
        r2 = self.make_small_report()
        cli.emit_report(r1, tmp_path / "a")
        cli.emit_report(r2, tmp_path / "b")
        name = r1.manifest[0]
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()

    def test_ensemble_csv_columns(self, tmp_path):
        trace = sampler.EnsembleTrace(
            times=np.array([0.0, 0.5]),
            means={"x0": np.array([2.0, 0.1]), "v_sq": np.array([1.0, 1.0 / 3.0])},
            stderrs={"x0": np.array([0.0, 0.01]), "v_sq": np.array([0.25, 0.5])},
            final_x_mean=None, final_x_var=None, final_v_mean=None,
            final_v_var=None,
        )
        report = cli.RunReport(version="", command="sample", config={},
                               traces=[("sde.csv", trace)])
        assert cli.emit_report(report, tmp_path)[0] == "sde.csv"
        assert (tmp_path / "sde.csv").read_text() == (
            "t,x0_mean,x0_stderr,v_sq_mean,v_sq_stderr\n"
            "0.0,2.0,0.0,1.0,0.25\n"
            "0.5,0.1,0.01,0.3333333333333333,0.5\n"
        )

    def test_report_floats_round_trip(self, tmp_path):
        cfg = cli.build_config(SMALL)
        report = cli.run_experiment("tune", cfg)
        cli.emit_report(report, tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        lam = data["results"]["tuning"]["Lambda"]
        assert lam == report.results["tuning"]["Lambda"]  # full precision
        assert data["manifest"] == []  # no traces emitted by tune

    @pytest.mark.parametrize("command, raw", [
        *RULE_CONFIGS.items(),
        ("sweep", {**SMALL_SDE, "sweep.target": "sample", "sweep.gammas": "2,4"}),
        ("sample", {"potential.kind": "double_well", "sde.particles": "300",
                    "sde.steps": "50", "sde.init_shift": "1e103"}),
    ], ids=[*RULE_CONFIGS, "sweep-sample", "sample-diverged"])
    def test_report_is_plain_json(self, command, raw):
        # report_json has no default hook: the report holds only values json
        # writes itself, np.float64 being a float
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = cli.run_experiment(command, cli.build_config(raw))
        json.dumps(report.as_dict())

        def leaves(value):
            if isinstance(value, dict):
                value = list(value.values())
            if isinstance(value, (list, tuple)):
                return [leaf for v in value for leaf in leaves(v)]
            return [value]

        assert {type(v) for v in leaves(report.as_dict())} <= {
            bool, int, float, str, type(None), np.float64}


class TestMain:
    def test_exit_zero_on_success(self, capsys):
        code = cli.main(["tune"])
        assert code == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert data["results"]["tuning"]["gamma_star"] > 0

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.conf"
        bad.write_text("grid.N_x = 4\n")
        assert cli.main(["gap", "--config", str(bad)]) == 2

    def test_repeated_key_exits_2_and_a_flag_still_overrides(self, tmp_path, capsys):
        conf = tmp_path / "twice.conf"
        conf.write_text("grid.N_x = 64\ngrid.N_x = 32\n")
        assert cli.main(["gap", "--config", str(conf)]) == 2
        assert "grid.N_x: given on lines 1 and 2" in capsys.readouterr().err
        conf.write_text("grid.N_x = 64\n")
        assert cli.main(["gap", "--config", str(conf), "--nx", "32"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["gap"]["N_x"] == 32

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(command, cfg):
            raise TypeError("not a numerical failure")

        monkeypatch.setattr(cli, "run_experiment", broken)
        with pytest.raises(TypeError):
            cli.main(["gap"])

    def test_numerical_failure_names_the_class(self, monkeypatch, capsys):
        def diverge(command, cfg):
            raise DivergenceError("non-finite force", coordinate=3)

        monkeypatch.setattr(cli, "run_experiment", diverge)
        assert cli.main(["gap"]) == 3
        assert "DivergenceError" in capsys.readouterr().err

    @pytest.mark.parametrize("error, code", [
        (NumericalError("ensemble failed"), 3),
        (ChildProcessError("a worker ended without reporting"), 4),
    ], ids=["numerical", "worker"])
    def test_ensemble_error_exits_with_its_message(
            self, error, code, tmp_path, monkeypatch, capsys):
        # raised in the ensemble process, and again here with its class
        def fail(cfg):
            raise error

        monkeypatch.setattr(cli, "run_ensemble", fail)
        conf = tmp_path / "small.conf"
        conf.write_text("".join(f"{k} = {v}\n" for k, v in RULE_CONFIGS["all"].items()))
        assert cli.main(["all", "--config", str(conf)]) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert str(error) in err

    @pytest.mark.parametrize("failing", ["structure", "ensemble"])
    def test_no_process_outlives_main(self, failing, tmp_path):
        # an operator stage fails while the ensemble runs (10^4 particles
        # over 4 x 10^4 steps, 14 s or more on two CPUs), or the ensemble
        # fails: main exits 3 with the message, without waiting out the
        # ensemble, and every process of its session has been reaped
        conf = tmp_path / "long.conf"
        conf.write_text("grid.N_x = 32\ngrid.N_v = 6\nsde.steps = 40000\n")
        patch = {
            "structure": ("def check_structure(ops):\n"
                          "    time.sleep(0.3)\n"
                          "    raise NumericalError('structure failed')\n"
                          "cli.check_structure = check_structure\n"),
            "ensemble": ("def run_ensemble(cfg):\n"
                         "    raise NumericalError('ensemble failed')\n"
                         "cli.run_ensemble = run_ensemble\n"),
        }[failing]
        code = ("import sys, time\n"
                "import hypolab.cli as cli\n"
                "from hypolab.errors import NumericalError\n"
                f"{patch}"
                f"sys.exit(cli.main(['all', '--config', {str(conf)!r}]))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        _, err = proc.communicate(timeout=120)
        assert time.perf_counter() - t0 < 8.0
        assert proc.returncode == 3, err
        assert f"numerical failure: NumericalError: {failing} failed" in err
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)

    def test_diverged_sample_fails(self, tmp_path, capsys):
        conf = tmp_path / "diverge.conf"
        conf.write_text("potential.kind = double_well\nsde.particles = 300\n"
                        "sde.steps = 50\nsde.init_shift = 1e103\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main(["sample", "--config", str(conf)])
        data = json.loads(capsys.readouterr().out)
        sample = data["results"]["sample"]
        assert sample["diverged"]
        assert sample["divergence"] == {"trajectory": 0, "step": 0}
        for name in ("final_v_var", "final_x_var", "final_v_mean", "final_x_mean"):
            assert sample[name] is None
        verdicts = {v["name"]: v for v in data["verdicts"]}
        assert verdicts["equilibrium_v_sq"]["status"] == "fail"
        assert verdicts["equilibrium_v_sq"]["margin"] is None
        assert code == 1

    def test_diverged_quadratic_fails_both_moments(self, monkeypatch):
        run_ensemble = cli.run_ensemble

        def diverged(cfg):
            trace = run_ensemble(cfg)
            trace.divergence = {"trajectory": 7, "step": 3}
            return trace

        monkeypatch.setattr(cli, "run_ensemble", diverged)
        cfg = cli.build_config({"sde.particles": "200", "sde.steps": "50",
                                "sde.init_shift": "0"})
        report = cli.run_experiment("sample", cfg)
        statuses = {v["name"]: v["status"] for v in report.verdicts}
        assert statuses["equilibrium_v_sq"] == statuses["equilibrium_x_sq"] == "fail"
        assert report.results["sample"]["divergence"] == {"trajectory": 7, "step": 3}

    def test_zero_initial_state_exits_2(self, tmp_path, capsys):
        conf = tmp_path / "zero.conf"
        conf.write_text("evolve.f0 = zero\n")
        assert cli.main(["evolve", "--config", str(conf)]) == 2
        assert "evolve.f0" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text", [
        ("evolve", "evolve.t_end_factor = 1e300\n"),
        ("evolve", "evolve.t_end_factor = 1e308\n"),  # t_end overflows to inf
        ("sweep", "sweep.target = evolve\nevolve.t_end_factor = 1e300\n"),
    ], ids=["evolve-1e300", "evolve-1e308", "sweep-1e300"])
    def test_endless_evolve_exits_2_before_integrating(self, command, text, tmp_path,
                                                       capsys, monkeypatch):
        _forbid_stage_work(monkeypatch)
        conf = tmp_path / "endless.conf"
        conf.write_text(text)
        assert cli.main([command, "--nx", "32", "--nv", "6", "--config", str(conf)]) == 2
        assert "configuration error: evolve.t_end_factor: " in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags, text, key", [
        ("evolve", [], "evolve.t_end_factor = 1e-4\n", "tuning.gamma (unset, so gamma*)"),
        ("all", [], "evolve.t_end_factor = 1e-4\n", "tuning.gamma (unset, so gamma*)"),
        ("sweep", [], "sweep.target = evolve\nevolve.t_end_factor = 1e-4\n",
         "sweep.gammas = 0.5,"),
        ("all", [], "evolve.t_end_factor = 1e300\n", "tuning.gamma (unset, so gamma*)"),
        # the step is clamped to DT_GUARD / gamma = 1e-5
        ("evolve", ["--gamma", "1e4"], "", "tuning.gamma = 10000,"),
        ("sweep", [], "sweep.target = evolve\nsweep.gammas = 1,2,4,1e4\n",
         "sweep.gammas = 10000,"),
    ], ids=["evolve-1e-4", "all-1e-4", "sweep-1e-4", "all-1e300", "evolve-gamma-1e4",
            "sweep-gammas-1e4"])
    def test_evolve_limits_exit_2_before_any_stage(self, command, flags, text, key,
                                                   tmp_path, capsys, monkeypatch):
        _forbid_stage_work(monkeypatch)
        conf = tmp_path / "limits.conf"
        conf.write_text(text)
        assert cli.main([command, *flags, "--config", str(conf)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"configuration error: evolve.t_end_factor: at {key}")

    def test_step_cap_is_far_above_the_default_run(self):
        ws = cli._Workspace(cli.build_config({}))
        steps = ws.t_end / cli.crank_nicolson(ws.ops, ws.gamma, ws.cfg.evolve_dt).dt
        assert 100 * steps < cli.MAX_CN_STEPS

    def test_step_cap_bounds_nine_doubles_a_step(self):
        """integrate keeps seven per-step arrays and, with the temporaries of
        its last lines, peaks at nine: 56 to 72 bytes a step."""
        ws = cli._Workspace(cli.build_config({"grid.N_x": "32", "grid.N_v": "6"}))
        cn = cli.crank_nicolson(ws.ops, ws.gamma, ws.cfg.evolve_dt)
        f0 = cli.initial_condition(ws.ops, "random", seed=1)
        corrector = ws.corrector  # built before the traced span

        def peak(steps):
            tracemalloc.start()
            try:
                cli.integrate(ws.ops, f0, cn, steps * cn.dt, corrector=corrector,
                              eps=ws.eps, Lambda=ws.tuned.Lambda)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1000)  # the first run allocates one-time caches
        slope = round((peak(4000) - peak(1000)) / 3000)  # bytes a step
        assert 7 * 8 <= slope <= 9 * 8

    @pytest.mark.parametrize("gammas", ["0,2", "2,-1", "2,nan", "inf,2"])
    def test_nonpositive_sweep_gamma_exits_2(self, gammas, tmp_path, capsys,
                                             monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the sweep ran before its config was checked")

        monkeypatch.setattr(cli, "integrate", no_work)
        conf = tmp_path / "sweep.conf"
        conf.write_text(f"sweep.target = evolve\nsweep.gammas = {gammas}\n")
        assert cli.main(["sweep", "--config", str(conf)]) == 2
        assert "sweep.gammas" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, key", [
        ("sweep", "sweep.gammas = 1,120\n", "sweep.gammas"),
        ("sample", "tuning.gamma = 150\n", "tuning.gamma"),
        ("all", "tuning.gamma = 150\n", "tuning.gamma"),
        ("sample", "sde.dt = 0.3\n", "tuning.gamma (unset, so gamma*)"),
    ], ids=["sweep", "sample", "all", "sample-gamma-star"])
    def test_sampler_guard_exits_2_naming_the_key(self, command, text, key,
                                                  tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the sampler guard")

        for name in ("run_ensemble", "estimate_observable_decay", "check_structure",
                     "integrate"):
            monkeypatch.setattr(cli, name, no_work)
        monkeypatch.setattr(sampler, "run_ensemble", no_work)
        conf = tmp_path / "guard.conf"
        conf.write_text(text)
        assert cli.main([command, "--config", str(conf)]) == 2
        assert f"{key}: the sampler needs sde.dt * gamma < 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, key", [
        ("sample", "sde.steps = 50\n", "sde.steps"),
        ("all", "sde.steps = 50\n", "sde.steps"),
        ("sweep", "sde.steps = 60\nsde.record_every = 10\n", "sde.steps"),
        ("sweep", "sde.init_shift = 0\n", "sde.init_shift"),
    ], ids=["sample-records", "all-records", "sweep-records", "sweep-no-shift"])
    def test_decay_fit_preconditions_exit_2_before_sampling(
            self, command, text, key, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("an ensemble ran before the decay fit's check")

        monkeypatch.setattr(cli, "run_ensemble", no_work)
        monkeypatch.setattr(sampler, "run_ensemble", no_work)
        conf = tmp_path / "fit.conf"
        conf.write_text(text)
        assert cli.main([command, "--config", str(conf)]) == 2
        assert f"configuration error: {key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command, text", [
        ("sample", "sde.d = 1000000000000\nsde.particles = 100\n"),
        ("sample", "sde.steps = 1000000000000000\n"),
        ("all", "sde.particles = 100000\nsde.d = 1001\n"),
        ("sweep", "sde.steps = 100000000\nsde.record_every = 1\n"),
        # the generators and the record buffer, not the state, exceed the cap
        ("sample", "sde.particles = 10000000\n"),
        ("sample", "sde.particles = 10000000\nsde.record_every = 1\n"),
    ], ids=["sample-d", "sample-steps", "all-coordinates", "sweep-records",
            "sample-particles", "sample-particles-every-step"])
    def test_oversized_ensemble_exits_2_before_sampling(
            self, command, text, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("an ensemble ran before its size was checked")

        monkeypatch.setattr(cli, "run_ensemble", no_work)
        monkeypatch.setattr(sampler, "run_ensemble", no_work)
        conf = tmp_path / "big.conf"
        conf.write_text(text)
        assert cli.main([command, "--config", str(conf)]) == 2
        err = capsys.readouterr().err
        assert ("configuration error: sde.particles, sde.d, sde.steps, "
                "sde.record_every: the ensemble needs ") in err
        assert f"MAX_SDE_BYTES = {cli.MAX_SDE_BYTES}" in err

    def test_byte_cap_counts_every_worker(self, monkeypatch):
        # 1.5 * 10^6 particles at d = 4 fit the cap in one process, about
        # 1.9 GiB, and not in two: the forked worker's copies of its state
        # rows and record columns add 0.36 GiB
        ws = cli._Workspace(cli.build_config({"sde.d": "4",
                                              "sde.particles": "1500000"}))
        sde = cli._sde_config(ws, ws.gamma)
        monkeypatch.setattr(sampler, "WORKERS", 1)
        assert sampler.ensemble_bytes(sde) <= cli.MAX_SDE_BYTES - 10**6
        cli._preflight("sample", ws)  # does not raise
        monkeypatch.setattr(sampler, "WORKERS", 2)
        assert sampler.ensemble_bytes(sde) > cli.MAX_SDE_BYTES
        with pytest.raises(ConfigurationError,
                           match=r"summed over the 2 processes it runs in"):
            cli._preflight("sample", ws)

    def test_ensemble_caps_are_far_above_the_default_run(self):
        # the default run, and the d = 4 ensemble of the sample_hd benchmark
        for raw in ({}, {"sde.d": "4"}):
            sde = cli._sde_config(cli._Workspace(cli.build_config(raw)), 1.0)
            assert 50 * sampler.ensemble_bytes(sde) <= cli.MAX_SDE_BYTES

    @pytest.mark.parametrize("command, raw", [
        ("sample", {"sde.d": "64", "sde.particles": "156250"}),
        ("all", {"sde.particles": "100000", "sde.d": "101"}),
        ("sweep", {"sde.steps": "10000000", "sde.record_every": "1"}),
    ], ids=["sample-10^7-coordinates", "all-10^5-particles", "sweep-10^7-records"])
    def test_ensembles_within_the_byte_cap_pass(self, command, raw):
        # 10^7 coordinates was the most a count cap allowed, about 0.55 GiB by
        # ensemble_bytes; the other two are 0.46 GiB, and 0.76 GiB plus its
        # decay fit's 0.82 GiB
        ws = cli._Workspace(cli.build_config(raw))
        assert sampler.ensemble_bytes(cli._sde_config(ws, 1.0)) <= cli.MAX_SDE_BYTES
        cli._preflight(command, ws)  # does not raise

    def test_decay_fit_bytes_count_against_the_cap(self, tmp_path, capsys, monkeypatch):
        # 2 x 10^7 records: the ensemble alone is within the cap, with its
        # decay fit it is not
        raw = {"sde.steps": "20000000", "sde.record_every": "1"}
        sde = cli._sde_config(cli._Workspace(cli.build_config(raw)), 1.0)
        fit = sampler.FIT_RECORD_BYTES * (sde.steps + 1)
        assert sampler.ensemble_bytes(sde) <= cli.MAX_SDE_BYTES < (
            sampler.ensemble_bytes(sde) + fit)

        def no_work(*args, **kwargs):
            raise AssertionError("an ensemble ran before its size was checked")

        monkeypatch.setattr(cli, "run_ensemble", no_work)
        conf = tmp_path / "records.conf"
        conf.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()))
        assert cli.main(["sweep", "--config", str(conf)]) == 2
        assert "bytes with its decay fit, and at most MAX_SDE_BYTES" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("command, raw, ensembles", [
        ("sample", SMALL_SDE, 1),
        ("all", {**SMALL, **SMALL_SDE}, 1),
        ("sweep", {**SMALL_SDE, "sweep.gammas": "2,4"}, 2),
    ], ids=["sample", "all", "sample-sweep"])
    def test_one_ensemble_per_sampled_gamma(self, command, raw, ensembles,
                                            tmp_path, monkeypatch):
        # the shifted quadratic: the decay fit reads the stage's own trace.
        # all samples in a forked process, so each call is recorded in a file
        log = tmp_path / "calls.pickle"
        original = sampler.run_ensemble

        def counted(cfg):
            with open(log, "ab") as fh:
                pickle.dump(cfg, fh)
            return original(cfg)

        monkeypatch.setattr(sampler, "run_ensemble", counted)
        monkeypatch.setattr(cli, "run_ensemble", counted)
        cli.run_experiment(command, cli.build_config(raw))
        calls = []
        with open(log, "rb") as fh:
            while fh.peek(1):
                calls.append(pickle.load(fh))
        assert len(calls) == len({c.gamma for c in calls}) == ensembles

    def test_first_moment_rate_is_the_fit_of_the_stage_trace(self):
        cfg = cli.build_config(SMALL_SDE)
        report = cli.run_experiment("sample", cfg)
        ws = cli._Workspace(cfg)
        refit = sampler.estimate_observable_decay(
            sampler.run_ensemble(cli._sde_config(ws, ws.gamma)))
        assert report.results["rates"]["sample_first_moment"] == refit

    def test_unresolved_gap_vector_exits_3(self, tmp_path, capsys):
        # on this double well the tridiagonal eigensolve with vectors returns
        # a negative sigma^2 for the gap, where the value-only m_h is 0.674
        conf = tmp_path / "s5.conf"
        conf.write_text("potential.kind = double_well\npotential.params = 5\n")
        assert cli.main(["verify", "--nx", "64", "--nv", "12",
                         "--config", str(conf)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: NumericalError: " in err
        assert "sigma^2 = -" in err

    @pytest.mark.parametrize("command, raw", [
        ("sample", {"sde.steps": "50", "potential.kind": "double_well"}),
        ("sample", {"sde.steps": "50", "sde.init_shift": "0"}),
        ("sweep", {"sde.steps": "50", "sweep.target": "evolve"}),
        ("evolve", {"sde.steps": "50"}),
        ("sweep", {"sde.steps": str((sampler.MIN_FIT_SAMPLES - 1) * 10)}),
    ])
    def test_decay_fit_preconditions_only_where_a_fit_runs(self, command, raw):
        ws = cli._Workspace(cli.build_config(raw))
        cli._preflight(command, ws)  # does not raise

    def test_broken_assembly_fails_with_its_residuals(self, monkeypatch, tmp_path,
                                                      capsys):
        assemble_operators = cli.assemble_operators

        def broken(*args):
            ops = assemble_operators(*args)
            la = ops.la.tolil()
            la[0, 1] += 1e-6
            ops.la = la.tocsr()
            return ops

        monkeypatch.setattr(cli, "assemble_operators", broken)
        code = cli.main(["verify", "--nx", "32", "--nv", "6", "--out", str(tmp_path)])
        data = json.loads((tmp_path / "report.json").read_text())
        verdict = next(v for v in data["verdicts"] if v["name"] == "structure_exact")
        exact = data["results"]["structure"]["exact"]
        assert exact["la_antisymmetry"] == pytest.approx(1e-6, rel=1e-6)
        assert verdict["status"] == "fail"
        assert verdict["margin"] == 1e-12 - exact["la_antisymmetry"]
        assert code == 1

    def test_broken_mode_zero_block_fails_structure_exact(self, monkeypatch,
                                                          tmp_path):
        # antisymmetric, so among the antisymmetry and sandwich checks only the
        # sandwich on la's mode-0 block sees it; the coercivity residual,
        # measured on the assembled generator, is 4x its rounding level
        assemble_operators = cli.assemble_operators

        def broken(*args):
            ops = assemble_operators(*args)
            la = ops.la.tolil()
            la[0, ops.n_v] += 1e-6
            la[ops.n_v, 0] -= 1e-6
            ops.la = la.tocsr()
            return ops

        monkeypatch.setattr(cli, "assemble_operators", broken)
        code = cli.main(["verify", "--nx", "32", "--nv", "6", "--out", str(tmp_path)])
        data = json.loads((tmp_path / "report.json").read_text())
        statuses = {v["name"]: v["status"] for v in data["verdicts"]}
        exact = data["results"]["structure"]["exact"]
        assert exact["la_antisymmetry"] == 0.0
        assert exact["average_sandwich_zero"] == pytest.approx(1e-6, rel=1e-6)
        assert statuses["structure_exact"] == "fail"
        assert [k for k, v in statuses.items() if v == "fail"] == [
            "structure_exact", "dissipation_coercive"]
        assert code == 1

    def test_missing_config_file_is_io_error(self):
        assert cli.main(["gap", "--config", "/nonexistent/x.conf"]) == 4

    @pytest.mark.parametrize("flag, key", sorted(cli._FLAGS.items()))
    def test_bad_flag_value_exits_2_naming_its_key(self, flag, key, capsys):
        # a flag's value is parsed once, with the config file's values
        assert cli.main(["gap", flag, "abc"]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {key}: ")

    def test_non_utf8_config_file_is_configuration_error(self, tmp_path, capsys):
        conf = tmp_path / "bin.conf"
        conf.write_bytes(b"\xff\xfe\x00s\x00e\x00e\x00d\x00")
        assert cli.main(["gap", "--config", str(conf)]) == 2
        assert f"configuration error: {conf}: not UTF-8 text" in capsys.readouterr().err

    def test_flag_overrides(self, tmp_path, capsys):
        conf = tmp_path / "ok.conf"
        conf.write_text("grid.N_x = 32\ngrid.N_v = 6\ntuning.gamma = 2.0\n")
        code = cli.main(["tune", "--config", str(conf), "--gamma", "3.0"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["config"]["tuning.gamma"] == "3.0"
        # each flag overrides its key; the echo is that of the key set in a file
        in_file = {"grid.N_x": "32", "grid.N_v": "6", "tuning.gamma": "2.0"}
        for flag, key, value, echo in (
            ("--seed", "seed", "7", "7"), ("--gamma", "tuning.gamma", "3", "3.0"),
            ("--eps", "tuning.eps", "0.25", "0.25"), ("--nx", "grid.N_x", "48", "48"),
            ("--nv", "grid.N_v", "8", "8"),
        ):
            assert cli.main(["tune", "--config", str(conf), flag, value]) == 0
            config = json.loads(capsys.readouterr().out)["config"]
            assert config[key] == echo
            assert config == cli.build_config({**in_file, key: value}).echo()

    def test_out_directory_written(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.main(["tune", "--out", str(out)])
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "summary.txt").read_text().startswith("PASS")

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert cli.main(["tune", "--out", str(blocker / "sub")]) == 4


class TestBlasThreads:
    """Importing the package sets one BLAS thread before numpy loads, unless
    the environment already names a count."""

    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def thread_settings(self, **preset):
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        env.update(preset)
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        code = f"import os, hypolab; print([os.environ[v] for v in {self.VARS!r}])"
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        return ast.literal_eval(done.stdout)

    def test_one_thread_when_unset(self):
        assert self.thread_settings() == ["1", "1", "1"]

    def test_preset_value_is_kept(self):
        assert self.thread_settings(OPENBLAS_NUM_THREADS="2") == ["2", "1", "1"]


class TestImportSurface:
    """The package imports none of its modules, and no module imports scipy
    at the top, so each loads only what it needs: the package alone no
    numpy, every module no scipy.  The commands that read the gap alone run
    without it."""

    def heavy_modules(self, module, then=""):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        code = (f"import sys, {module}\n{then}"
                "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        return ast.literal_eval(done.stdout)

    def test_package_loads_neither_numpy_nor_scipy(self):
        assert self.heavy_modules("hypolab") == []

    @pytest.mark.parametrize("module", ["hypolab.model", "hypolab.tuning", "hypolab.sampler",
                                        "hypolab.discretize", "hypolab.corrector",
                                        "hypolab.evolve", "hypolab.cli"])
    def test_module_loads_no_scipy(self, module):
        assert self.heavy_modules(module) == ["numpy"]

    def test_gap_tune_and_sampling_load_no_scipy(self, tmp_path):
        # m_h comes from the grid by numpy's eigensolve, and a sample sweep
        # does not read it: none of these builds an operator
        conf = tmp_path / "small.conf"
        conf.write_text("sde.particles = 400\nsde.steps = 300\nsweep.target = sample\n")
        runs = [["gap"], ["tune"], ["sample", "--config", str(conf)],
                ["sweep", "--config", str(conf)]]
        then = ("import contextlib, io\n"
                f"for argv in {runs!r}:\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        assert hypolab.cli.main(argv) in (0, 1), argv\n")
        assert self.heavy_modules("hypolab.cli", then) == ["numpy"]

    def test_all_samples_before_scipy_loads(self, tmp_path):
        # the ensemble process forks before structure, the first stage that
        # loads scipy; it records what it finds in a file
        conf = tmp_path / "small.conf"
        conf.write_text("grid.N_x = 32\ngrid.N_v = 6\n"
                        "sde.particles = 1000\nsde.steps = 600\n")
        log = tmp_path / "seen.txt"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        code = ("import ast, contextlib, io, sys\n"
                "import hypolab.cli as cli\n"
                "run_ensemble = cli.run_ensemble\n"
                "def recorded(cfg):\n"
                f"    with open({str(log)!r}, 'a') as fh:\n"
                "        fh.write(repr('scipy' in sys.modules) + '\\n')\n"
                "    return run_ensemble(cfg)\n"
                "cli.run_ensemble = recorded\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert cli.main(['all', '--config', {str(conf)!r}]) == 0\n"
                "assert 'scipy' in sys.modules\n"
                f"print([ast.literal_eval(line) for line in open({str(log)!r})])")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert ast.literal_eval(done.stdout) == [False]
