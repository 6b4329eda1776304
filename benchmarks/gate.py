"""Correctness gate: compare one workload run with its recorded reference.

A run passes when
  * its exit code and its (name, status) verdict list equal the reference;
  * every result section the reference names is present;
  * every ``structure.exact`` residual is at most 1e-12;
  * the closed-form ``tuning`` constants equal the reference (to 1e-12
    relative, i.e. up to roundoff in m_h);
  * ``norm_A`` is within the 5 % acceptance gate of 1/(2 sqrt(m_h)).

The power-iteration digits of norm_LaA and norm_ALa_fast are deliberately not
pinned: a more exact norm computation would move them and is not a fault.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

EXACT_TOL = 1e-12
TUNING_RTOL = 1e-12
NORM_A_GATE = 0.05

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def load_reference(path: Path = REFERENCE_FILE) -> dict:
    return json.loads(path.read_text())


def reference_for(references: dict, workload: str, seed: int) -> dict:
    """The entry recorded for this workload at this seed; seeds not recorded
    separately share the workload's default-seed entry."""
    entry = references[workload]
    return entry["seed_overrides"].get(str(seed), entry["reference"])


def reference_from(exit_code: int, report: dict) -> dict:
    """The reference entry that a run with this exit code and report defines."""
    results = report["results"]
    ref = {
        "exit_code": exit_code,
        "verdicts": [[v["name"], v["status"]] for v in report["verdicts"]],
        "sections": sorted(results),
    }
    if "tuning" in results:
        ref["tuning"] = results["tuning"]
    if "corrector" in results:
        ref["norm_A_closed_form"] = results["corrector"]["bound_A"]
    return ref


def _mismatches(expected, actual, path: str) -> list[str]:
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected a mapping, got {actual!r}"]
        out = []
        for key, value in expected.items():
            if key not in actual:
                out.append(f"{path}.{key}: missing")
            else:
                out.extend(_mismatches(value, actual[key], f"{path}.{key}"))
        return out
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        if math.isclose(expected, actual, rel_tol=TUNING_RTOL, abs_tol=0.0):
            return []
    elif expected == actual:
        return []
    return [f"{path}: {actual!r} != reference {expected!r}"]


def check_run(reference: dict, exit_code: int, report: dict | None) -> list[str]:
    """Problems found in one run; an empty list means the run is correct."""
    problems = []
    if exit_code != reference["exit_code"]:
        problems.append(f"exit code {exit_code} != reference {reference['exit_code']}")
    if report is None:
        return problems + ["no report.json was written"]
    verdicts = [[v["name"], v["status"]] for v in report["verdicts"]]
    if verdicts != reference["verdicts"]:
        problems.append(f"verdicts {verdicts} != reference {reference['verdicts']}")
    results = report["results"]
    missing = [s for s in reference["sections"] if s not in results]
    if missing:
        return problems + [f"result sections missing: {missing}"]
    if "structure" in reference["sections"]:
        worst = max(results["structure"]["exact"].values())
        if not worst <= EXACT_TOL:
            problems.append(f"structure.exact residual {worst!r} > {EXACT_TOL}")
    if "tuning" in reference:
        problems.extend(_mismatches(reference["tuning"], results["tuning"], "tuning"))
    if "norm_A_closed_form" in reference:
        closed = reference["norm_A_closed_form"]
        rel = abs(results["corrector"]["norm_A"] - closed) / closed
        if not rel <= NORM_A_GATE:
            problems.append(
                f"norm_A off the closed form 1/(2 sqrt(m_h)) by {rel:.3g} > {NORM_A_GATE}"
            )
    return problems
