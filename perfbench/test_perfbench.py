"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from cyclesteer import search, steering  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.fixture
def tiny(monkeypatch):
    """Shrink the pools so a whole run takes a few seconds."""
    monkeypatch.setattr(wl, "COARSE_STATES", 1)
    monkeypatch.setattr(wl, "S1_RESTARTS", 2)
    quick = search.ObjectiveSpec(kind="scenario1", nm=search.NMParams(max_iter=40))
    monkeypatch.setattr(wl.S1Search, "spec", quick)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    w = wl.WORKLOADS[name]

    def fingerprint(inputs):
        if name == "coarse-brackets":
            return [(j, psi.c.tobytes()) for j, psi in inputs]
        return inputs

    assert fingerprint(w.inputs(3, wl.POOL_SEED)) == fingerprint(w.inputs(3, wl.POOL_SEED))
    if isinstance(w.inputs(3, wl.POOL_SEED), list):
        # another seed only reorders the same pool
        assert sorted(map(str, fingerprint(w.inputs(4, wl.POOL_SEED)))) == sorted(
            map(str, fingerprint(w.inputs(3, wl.POOL_SEED))))


def test_another_pool_seed_draws_other_states():
    a = wl.WORKLOADS["coarse-brackets"].inputs(1, 7)
    b = wl.WORKLOADS["coarse-brackets"].inputs(1, 8)
    assert {psi.c.tobytes() for _, psi in a}.isdisjoint({psi.c.tobytes() for _, psi in b})


@pytest.mark.parametrize("name", ["coarse-brackets", "s1-search"])
def test_tiny_untraced_run_emits_every_end_to_end_metric(tiny, name):
    result = _run(["--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["attempted"] >= 1 and result["failed"] == 0


@pytest.mark.parametrize("name", ["coarse-brackets", "s1-search"])
def test_tiny_traced_run_emits_every_per_layer_metric(tiny, name):
    result = _run(["--workload", name, "--seed", "1", "--seconds", "1", "--trace", "1"])
    expected = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] is not None for v in result["metrics"].values())
    if name == "s1-search":
        assert result["metrics"]["search.restarts"]["value"] == 2
        assert result["metrics"]["search.objective_evals"]["value"] > 0
    else:
        assert result["metrics"]["lhs.brackets"]["value"] == 2
        assert result["metrics"]["lhs.solver_calls"]["value"] > 0


def test_config_lists_exactly_the_metrics_the_runner_emits():
    per_layer = [{"name": n, "unit": u, "better": b} for n, (u, b, *_) in spans.LAYER_METRICS.items()]
    per_layer += [{"name": n, "unit": u, "better": b} for n, (u, b) in spans.RUN_METRICS.items()]
    assert CONFIG["per_layer"] == per_layer
    assert {w["name"] for w in CONFIG["workloads"]} <= set(wl.WORKLOADS)


def test_run_without_program_sources_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "s1-search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# --- correctness gates reject corrupted results -----------------------------

def _s1_op(coeffs, q):
    text = json.dumps({"restart": 0, "seed": [7, 0], "iters": 1, "q": q, "coeffs": list(coeffs)})
    return wl.Op("restart 0", 0.1, result=text)


def test_s1_gate_rejects_a_perturbed_q():
    coeffs = [0.069455, 1, 1, -0.762707, 0.604546, -0.475110, -0.762707]  # sc1: q > L
    q = search.objective_scenario1(coeffs)
    good, bad = _s1_op(coeffs, q), _s1_op(coeffs, q + 1e-6)
    assert wl.S1Search().gate([good, bad]) == []
    assert good.gate is None
    assert "differs" in bad.gate


def test_s1_gate_requires_best_q_above_L():
    coeffs = [1.0, 0, 0, 0, 0, 0, 0]  # product state, q far below L
    op = _s1_op(coeffs, search.objective_scenario1(coeffs))
    errors = wl.S1Search().gate([op])
    assert op.gate is None and len(errors) == 1 and "does not exceed L" in errors[0]
    assert steering.lhs_bound_L(steering.icosahedron_settings())[0] > json.loads(op.result)["q"]


def _report_op(state, code=0, verdict="undetermined-at-this-resolution", **pairs):
    ref = wl.DEFAULT_REFERENCE[state]
    report = {"verdict": verdict}
    for pair in ("rho_AB", "rho_BA"):
        r_in, r_out = pairs.get(pair, ref[pair])
        report[pair] = {"r_in": r_in, "r_out": r_out}
    result = {"state": state, "exit": code, "stdout": json.dumps(report), "stderr": ""}
    return wl.Op(state, 1.0, result=result)


@pytest.mark.parametrize("op, reason", [
    (_report_op("b2", rho_AB=(0.9, 0.8)), "r_in"),
    (_report_op("b2", code=1), "exit code"),
    (_report_op("b1", rho_BA=(0.8192, 0.99)), "b1 r_out(BA)"),
    (_report_op("b3", verdict="refuted"), "refuted"),
    (_report_op("sc1", rho_AB=(0.5, 0.937515221)), "bracket width"),
])
def test_radius_default_gate_rejects(op, reason):
    wl.RadiusDefault().gate([op])
    assert reason in op.gate


def test_radius_default_gate_accepts_the_reference_brackets():
    ops = [_report_op(s, verdict="refuted" if s == "sc1" else "undetermined-at-this-resolution")
           for s in wl.DEFAULT_REFERENCE]
    wl.RadiusDefault().gate(ops)
    assert [op.gate for op in ops] == [None] * len(ops)


@pytest.mark.parametrize("bracket, reason", [
    ({"r_in": 0.6, "r_out": 0.5, "t_cap": 1.0}, "r_in"),
    ({"r_in": 0.4, "r_out": 1.2, "t_cap": 1.0}, "t_cap"),
])
def test_coarse_gate_rejects(bracket, reason):
    op = wl.Op("state 0 AB", 0.1, result=bracket)
    wl.CoarseBrackets().gate([op])
    assert reason in op.gate


@pytest.mark.parametrize("bracket, reason", [
    ({"r_in": 0.51, "r_out": 0.5234375, "t_cap": 1.0}, "misses the threshold"),
    ({"r_in": 0.40, "r_out": 0.6, "t_cap": 1.0}, "bracket width"),
])
def test_radius_fine_gate_rejects(bracket, reason):
    op = wl.Op("singlet", 1.0, result=bracket)
    wl.RadiusFine().gate([op])
    assert reason in op.gate
    ok = wl.Op("singlet", 1.0, result={"r_in": wl.FINE_REFERENCE[0], "r_out": wl.FINE_REFERENCE[1],
                                        "t_cap": 1.0})
    wl.RadiusFine().gate([ok])
    assert ok.gate is None


def test_failed_op_is_counted_and_the_run_goes_on():
    calls = []

    def boom():
        calls.append(1)
        raise ZeroDivisionError

    ops = [wl._run_op("a", boom, None, 0), wl._run_op("b", lambda: {"ok": 1}, None, 1)]
    assert [op.error for op in ops] == ["ZeroDivisionError", None]
    assert calls == [1]


# --- tracing ------------------------------------------------------------------

def test_self_time_excludes_child_spans_and_install_restores_names():
    import time

    import cyclesteer.states as states_mod

    original = states_mod.swap_state
    tracer = spans.Tracer()
    tracer.install([("states.swap_state", "cyclesteer.states", "swap_state", None),
                    ("gone", "cyclesteer.states", "no_such_function", None)])
    assert states_mod.swap_state is not original
    tracer.uninstall()
    assert states_mod.swap_state is original
    assert tracer.absent == ["gone"]

    t = spans.Tracer()
    child = t.wrap("lhs.linprog", lambda: time.sleep(0.02))
    parent = t.wrap("lhs.lhs_lp_feasible", lambda: (time.sleep(0.01), child()))
    t.begin_op(0)
    parent()
    t.end_op()
    metrics = spans.layer_metrics(t, 1, 0)
    assert metrics["lhs.solver_s"]["value"] >= 0.02
    assert 0.01 <= metrics["lhs.lp_self_s"]["value"] < 0.02
    assert metrics["lhs.cg_rounds_per_lp"]["value"] == 1.0


def test_absent_boundary_reads_null_not_zero():
    t = spans.Tracer()
    t.absent = ["lhs.linprog"]
    metrics = spans.layer_metrics(t, 1, 0)
    assert metrics["lhs.solver_calls"]["value"] is None
    assert metrics["lhs.cg_rounds_per_lp"]["value"] is None
    assert metrics["lhs.lp_calls"]["value"] == 0.0
