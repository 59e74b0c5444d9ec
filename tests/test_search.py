import io
import json
from types import SimpleNamespace

import numpy as np
import pytest

from cyclesteer.lhs import RadiusParams
from cyclesteer.search import (
    _PREFILTER_PARAMS,
    NMParams,
    ObjectiveSpec,
    ResumeLogError,
    coeffs_to_state,
    multi_restart,
    nelder_mead,
    objective_scenario1,
    objective_scenario2_full,
    two_stage_search,
)
from cyclesteer.states import builtin_state, build_family, reduce_pair, swap_state
from cyclesteer.steering import icosahedron_settings, lhs_bound_L, quantum_value_Q

rng = np.random.default_rng(5)

L_ICO = lhs_bound_L(icosahedron_settings())[0]


def test_nelder_mead_quadratic():
    x, f, iters = nelder_mead(lambda v: -np.sum((v - 3.0) ** 2), np.zeros(4))
    assert np.abs(x - 3.0).max() < 1e-4
    assert abs(f) < 1e-6
    assert iters < 5000


def test_nelder_mead_rosenbrock_2d():
    def f(v):
        return -((1 - v[0]) ** 2 + 100 * (v[1] - v[0] ** 2) ** 2)

    x, fbest, _ = nelder_mead(f, np.array([-1.2, 1.0]), NMParams(max_iter=10000))
    assert np.abs(x - 1.0).max() < 1e-3
    assert fbest > -1e-5


def test_nelder_mead_never_below_start():
    obj = lambda v: float(np.sin(v).sum() - 0.1 * np.dot(v, v))
    x0 = rng.standard_normal(5)
    _, f, _ = nelder_mead(obj, x0, NMParams(max_iter=50))
    assert f >= obj(x0) - 1e-12


def test_coeffs_to_state_parameterizations():
    s7 = coeffs_to_state(np.arange(1.0, 8.0))
    assert s7.c[7] == 0
    s8 = coeffs_to_state(np.arange(1.0, 9.0))
    assert np.isclose(s8.norm(), 1.0)
    s16 = coeffs_to_state(np.arange(16.0))
    assert abs(s16.c[0] - (0 + 1j) / np.linalg.norm(np.arange(16)[0::2] + 1j * np.arange(16)[1::2])) < 1e-12
    with pytest.raises(ValueError):
        coeffs_to_state(np.zeros(7))
    with pytest.raises(ValueError):
        coeffs_to_state(np.ones(5))


def test_objective_scenario1_matches_generic_path():
    """Fast Pauli closed form agrees with the trace-norm pipeline."""
    ico = icosahedron_settings()
    for _ in range(10):
        vec = rng.standard_normal(8)
        psi = coeffs_to_state(vec)
        rho_ab = reduce_pair(build_family(psi, 1.0), "AB")
        q_ab = quantum_value_Q(rho_ab, ico)[0]
        q_ba = quantum_value_Q(swap_state(rho_ab), ico)[0]
        expected = q_ab - 2.0 * max(0.0, q_ba - L_ICO)
        assert abs(objective_scenario1(vec) - expected) <= 1e-10


def test_objective_scenario1_at_builtin_optimum():
    c = builtin_state("sc1").c.real
    val = objective_scenario1(c[:7])  # c_111 = 0 for this state
    assert abs(val - 3.2687691792791314) < 1e-9


def test_objective_scenario2_full_signs():
    """Symmetric states earn no positive score (r2 - r1 <= bracket gap)."""
    params = RadiusParams(meas_level=0, hidden_level=1, bisection_tol=1e-2)
    val = objective_scenario2_full(builtin_state("ghz").c.real, radius_params=params)
    assert val < 0.5  # GHZ is symmetric; only bracket slack remains


def test_multi_restart_deterministic():
    spec = ObjectiveSpec(kind="scenario1", nm=NMParams(max_iter=60))
    log1, log2 = io.StringIO(), io.StringIO()
    r1 = multi_restart(spec, 4, seed=11, log_file=log1)
    r2 = multi_restart(spec, 4, seed=11, log_file=log2)
    assert log1.getvalue() == log2.getvalue()
    assert r1.best_q == r2.best_q
    assert np.array_equal(r1.best_coeffs, r2.best_coeffs)


def test_multi_restart_prefix_stability():
    """Restart i is seeded independently, so adding restarts never
    changes earlier records."""
    spec = ObjectiveSpec(kind="scenario1", nm=NMParams(max_iter=40))
    short = multi_restart(spec, 2, seed=3)
    longer = multi_restart(spec, 5, seed=3)
    for a, b in zip(short.records, longer.records):
        assert a.to_json_line() == b.to_json_line()
    assert longer.best_q >= short.best_q


def test_multi_restart_resume(tmp_path):
    spec = ObjectiveSpec(kind="scenario1", nm=NMParams(max_iter=40))
    log_path = tmp_path / "run.jsonl"
    with open(log_path, "w") as f:
        partial = multi_restart(spec, 2, seed=9, log_file=f)
    with open(log_path, "a") as f:
        resumed = multi_restart(spec, 4, seed=9, log_file=f, resume_path=log_path)
    full = multi_restart(spec, 4, seed=9)
    assert resumed.best_q == full.best_q
    lines = log_path.read_text().splitlines()
    assert [json.loads(l)["restart"] for l in lines] == [0, 1, 2, 3]
    assert lines == [r.to_json_line() for r in full.records]  # byte-identical replay


def test_multi_restart_resume_checks_only_replayed_records(tmp_path, monkeypatch):
    """Replay re-evaluates each replayed record once; a record past
    ``restarts`` is neither replayed nor re-evaluated."""
    spec = ObjectiveSpec(kind="scenario1", nm=NMParams(max_iter=40))
    log_path = tmp_path / "run.jsonl"
    with open(log_path, "w") as f:
        full = multi_restart(spec, 3, seed=9, log_file=f)
    lines = log_path.read_text().splitlines()
    lines[2] = json.dumps({**json.loads(lines[2]), "q": 99.0})
    log_path.write_text("\n".join(lines) + "\n")
    calls = []

    def counted(x, penalty):
        calls.append(x)
        return objective_scenario1(x, penalty)

    monkeypatch.setattr("cyclesteer.search.objective_scenario1", counted)
    resumed = multi_restart(spec, 2, seed=9, resume_path=log_path)
    assert resumed.records == full.records[:2]
    assert len(calls) == 2
    with pytest.raises(ResumeLogError, match="line 3 has q 99.0"):
        multi_restart(spec, 3, seed=9, resume_path=log_path)


@pytest.mark.parametrize("seed, spec", [
    (10, ObjectiveSpec(kind="scenario1", nm=NMParams(max_iter=40))),
    (9, ObjectiveSpec(kind="scenario1", parameterization="real-8", nm=NMParams(max_iter=40))),
])
def test_multi_restart_resume_rejects_other_campaign(tmp_path, seed, spec):
    """A log of another seed or parameterization is not replayed."""
    log_path = tmp_path / "run.jsonl"
    with open(log_path, "w") as f:
        multi_restart(ObjectiveSpec(kind="scenario1", nm=NMParams(max_iter=40)), 2, seed=9, log_file=f)
    with pytest.raises(ResumeLogError):
        multi_restart(spec, 2, seed=seed, resume_path=log_path)


def test_multi_restart_rejects_bad_counts():
    with pytest.raises(ValueError):
        multi_restart(ObjectiveSpec(), 0, seed=1)


def test_objective_spec_validation():
    with pytest.raises(ValueError):
        ObjectiveSpec(kind="scenario3")
    with pytest.raises(ValueError):
        ObjectiveSpec(parameterization="real-9")
    with pytest.raises(ValueError):
        ObjectiveSpec(scenario1_penalty=-1.0)
    assert ObjectiveSpec(parameterization="complex-16").dim == 16


def test_objectives_read_their_radius_params(monkeypatch):
    """scenario2_full brackets at its spec's radius; the prefilter always
    at _PREFILTER_PARAMS."""
    seen = []

    def spy(rho, params):
        seen.append(params)
        return SimpleNamespace(r_in=0.5, r_out=0.6)

    monkeypatch.setattr("cyclesteer.search.critical_radius_bounds", spy)
    radius = RadiusParams(meas_level=1, hidden_level=3, bisection_tol=5e-2)
    x = np.arange(1.0, 8.0)
    ObjectiveSpec(kind="scenario2_full", radius=radius).objective()(x)
    assert seen == [radius, radius]
    seen.clear()
    ObjectiveSpec(kind="scenario2_prefilter", radius=radius).objective()(x)
    ObjectiveSpec(kind="scenario2_prefilter").objective()(x)
    assert seen == [_PREFILTER_PARAMS] * 4


class _RecordingLog:
    """File-like log that records its calls."""

    def __init__(self):
        self.calls = []

    def write(self, text):
        self.calls.append(("write", text))

    def flush(self):
        self.calls.append(("flush", None))

    def lines(self):
        return [text.rstrip("\n") for call, text in self.calls if call == "write"]


@pytest.fixture(scope="module")
def two_stage_run():
    """A small two-stage campaign (3 prefilter restarts, top 2) and its log."""
    full = ObjectiveSpec(
        kind="scenario2_full", radius=RadiusParams(meas_level=0, hidden_level=0, bisection_tol=5e-2),
        nm=NMParams(max_iter=4),
    )
    log = _RecordingLog()
    return two_stage_search(full, restarts=3, seed=2, top_k=2, log_file=log), log


def test_two_stage_search_runs(two_stage_run):
    result, log = two_stage_run
    assert len(result.records) == 2
    assert np.isfinite(result.best_q)
    assert np.isclose(result.best_state.norm(), 1.0)
    # each record is one write followed by a flush
    assert [call for call, _ in log.calls] == ["write", "flush"] * 5
    stage1 = [json.loads(line) for line in log.lines()[:3]]
    assert [r["seed"] for r in stage1] == [[2, 0], [2, 1], [2, 2]]
    assert log.lines()[3:] == [r.to_json_line() for r in result.records]
    top = sorted(stage1, key=lambda r: r["q"], reverse=True)[:2]
    assert [r.seed for r in result.records] == [r["seed"] for r in top]


def test_resume_replays_prefilter_log(two_stage_run, tmp_path):
    """Prefilter records recompute bit for bit, so they replay unchanged."""
    lines = two_stage_run[1].lines()[:3]
    log_path = tmp_path / "prefilter.jsonl"
    log_path.write_text("\n".join(lines) + "\n")
    spec = ObjectiveSpec(kind="scenario2_prefilter", nm=NMParams(max_iter=4))
    resumed = multi_restart(spec, 3, seed=2, resume_path=log_path)
    assert [r.to_json_line() for r in resumed.records] == lines


def test_resume_rejects_prefilter_log_as_scenario1(two_stage_run, tmp_path):
    log_path = tmp_path / "prefilter.jsonl"
    log_path.write_text("\n".join(two_stage_run[1].lines()[:3]) + "\n")
    with pytest.raises(ResumeLogError, match="line 1 has q .* objective gives"):
        multi_restart(ObjectiveSpec(kind="scenario1"), 3, seed=2, resume_path=log_path)


def test_resume_rejects_two_stage_log_as_prefilter(two_stage_run, tmp_path):
    log_path = tmp_path / "two_stage.jsonl"
    log_path.write_text("\n".join(two_stage_run[1].lines()) + "\n")
    spec = ObjectiveSpec(kind="scenario2_prefilter", nm=NMParams(max_iter=4))
    with pytest.raises(ResumeLogError, match="line 4 "):
        multi_restart(spec, 3, seed=2, resume_path=log_path)
