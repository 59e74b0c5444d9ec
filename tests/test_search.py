import io
import json
from types import SimpleNamespace

import numpy as np
import pytest

from cyclesteer.lhs import RadiusParams
from cyclesteer.search import (
    _CONTRACTION,
    _EXPANSION,
    _INITIAL_STEP,
    _L_ICO,
    _PREFILTER_PARAMS,
    _REFLECTION,
    _S1_FORMS,
    _SHRINK,
    _SPREAD_TOL,
    PARAM_DIMS,
    NMParams,
    ObjectiveSpec,
    RestartRecord,
    ResumeLogError,
    coeffs_to_state,
    multi_restart,
    nelder_mead,
    objective_scenario1,
    objective_scenario2_full,
    two_stage_search,
)
from cyclesteer.states import builtin_state, build_family, reduce_pair
from cyclesteer.steering import icosahedron_settings, lhs_bound_L, quantum_value_Q
from cyclesteer.tolerances import TOL

rng = np.random.default_rng(5)

ICO = icosahedron_settings()
L_ICO = lhs_bound_L(ICO)[0]


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


@pytest.mark.parametrize("objective", [
    lambda v: -np.sum((v - 0.3) ** 2),
    lambda v: -np.floor(4 * np.abs(v - 0.3).sum()),  # plateaus: many ties
])
def test_nelder_mead_returns_first_best_evaluation(objective):
    """The returned f is the largest value over every evaluation and x the
    first point evaluated at it: a rejected point never beats the simplex's
    best vertex, shrinking keeps that vertex, and on ties the stable sort
    and argmin keep the older vertex first."""
    seen = []

    def spy(v):
        seen.append((v.copy(), objective(v)))
        return seen[-1][1]

    x, f, _ = nelder_mead(spy, np.zeros(3), NMParams(max_iter=300))
    assert f == max(value for _, value in seen)
    assert np.array_equal(x, next(point for point, value in seen if value == f))


def _reference_nelder_mead(objective, x0, params: NMParams = NMParams()):
    """The one-start simplex loop that the lockstep loop replaced, kept as
    the oracle: the lockstep loop must give every row these bits."""
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    simplex = np.vstack([x0, x0 + _INITIAL_STEP * np.eye(n)])
    fvals = np.array([-objective(x) for x in simplex])  # minimize -f internally
    iters = 0
    for iters in range(1, params.max_iter + 1):
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]
        if np.abs(simplex[1:] - simplex[0]).max() <= _SPREAD_TOL:
            break
        centroid = simplex[:-1].sum(axis=0) / n
        xr = centroid + _REFLECTION * (centroid - simplex[-1])
        fr = -objective(xr)
        if fr < fvals[0]:
            xe = centroid + _EXPANSION * (xr - centroid)
            fe = -objective(xe)
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = centroid + _CONTRACTION * (xr - centroid)
            else:
                xc = centroid + _CONTRACTION * (simplex[-1] - centroid)
            fc = -objective(xc)
            if fc < min(fr, fvals[-1]):
                simplex[-1], fvals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + _SHRINK * (simplex[i] - simplex[0])
                    fvals[i] = -objective(simplex[i])
    best = fvals.argmin()
    return simplex[best].copy(), -fvals[best], iters


@pytest.mark.parametrize("objective, x0, max_iter", [
    (lambda v: -np.sum((v - 3.0) ** 2), np.zeros(4), 5000),
    (lambda v: -((1 - v[0]) ** 2 + 100 * (v[1] - v[0] ** 2) ** 2), np.array([-1.2, 1.0]), 10000),
    (lambda v: -np.floor(4 * np.abs(v - 0.3).sum()), np.zeros(3), 300),  # plateaus: many ties
    (lambda v: float(np.sin(v).sum() - 0.1 * np.dot(v, v)), np.arange(5.0), 0),
    # NaN where sin(3v) sums above 1.5: min(fr, f_worst) as Python takes it at a NaN worst vertex
    (lambda v: np.nan if np.sin(3 * v).sum() > 1.5 else np.cos(5 * v).sum() - np.sum((v - 1.0) ** 2),
     np.array([-1.8434507525168389, -0.9154516513346783, 0.4403902469400988]), 100),
], ids=["quadratic", "rosenbrock", "plateaus", "max-iter-0", "nan-region"])
def test_nelder_mead_matches_reference_loop(objective, x0, max_iter):
    x, f, iters = nelder_mead(objective, x0, NMParams(max_iter=max_iter))
    x_ref, f_ref, iters_ref = _reference_nelder_mead(objective, x0, NMParams(max_iter=max_iter))
    assert (x.tobytes(), f.tobytes(), iters) == (x_ref.tobytes(), f_ref.tobytes(), iters_ref)


def _reference_log(spec: ObjectiveSpec, restarts: int, seed: int) -> list[str]:
    """The campaign's log lines by the reference loop, one restart at a time."""
    lines = []
    for i in range(restarts):
        x0 = np.random.default_rng([seed, i]).standard_normal(spec.dim)
        x, f, iters = _reference_nelder_mead(spec.objective(), x0, spec.nm)
        rec = RestartRecord(restart=i, seed=[seed, i], iters=iters, q=float(f), coeffs=[float(v) for v in x])
        lines.append(rec.to_json_line())
    return lines


def test_lockstep_campaign_matches_reference_loop(monkeypatch, tmp_path):
    """Restarts 0-11 of seed 7 at the default max_iter log the reference's
    bytes; their rows leave the stack at different iterations, and some
    run to max_iter. In lockstep blocks of 5 the log is the same, also
    when a --resume fills the gaps of a log holding restarts 1, 2, 7 and 11."""
    spec = ObjectiveSpec(kind="scenario1", parameterization="real-7")
    log = io.StringIO()
    multi_restart(spec, 12, seed=7, log_file=log)
    lines = log.getvalue().splitlines()
    assert lines == _reference_log(spec, 12, seed=7)
    iters = [json.loads(line)["iters"] for line in lines]
    assert len(set(iters)) > 2 and min(iters) < spec.nm.max_iter == max(iters)
    monkeypatch.setattr("cyclesteer.search._LOCKSTEP_BLOCK", 5)
    blocked = io.StringIO()
    multi_restart(spec, 12, seed=7, log_file=blocked)
    assert blocked.getvalue().splitlines() == lines
    kept = [1, 2, 7, 11]
    log_path = tmp_path / "run.jsonl"
    log_path.write_text("".join(lines[i] + "\n" for i in kept))
    with open(log_path, "a") as f:
        resumed = multi_restart(spec, 12, seed=7, log_file=f, resume_path=log_path)
    assert log_path.read_text().splitlines() == [lines[i] for i in kept] + [
        line for i, line in enumerate(lines) if i not in kept]
    assert [r.to_json_line() for r in resumed.records] == lines


@pytest.mark.parametrize("parameterization", ["real-8", "complex-16"])
def test_short_lockstep_campaign_matches_reference_loop(parameterization, monkeypatch):
    """Also where the simplex shrinks: another shrink factor changes the log."""
    spec = ObjectiveSpec(kind="scenario1", parameterization=parameterization, nm=NMParams(max_iter=300))
    log = io.StringIO()
    multi_restart(spec, 4, seed=7, log_file=log)
    assert log.getvalue().splitlines() == _reference_log(spec, 4, seed=7)
    monkeypatch.setattr("cyclesteer.search._SHRINK", 0.4)
    assert [r.to_json_line() for r in multi_restart(spec, 4, seed=7).records] != log.getvalue().splitlines()


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


def _pair_q(vec):
    """(Q_AB, Q_BA) by the generic path: build_family -> reduce_pair ->
    quantum_value_Q (eigendecomposition of each G_x)."""
    rho3 = build_family(coeffs_to_state(vec), 1.0)
    return tuple(quantum_value_Q(reduce_pair(rho3, pair), ICO)[0] for pair in ("AB", "BA"))


def _eigendecomposition_q(vec):
    """Scenario-1 objective by the generic path, at the penalty that
    perfbench's s1-search gate reads from its spec."""
    q_ab, q_ba = _pair_q(vec)
    return q_ab - ObjectiveSpec.scenario1_penalty * max(0.0, q_ba - L_ICO)


@pytest.mark.parametrize("parameterization", list(PARAM_DIMS))
def test_objective_scenario1_matches_generic_path(parameterization):
    """The closed-form quadratic kernel agrees with the trace-norm pipeline,
    on random coefficients and on the W state |001> + |010> + |100>, whose
    Q_BA = Q_AB = 3.42 exceeds L, so that its penalty term is not 0."""
    dim = PARAM_DIMS[parameterization]
    w = np.zeros(dim)
    w[np.array([1, 2, 4]) * (2 if dim == 16 else 1)] = 1.0  # complex-16 interleaves (re, im)
    assert _pair_q(w)[1] > L_ICO + 0.1
    for vec in [w, *rng.standard_normal((10, dim))]:
        assert abs(objective_scenario1(vec) - _eigendecomposition_q(vec)) <= 1e-10


def _reference_scenario1(x):
    """The one-vector kernel as it was before batching; logs written with it
    must replay bit for bit."""
    norm2 = float(x @ x)
    sq = (((_S1_FORMS[len(x)] @ x).reshape(-1, len(x)) @ x) ** 2).reshape(2, 6, 4)
    q_ab, q_ba = np.sqrt(np.maximum(sq[..., 0], sq[..., 1:].sum(axis=-1))).sum(axis=1) / norm2
    return float(q_ab - ObjectiveSpec.scenario1_penalty * max(0.0, q_ba - _L_ICO))


@pytest.mark.parametrize("parameterization", list(PARAM_DIMS))
@pytest.mark.parametrize("rows", [1, 2, 7, 64])
def test_objective_scenario1_batch_rows_match_one_vector(parameterization, rows):
    """Each row of a batch gets the bits it gets alone, which are the bits
    of the one-vector kernel before batching."""
    batch = rng.standard_normal((rows, PARAM_DIMS[parameterization])) * rng.uniform(1e-3, 1e3, (rows, 1))
    values = objective_scenario1(batch)
    assert values.shape == (rows,)
    singles = [objective_scenario1(x) for x in batch]
    assert values.tolist() == singles == [_reference_scenario1(x) for x in batch]


@pytest.mark.parametrize("parameterization", list(PARAM_DIMS))
def test_objective_scenario1_batch_rejects_any_zero_row(parameterization):
    batch = rng.standard_normal((5, PARAM_DIMS[parameterization]))
    batch[3] *= TOL.zero_norm / np.linalg.norm(batch[3]) / 8
    with pytest.raises(ValueError, match="cannot normalize the zero state"):
        coeffs_to_state(batch[3])
    with pytest.raises(ValueError, match="cannot normalize the zero state"):
        objective_scenario1(batch)


@pytest.mark.parametrize("parameterization", list(PARAM_DIMS))
@pytest.mark.parametrize("scale", [1e-3, 1e3, 2 * TOL.zero_norm])
def test_objective_scenario1_scale_invariant(parameterization, scale):
    vec = rng.standard_normal(PARAM_DIMS[parameterization])
    vec /= np.linalg.norm(vec)
    assert abs(objective_scenario1(scale * vec) - objective_scenario1(vec)) <= 1e-12


@pytest.mark.parametrize("vec", [np.zeros(7), np.full(16, TOL.zero_norm / 8), np.ones(5), np.full(7, np.nan),
                                 np.r_[np.inf, np.zeros(6)]],
                         ids=["zero", "below-zero-norm", "length-5", "nan", "inf"])
def test_objective_scenario1_rejects_what_coeffs_to_state_rejects(vec):
    with pytest.raises(ValueError):
        coeffs_to_state(vec)
    with pytest.raises(ValueError):
        objective_scenario1(vec)


@pytest.mark.parametrize("parameterization", list(PARAM_DIMS))
def test_scenario1_campaign_q_matches_eigendecomposition(parameterization):
    """Every logged q of a short campaign is the eigendecomposition value at
    its coeffs, the check the benchmark's s1-search gate makes."""
    spec = ObjectiveSpec(kind="scenario1", parameterization=parameterization, nm=NMParams(max_iter=60))
    log = io.StringIO()
    multi_restart(spec, 4, seed=7, log_file=log)
    records = [json.loads(line) for line in log.getvalue().splitlines()]
    assert len(records) == 4
    for rec in records:
        assert abs(rec["q"] - _eigendecomposition_q(rec["coeffs"])) <= 1e-9


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


def test_multi_restart_resume_fills_a_gap_in_restart_order(tmp_path):
    """A log holding restarts 0 and 2 resumes by appending 1, then 3."""
    spec = ObjectiveSpec(kind="scenario1", nm=NMParams(max_iter=40))
    full = [r.to_json_line() for r in multi_restart(spec, 4, seed=9).records]
    log_path = tmp_path / "run.jsonl"
    log_path.write_text(full[0] + "\n" + full[2] + "\n")
    with open(log_path, "a") as f:
        resumed = multi_restart(spec, 4, seed=9, log_file=f, resume_path=log_path)
    assert log_path.read_text().splitlines() == [full[0], full[2], full[1], full[3]]
    assert [r.to_json_line() for r in resumed.records] == full


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

    def counted(x):
        calls.append(x)
        return objective_scenario1(x)

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


def test_multi_restart_resume_rejects_negative_restart(tmp_path):
    """No campaign has a restart -1: a record of one with its seed and a q
    the objective reproduces is rejected, not dropped."""
    spec = ObjectiveSpec(kind="scenario1", nm=NMParams(max_iter=40))
    coeffs = [1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0]
    rec = {"restart": -1, "seed": [3, -1], "iters": 1, "q": spec.objective()(np.array(coeffs)), "coeffs": coeffs}
    log_path = tmp_path / "run.jsonl"
    log_path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ResumeLogError, match="line 1 has restart -1"):
        multi_restart(spec, 2, seed=3, resume_path=log_path)


def test_multi_restart_rejects_bad_counts(monkeypatch):
    """A restart count is an int >= 1 (True ran one restart, 2.5 raised
    TypeError from range), a seed an int >= 0 (True ran and logged [true, 0],
    -1 and 1.5 failed inside numpy), each checked before any restart runs."""
    for restarts in (0, True, 2.5):
        with pytest.raises(ValueError, match=f"^restarts {restarts!r} is not an integer >= 1"):
            multi_restart(ObjectiveSpec(), restarts, seed=1)
    monkeypatch.setattr("cyclesteer.search._run_restarts", lambda *args: pytest.fail("a restart ran"))
    for seed in (True, -1, 1.5):
        with pytest.raises(ValueError, match=f"^seed {seed!r} is not an integer >= 0"):
            multi_restart(ObjectiveSpec(), 1, seed)
        with pytest.raises(ValueError, match=f"^seed {seed!r} is not an integer >= 0"):
            two_stage_search(ObjectiveSpec(kind="scenario2_full"), 1, seed)


def test_objective_spec_validation():
    with pytest.raises(ValueError):
        ObjectiveSpec(kind="scenario3")
    with pytest.raises(ValueError):
        ObjectiveSpec(parameterization="real-9")
    # -3 ran 0 iterations and 1.5 raised TypeError from range; 0 stays valid
    for max_iter in (-3, 1.5, True):
        with pytest.raises(ValueError, match=f"^max_iter {max_iter!r} is not an integer >= 0"):
            ObjectiveSpec(nm=NMParams(max_iter=max_iter))
    assert NMParams(max_iter=0).max_iter == 0
    assert ObjectiveSpec(parameterization="complex-16").dim == 16


def test_objectives_read_their_radius_params(monkeypatch):
    """scenario2_full brackets at its spec's radius; the prefilter always
    at _PREFILTER_PARAMS."""
    seen = []

    def spy(rho, params):
        seen.append(params)
        return SimpleNamespace(r_in=0.5, r_out=0.6)

    monkeypatch.setattr("cyclesteer.lhs.critical_radius_bounds", spy)
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
    """A small two-stage campaign (4 prefilter restarts, top 3) and its log."""
    full = ObjectiveSpec(
        kind="scenario2_full", radius=RadiusParams(meas_level=0, hidden_level=0, bisection_tol=5e-2),
        nm=NMParams(max_iter=4),
    )
    log = _RecordingLog()
    return two_stage_search(full, restarts=4, seed=2, log_file=log), log


def test_two_stage_search_runs(two_stage_run):
    result, log = two_stage_run
    assert len(result.records) == 3
    assert np.isfinite(result.best_q)
    assert np.isclose(result.best_state.norm(), 1.0)
    # each record is one write followed by a flush
    assert [call for call, _ in log.calls] == ["write", "flush"] * 7
    stage1 = [json.loads(line) for line in log.lines()[:4]]
    assert [r["seed"] for r in stage1] == [[2, 0], [2, 1], [2, 2], [2, 3]]
    assert log.lines()[4:] == [r.to_json_line() for r in result.records]
    top = sorted(stage1, key=lambda r: r["q"], reverse=True)[:3]
    assert [r.seed for r in result.records] == [r["seed"] for r in top]


def test_resume_replays_prefilter_log(two_stage_run, tmp_path):
    """Prefilter records recompute bit for bit, so they replay unchanged."""
    lines = two_stage_run[1].lines()[:4]
    log_path = tmp_path / "prefilter.jsonl"
    log_path.write_text("\n".join(lines) + "\n")
    spec = ObjectiveSpec(kind="scenario2_prefilter", nm=NMParams(max_iter=4))
    resumed = multi_restart(spec, 4, seed=2, resume_path=log_path)
    assert [r.to_json_line() for r in resumed.records] == lines


def test_resume_rejects_prefilter_log_as_scenario1(two_stage_run, tmp_path):
    log_path = tmp_path / "prefilter.jsonl"
    log_path.write_text("\n".join(two_stage_run[1].lines()[:4]) + "\n")
    with pytest.raises(ResumeLogError, match="line 1 has q .* objective gives"):
        multi_restart(ObjectiveSpec(kind="scenario1"), 4, seed=2, resume_path=log_path)


def test_resume_rejects_two_stage_log_as_prefilter(two_stage_run, tmp_path):
    log_path = tmp_path / "two_stage.jsonl"
    log_path.write_text("\n".join(two_stage_run[1].lines()) + "\n")
    spec = ObjectiveSpec(kind="scenario2_prefilter", nm=NMParams(max_iter=4))
    with pytest.raises(ResumeLogError, match="line 5 "):
        multi_restart(spec, 4, seed=2, resume_path=log_path)
