import json

import numpy as np
import pytest

from cyclesteer import lhs, search, steering
from cyclesteer.cli import main
from cyclesteer.linalg import DensityMatrix
from cyclesteer.polytope import antipodal_directions, sphere_polytope
from cyclesteer.states import builtin_state, state_to_json, werner


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_scenario1_builtin_sc1(capsys, tmp_path):
    fig = tmp_path / "fig.csv"
    code, data = run(capsys, "scenario1", "--state", "builtin:sc1",
                     "--fig-data", str(fig))
    assert code == 0
    assert data["verdict"] == "one-way"
    assert abs(data["L"] - (1 + np.sqrt(5))) < 1e-6
    assert abs(data["Q_AB"] - 3.26876918) < 1e-6
    assert abs(data["Q_BA"] - 3.23602644) < 1e-6
    assert abs(data["negativity"] - 0.151688698) < 1e-6
    assert data["violated"] == {"A_to_B": True, "B_to_A": False}
    lines = fig.read_text().splitlines()
    assert lines[0] == "party,setting,sign,x,y,z"
    assert len(lines) == 1 + 24  # 6 settings x 2 parties x 2 signs


def test_scenario1_ghz_not_one_way(capsys):
    code, data = run(capsys, "scenario1", "--state", "builtin:ghz")
    assert code == 1
    assert data["verdict"] != "one-way"


def test_scenario1_state_file(capsys, tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(state_to_json(werner(0.9))))
    code, data = run(capsys, "scenario1", "--state", str(path))
    assert code == 1  # two-way violation for a symmetric state
    assert data["verdict"] in ("symmetric", "two-way", "none")


def test_missing_state_file_is_input_error(capsys):
    code = main(["scenario1", "--state", "/nonexistent/state.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert "not found" in err


def test_unknown_builtin_is_input_error(capsys):
    assert main(["scenario1", "--state", "builtin:xyz"]) == 2


@pytest.mark.parametrize("argv", [
    ["scenario1", "--state", "builtin:sc1", "--p", "1.5"],
    ["scenario1", "--state", "builtin:sc1", "--p", "-0.1"],
    ["radius", "--state", "builtin:sc1", "--meas-level", "-1"],
    ["radius", "--state", "builtin:sc1", "--hidden-level", "-1"],
    ["radius", "--state", "builtin:sc1", "--tol", "-1"],
    ["radius", "--state", "builtin:b1", "--tol", "0"],
    ["scenario2", "--state", "builtin:b1", "--tol", "inf"],
    ["calibrate", "--tol", "nan"],
    ["search", "--scenario", "1", "--restarts", "0"],
    ["search", "--scenario", "1", "--seed", "-1"],
    ["scenario1", "--state", "builtin:sc1", "--tol", "1e-3"],
    ["calibrate", "--werner"],
])
def test_bad_option_values_are_input_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["scenario2", "--state", "builtin:b1", "--hidden-level", "5"],
    ["radius", "--state", "builtin:b1", "--meas-level", "2", "--hidden-level", "0", "--tol", "0.01"],
    ["search", "--scenario", "2", "--restarts", "1", "--meas-level", "2"],
], ids=["hidden-5", "meas-2", "search-meas-2"])
def test_levels_past_their_bound_are_input_errors(argv, capsys, monkeypatch):
    """A hidden level above polytope.MAX_LEVEL, or a measurement level with
    more directions than the exact kernel enumerates (m = 81 > MAX_ENUM_SETTINGS),
    is rejected when parsed, before any polytope is built or LP runs, with
    the command's own usage line."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the options were checked")

    assert len(antipodal_directions(sphere_polytope(2))) > steering.MAX_ENUM_SETTINGS
    monkeypatch.setattr(lhs, "linprog", no_work)
    monkeypatch.setattr("cyclesteer.polytope._build", no_work)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: cyclesteer {argv[0]} ") and "is not an integer in [0, " in err


def test_bad_family_p_in_state_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"type": "three_qubit_family", "c": [[1, 0]] * 8, "p": 1.5}))
    assert main(["scenario1", "--state", str(path)]) == 2


@pytest.mark.parametrize("content", [
    {"type": "three_qubit_family", "c": [1, 2, 3, 4, 5, 6, 7, 8]},
    [1, 2],
    {"type": "density_matrix", "dims": 2, "re": np.eye(4).tolist(), "im": np.zeros((4, 4)).tolist()},
    {"type": "three_qubit_family", "c": [[1, 0]] * 8, "p": None},
    {"type": "three_qubit_family", "c": [[True, 0]] + [[0, 0]] * 7},
    None,  # a directory
], ids=["c-not-pairs", "top-level-list", "dims-not-list", "p-null", "c-boolean", "directory"])
def test_malformed_state_file_is_input_error(tmp_path, capsys, content):
    path = tmp_path / "s.json"
    if content is None:
        path.mkdir()
    else:
        path.write_text(json.dumps(content))
    assert main(["scenario1", "--state", str(path)]) == 2
    assert "state file" in capsys.readouterr().err


@pytest.mark.parametrize("mat,dims,message", [
    (np.full((2, 3), 1 / 6), [2, 3], "matrix must be square, got (2, 3)"),
    (np.eye(16) / 16, [2, 2, 2, 2], "dimension 16 exceeds supported maximum 8"),
    (np.eye(8) / 8, [4, 2], "unsupported state dims (4, 2)"),
], ids=["not-square", "too-large", "dims-4-2"])
def test_unsupported_density_matrix_file_is_input_error(tmp_path, capsys, mat, dims, message):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"type": "density_matrix", "dims": dims, "re": mat.tolist(),
                                "im": np.zeros_like(mat).tolist()}))
    assert main(["radius", "--state", str(path)]) == 2
    assert message in capsys.readouterr().err


def _matrix_file(i, value):
    re = (np.eye(4) / 4).tolist()
    re[i][i] = value
    return {"type": "density_matrix", "dims": [2, 2], "re": re, "im": np.zeros((4, 4)).tolist()}


def _family_file(x, a, value):
    c = [[1, 0] for _ in range(8)]
    c[x][a] = value
    return {"type": "three_qubit_family", "c": c}


@pytest.mark.parametrize("content,message", [
    (_matrix_file(0, float("nan")), "expected re as a matrix of finite numbers, got nan at [0][0]"),
    (_family_file(0, 0, float("nan")), "expected c as 8 [re, im] pairs of finite numbers, got nan at [0][0]"),
    (_matrix_file(3, float("nan")), "expected re as a matrix of finite numbers, got nan at [3][3]"),
    (_matrix_file(3, True), "expected re as a matrix of finite numbers, got True at [3][3]"),
    (_family_file(7, 1, "x"), "expected c as 8 [re, im] pairs of finite numbers, got 'x' at [7][1]"),
], ids=["density-matrix-nan", "family-nan", "density-matrix-last-nan", "density-matrix-last-true",
        "family-last-string"])
@pytest.mark.parametrize("command", ["radius", "scenario1"])
def test_non_finite_state_file_is_input_error(tmp_path, capsys, content, message, command):
    """json reads the literal NaN; a state file holding one, or a boolean or
    a string among its numbers, is an input error that names its field and
    the first bad entry, not a fault in the linear algebra."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps(content))
    assert main([command, "--state", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"\xff\xfe not utf-8\n"),
], ids=["directory", "not-utf-8"])
def test_unreadable_resume_log_is_input_error(tmp_path, capsys, make):
    log = tmp_path / "log.jsonl"
    make(log)
    assert main(["search", "--scenario", "1", "--restarts", "1", "--resume", str(log)]) == 2
    assert "cannot be read" in capsys.readouterr().err


def test_malformed_resume_log_is_input_error(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    log.write_text('{"restart": 0, "seed": [0, 0]\n')  # truncated record
    assert main(["search", "--scenario", "1", "--restarts", "1", "--resume", str(log)]) == 2


_RECORD = {"restart": 0, "seed": [0, 0], "iters": 1, "q": 1.0, "coeffs": [1, 0, 0, 0, 0, 0, 0]}


@pytest.mark.parametrize("line", ['{"foo": 1}', "[1, 2]", '{"restart": 0}'] + [
    json.dumps({**_RECORD, field: value}) for field, value in [
        ("q", "3.2"), ("q", float("nan")), ("q", float("inf")), ("iters", 1.5), ("iters", True),
        ("coeffs", [1.0, "x", 0, 0, 0, 0, 0]), ("coeffs", 1.0),
    ]
])
def test_resume_log_without_records_is_input_error(tmp_path, capsys, line):
    log = tmp_path / "log.jsonl"
    log.write_text(line + "\n")
    assert main(["search", "--scenario", "1", "--restarts", "1", "--resume", str(log)]) == 2
    assert "not a restart record" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--seed", "8"], "seed [7, 0], not [8, 0]"),
    (["--seed", "7", "--parameterization", "real-8"], "does not hold 8 coefficients"),
])
def test_resume_log_of_another_campaign_is_input_error(tmp_path, capsys, argv, message):
    """A seed-7 real-7 log cannot be resumed as another campaign, and the
    matching campaign replays it unchanged."""
    log = tmp_path / "log.jsonl"
    assert main(["search", "--scenario", "1", "--restarts", "2", "--seed", "7", "--out", str(log)]) == 0
    first = capsys.readouterr().out
    code = main(["search", "--scenario", "1", "--restarts", "2", "--resume", str(log), *argv])
    assert code == 2
    assert message in capsys.readouterr().err
    replay = tmp_path / "replay.jsonl"
    assert main(["search", "--scenario", "1", "--restarts", "2", "--seed", "7",
                 "--resume", str(log), "--out", str(replay)]) == 0
    assert capsys.readouterr().out == first
    assert not replay.exists() or replay.read_text() == ""


@pytest.mark.parametrize("argv", [
    ["search", "--scenario", "1", "--stage", "prefilter", "--restarts", "1"],
    ["search", "--scenario", "1", "--stage", "two-stage", "--restarts", "1"],
    ["search", "--scenario", "2", "--stage", "two-stage", "--restarts", "1", "--resume", "{log}"],
    ["search", "--scenario", "1", "--restarts", "1", "--meas-level", "0"],
    ["search", "--scenario", "1", "--restarts", "1", "--hidden-level", "3"],
    ["search", "--scenario", "1", "--restarts", "1", "--tol", "5"],
    ["search", "--scenario", "2", "--stage", "prefilter", "--restarts", "1",
     "--hidden-level", "4", "--tol", "0.3"],
])
def test_ignored_search_options_are_input_errors(argv, tmp_path, capsys, monkeypatch):
    """Option combinations search would ignore are rejected before any work."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the options were checked")

    monkeypatch.setattr("cyclesteer.search.multi_restart", no_work)
    monkeypatch.setattr("cyclesteer.search.two_stage_search", no_work)
    argv = [a.format(log=tmp_path / "log.jsonl") for a in argv]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


class _Stop(Exception):
    pass


def _spy(seen):
    def record(*args, **kwargs):
        seen.append((args, kwargs))
        raise _Stop

    return record


@pytest.mark.parametrize("argv, target", [
    (["scenario2", "--state", "builtin:b1"], "one_way_report"),
    (["radius", "--state", "builtin:b1"], "critical_radius_bounds"),
    (["calibrate"], "critical_radius_bounds"),
])
def test_radius_options_default_to_radius_params(argv, target, monkeypatch):
    seen = []
    monkeypatch.setattr(lhs, target, _spy(seen))
    with pytest.raises(_Stop):
        main(argv)
    assert seen[0][0][-1] == lhs.RadiusParams()


@pytest.mark.parametrize("stage, target", [("full", "multi_restart"), ("two-stage", "two_stage_search")])
@pytest.mark.parametrize("radius_argv, radius", [
    ([], lhs.RadiusParams()),
    (["--meas-level", "1", "--hidden-level", "3", "--tol", "0.05"],
     lhs.RadiusParams(meas_level=1, hidden_level=3, bisection_tol=0.05)),
])
def test_search_passes_radius_options_to_full_stage(stage, target, radius_argv, radius, monkeypatch):
    seen = []
    monkeypatch.setattr(search, target, _spy(seen))
    with pytest.raises(_Stop):
        main(["search", "--scenario", "2", "--stage", stage, "--restarts", "1", *radius_argv])
    spec = seen[0][0][0]
    assert spec.kind == "scenario2_full"
    assert spec.radius == radius


@pytest.mark.parametrize("field, value, message", [
    ("q", 99.0, "but this campaign's objective gives"),
    ("coeffs", [1e-20] + [0] * 6, "not all zero"),
])
def test_resume_record_the_objective_does_not_give_is_input_error(tmp_path, capsys, field, value, message):
    """A record is replayed only when its q is the campaign's objective at its coeffs."""
    log = tmp_path / "log.jsonl"
    log.write_text(json.dumps({**_RECORD, field: value}) + "\n")
    assert main(["search", "--scenario", "1", "--restarts", "1", "--resume", str(log)]) == 2
    assert message in capsys.readouterr().err


def test_resume_replays_integer_coefficients(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    coeffs = [1, 0, 0, 0, 0, 1, 0]
    q = search.objective_scenario1(np.array(coeffs, dtype=float))
    log.write_text(json.dumps({"restart": 0, "seed": [3, 0], "iters": 1, "q": q, "coeffs": coeffs}) + "\n")
    code, data = run(capsys, "search", "--scenario", "1", "--restarts", "1", "--seed", "3",
                     "--resume", str(log))
    assert code == 0
    assert data["best_q"] == float(f"{q:.9g}")
    assert data["best_coeffs"] == [1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]


@pytest.mark.parametrize("argv", [
    ["table", "--out", "{missing}/x.json"],
    ["table", "--out", "{dir}"],
    ["scenario1", "--state", "builtin:sc1", "--fig-data", "{missing}/fig.csv"],
    ["search", "--scenario", "1", "--restarts", "1", "--best-out", "{missing}/b.json"],
    ["search", "--scenario", "1", "--restarts", "1", "--out", "{missing}/log.jsonl"],
])
def test_unwritable_output_is_input_error(argv, tmp_path, capsys, monkeypatch):
    """An output path that cannot be written is rejected before the work."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr(steering, "quantum_value_Q", no_work)
    monkeypatch.setattr(steering, "one_way_gap_scenario1", no_work)
    monkeypatch.setattr("cyclesteer.search.multi_restart", no_work)
    argv = [a.format(missing=tmp_path / "missing", dir=tmp_path) for a in argv]
    assert main(argv) == 2
    assert "cannot write" in capsys.readouterr().err


def test_internal_value_error_is_not_an_input_error(monkeypatch):
    """An internal fault propagates (exit 1 from the interpreter), it is
    not reported as exit 2."""
    def broken(*args):
        raise ValueError("internal fault")

    monkeypatch.setattr(steering, "one_way_gap_scenario1", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["scenario1", "--state", "builtin:sc1"])


def test_radius_werner(capsys):
    code, data = run(capsys, "radius", "--state", "builtin:ghz", "--p", "0.9",
                     "--hidden-level", "1", "--tol", "5e-2", "--pair", "AB")
    assert code == 0
    assert 0 <= data["r_in"] <= data["r_out"] <= data["t_cap"]
    assert data["hidden_polytope_level"] == 1


@pytest.mark.parametrize("command", ["radius", "scenario2", "scenario1"])
def test_p_with_density_matrix_file_is_input_error(command, tmp_path, capsys, monkeypatch):
    """--p sets a pure-state family's weight; a density-matrix file has none,
    so it is rejected before any work rather than ignored."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --p was checked")

    monkeypatch.setattr(lhs, "critical_radius_bounds", no_work)
    monkeypatch.setattr(steering, "one_way_gap_scenario1", no_work)
    path = tmp_path / "singlet.json"
    path.write_text(json.dumps(state_to_json(werner(1.0))))
    assert main([command, "--state", str(path), "--p", "0.3"]) == 2
    assert "--p" in capsys.readouterr().err


def test_main_keeps_no_option_of_the_call_before(capsys):
    """The parser is built once per process; a call's options do not carry
    over into the next: radius --pair BA, then radius reports AB."""
    args = ["radius", "--state", "builtin:b1", "--tol", "5e-2"]
    _, ba = run(capsys, *args, "--pair", "BA")
    _, ab = run(capsys, *args)
    _, ab_again = run(capsys, *args, "--pair", "AB")
    assert ab == ab_again != ba


def test_scenario2_report(capsys):
    code, data = run(capsys, "scenario2", "--state", "builtin:ghz",
                     "--hidden-level", "1", "--tol", "5e-2")
    assert code == 0
    assert data["verdict"] in (
        "certified-cyclic", "refuted", "undetermined-at-this-resolution"
    )
    assert data["delta"] == pytest.approx(data["R2_in_BA"] - data["R1_out_AB"], abs=1e-9)


def test_entanglement_command(capsys):
    code, data = run(capsys, "entanglement", "--state", "builtin:b3")
    assert code == 0
    assert data["gte"]["detected"] is True
    assert data["negativity_reduced_AB"] > 0


def test_entanglement_rejects_two_qubit_file(capsys, tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(state_to_json(werner(0.5))))
    assert main(["entanglement", "--state", str(path)]) == 2


def test_search_command_and_best_out(capsys, tmp_path):
    log = tmp_path / "log.jsonl"
    best = tmp_path / "best.json"
    code, data = run(capsys, "search", "--scenario", "1", "--restarts", "3",
                     "--seed", "4", "--out", str(log), "--best-out", str(best))
    assert code == 0
    assert data["restarts"] == 3
    assert len(log.read_text().splitlines()) == 3
    saved = json.loads(best.read_text())
    assert saved["type"] == "three_qubit_family"
    # rerunning with --resume replays the log without changing the result
    code2, data2 = run(capsys, "search", "--scenario", "1", "--restarts", "3",
                       "--seed", "4", "--resume", str(log))
    assert data2["best_q"] == data["best_q"]


def test_table_command(capsys):
    code, data = run(capsys, "table")
    assert code == 0
    assert set(data["states"]) == {"sc1", "b1", "b2", "b3", "w", "ghz"}
    assert data["states"]["ghz"]["gte"]["detected"] is True
    assert data["states"]["sc1"]["Q_AB"] > data["L"]


def test_calibrate_command(capsys, monkeypatch):
    """One locator run brackets the Werner thresholds, and the decisions
    flip inside its finite-setting bracket: Werner(p) is the singlet's
    radial mix at t = p."""
    solve, calls = lhs._solve, []
    monkeypatch.setattr(lhs, "_solve", lambda *a, **k: calls.append(a) or solve(*a, **k))
    code, data = run(capsys, "calibrate", "--tol", "2e-2")
    assert code == 0
    assert len(calls) == 1
    assert data["brackets_contain_known_thresholds"] is True
    lo, hi = data["entanglement_threshold_bracket"]
    assert lo <= 1 / 3 <= hi and hi - lo < 1e-3
    rlo, rhi = data["steering_radius_bracket"]
    assert rlo <= 0.5 <= rhi
    lo, hi = data["finite_setting_threshold_bracket"]
    assert rlo < lo <= hi == rhi
    rep = lhs.critical_radius_bounds(werner(1.0), lhs.RadiusParams(bisection_tol=2e-2))
    assert lo == float(f"{rep.t_in:.9g}")  # the certified t, not r_in / meas_eta
    meas, hidden = sphere_polytope(0), sphere_polytope(2)
    directions = antipodal_directions(meas)
    assert lhs.detect_steerable(werner(hi + 1e-4), directions, hidden)[0]
    assert not lhs.detect_steerable(werner(lo - 1e-4), directions, hidden)[0]
    assert lhs.certify_unsteerable_shrunk(werner(lo - 1e-4), meas, hidden)
    assert not lhs.certify_unsteerable_shrunk(werner(hi + 1e-4), meas, hidden)


def test_out_writes_what_stdout_gets(capsys, tmp_path):
    out = tmp_path / "report.json"
    assert main(["scenario2", "--state", "builtin:b1"]) == 0
    printed = capsys.readouterr().out
    assert main(["scenario2", "--state", "builtin:b1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed


def test_family_state_file_matches_builtin(capsys, tmp_path):
    """A family file's --p overrides its own p, and its coefficients are normalized on load."""
    path = tmp_path / "sc1.json"
    path.write_text(json.dumps(state_to_json(builtin_state("sc1"), 0.5)))
    assert main(["scenario1", "--state", "builtin:sc1"]) == 0
    builtin = capsys.readouterr().out
    assert main(["scenario1", "--state", str(path), "--p", "1"]) == 0
    assert capsys.readouterr().out == builtin


class _StalledHighs(lhs._Highs):
    """HiGHS allowed no simplex iteration, so it ends with status "Iteration limit reached"."""

    def run(self):
        self.setOptionValue("simplex_iteration_limit", 0)
        return super().run()


def test_lp_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(lhs, "_Highs", _StalledHighs)
    assert main(["radius", "--state", "builtin:b1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("LP failure: LP solver status")


def test_radius_writes_only_its_report(capfd):
    """At the file descriptors, not just sys.stdout: the report JSON is all
    of fd 1 and nothing reaches fd 2, so no solver console output leaks."""
    assert main(["radius", "--state", "builtin:b1"]) == 0
    captured = capfd.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["r_in"] > 0  # one JSON document and nothing else


def test_missing_resume_log_starts_fresh(tmp_path, capsys):
    fresh, resumed = tmp_path / "fresh.jsonl", tmp_path / "resumed.jsonl"
    argv = ["search", "--scenario", "1", "--restarts", "2", "--seed", "5"]
    assert main([*argv, "--out", str(fresh)]) == 0
    printed = capsys.readouterr().out
    assert main([*argv, "--resume", str(tmp_path / "missing.jsonl"), "--out", str(resumed)]) == 0
    assert capsys.readouterr().out == printed
    assert resumed.read_text() == fresh.read_text()
    assert len(fresh.read_text().splitlines()) == 2


def test_certify_exits_1_when_refuted(tmp_path, capsys):
    """The maximally mixed state stays I/4 along the radial family, so
    r_in(AB) = meas_eta t_cap = 2 meas_eta >= 1 refutes the cyclic property."""
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(state_to_json(DensityMatrix(np.eye(4) / 4, (2, 2)))))
    code, data = run(capsys, "scenario2", "--state", str(path))
    assert code == 0
    assert data["verdict"] == "refuted"
    assert data["rho_AB"]["r_in"] == pytest.approx(2 * data["rho_AB"]["meas_eta"])
    assert main(["scenario2", "--state", str(path), "--certify"]) == 1


def _radius_report(t_in, r_out, detected):
    return lhs.RadiusReport(t_in=t_in, r_out=r_out, t_cap=2.0, steerable_detected=detected,
                            params=lhs.RadiusParams(), meas_eta=1.0)


@pytest.mark.parametrize("ab,ba,verdict,code", [
    ((0.0, 0.9, True), (1.0, 2.0, False), "certified-cyclic", 0),
    ((1.0, 2.0, False), (0.0, 2.0, False), "refuted", 1),
    ((0.0, 2.0, False), (0.0, 0.9, True), "refuted", 1),
    ((0.0, 0.9, True), (0.99, 2.0, False), "undetermined-at-this-resolution", 0),
    ((0.0, 1.0, True), (1.0, 2.0, False), "undetermined-at-this-resolution", 0),
], ids=["cyclic", "ab-unsteerable", "ba-steerable", "ba-r-in-below-1", "ab-r-out-at-1"])
def test_scenario2_verdicts(monkeypatch, capsys, ab, ba, verdict, code):
    """one_way_report's verdict from its two brackets, (t_in, r_out,
    steerable_detected) for AB and then BA at meas_eta 1, and --certify's
    exit code on it: 1 only on refuted."""
    reports = iter([_radius_report(*ab), _radius_report(*ba)])
    monkeypatch.setattr(lhs, "critical_radius_bounds", lambda rho, params: next(reports))
    got, data = run(capsys, "scenario2", "--state", "builtin:b1", "--certify")
    assert (got, data["verdict"]) == (code, verdict)
    assert (data["R1_out_AB"], data["R2_in_BA"]) == (ab[1], ba[0])


def test_scenario1_verdict_none(tmp_path, capsys):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(state_to_json(DensityMatrix(np.diag([0.4, 0.1, 0.3, 0.2]), (2, 2)))))
    code, data = run(capsys, "scenario1", "--state", str(path))
    assert code == 1
    assert data["verdict"] == "none"
    assert data["Q_AB"] == pytest.approx(1.101, abs=1e-3)
    assert data["Q_BA"] == pytest.approx(0.551, abs=1e-3)
