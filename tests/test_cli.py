import json

import numpy as np
import pytest

from cyclesteer import lhs, search, steering
from cyclesteer.cli import main
from cyclesteer.states import state_to_json, werner


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


def test_bad_family_p_in_state_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"type": "three_qubit_family", "c": [[1, 0]] * 8, "p": 1.5}))
    assert main(["scenario1", "--state", str(path)]) == 2


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
    ["search", "--scenario", "1", "--restarts", "1", "--hidden-level", "9"],
    ["search", "--scenario", "1", "--restarts", "1", "--tol", "5"],
    ["search", "--scenario", "2", "--stage", "prefilter", "--restarts", "1",
     "--hidden-level", "5", "--tol", "0.3"],
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


def test_calibrate_command(capsys):
    code, data = run(capsys, "calibrate", "--tol", "2e-2")
    assert code == 0
    assert data["brackets_contain_known_thresholds"] is True
    lo, hi = data["entanglement_threshold_bracket"]
    assert lo <= 1 / 3 <= hi and hi - lo < 1e-3
    rlo, rhi = data["steering_radius_bracket"]
    assert rlo <= 0.5 <= rhi
