"""scripts/reports.py: the names it reads from the package resolve, it exits 1
when a bracket raises LpFailure, and ``compare`` reports each way two report
directories differ.

The script is loaded by path, as a script; one test runs three m = 6
brackets, the others none.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

_REPORTS_PATH = Path(__file__).resolve().parents[1] / "scripts" / "reports.py"


def _load_reports():
    spec = importlib.util.spec_from_file_location("reports_script", _REPORTS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reports = _load_reports()


def _package_names():
    """Each dotted name the script reads or assigns on a package module it
    imports (``lhs._Highs``, ``search._reduced_pair``, ...), in full."""
    tree = ast.parse(_REPORTS_PATH.read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module == "cyclesteer" for alias in node.names}
    names = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            names.add(".".join([node.id, *chain]))
    return sorted(names)


@pytest.mark.parametrize("dotted", _package_names())
def test_script_names_resolve(dotted):
    """A rename in the package fails here, not only when someone runs the
    script; a patched name (``lhs._Highs``) that is gone would be patched in
    silently and count nothing."""
    module, *path = dotted.split(".")
    obj = getattr(reports, module)
    for attr in path:
        assert hasattr(obj, attr), f"{dotted}: no {attr!r}"
        obj = getattr(obj, attr)


def test_private_names_are_covered():
    assert {"lhs._Highs", "lhs.max_over_strategies", "lhs.HighsModelStatus.kOptimal", "search._PREFILTER_PARAMS",
            "search._reduced_pair", "cli._resolve_pair"} <= set(_package_names())


def _stand_ins(monkeypatch, bracket):
    """One state per bracket set, no CLI report or search log, and ``bracket``
    in place of lhs.critical_radius_bounds; returns lhs's patched names as
    they are before main runs."""
    lhs = reports.lhs
    originals = lhs._Highs, lhs.max_over_strategies
    monkeypatch.setattr(lhs, "_Highs", lhs._Highs)  # put back even if main does not
    monkeypatch.setattr(lhs, "max_over_strategies", lhs.max_over_strategies)
    monkeypatch.setattr(reports, "_command", lambda argv, out: None)
    monkeypatch.setattr(reports, "_search_logs", lambda outdir: None)
    monkeypatch.setattr(reports, "COARSE_STATES", 1)
    monkeypatch.setattr(reports, "SWEEP_STATES", 1)
    monkeypatch.setattr(lhs, "critical_radius_bounds", bracket)
    return originals


@pytest.mark.parametrize("fails, code", [(False, 0), (True, 1)])
def test_main_exits_1_when_a_bracket_raises_lp_failure(tmp_path, monkeypatch, capsys, fails, code):
    """With a stand-in bracket; main's counting patch is undone when it returns."""
    lhs = reports.lhs

    def bracket(rho, params):
        if fails and params == reports.SWEEP_PARAMS["default"]:
            raise lhs.LpFailure("stand-in")
        return lhs.RadiusReport(t_in=0.5, r_out=0.75, t_cap=1.0, steerable_detected=True, params=params)

    originals = _stand_ins(monkeypatch, bracket)
    assert reports.main(tmp_path / "out") == code
    assert (lhs._Highs, lhs.max_over_strategies) == originals
    out = capsys.readouterr().out
    assert ("2 brackets raised LpFailure" in out) == fails
    assert (tmp_path / "out" / "sweep.txt").read_text().count("LpFailure") == 2 * fails


def test_main_restores_lhs_when_a_bracket_raises(tmp_path, monkeypatch):
    def bracket(rho, params):
        raise RuntimeError("stand-in")

    originals = _stand_ins(monkeypatch, bracket)
    with pytest.raises(RuntimeError, match="stand-in"):
        reports.main(tmp_path / "out")
    assert (reports.lhs._Highs, reports.lhs.max_over_strategies) == originals


def test_bracket_set_prints_iterations_and_rows(monkeypatch, capsys):
    """A set's count line gives its HiGHS runs' simplex iterations and their
    largest row count: 17 for a real state's m = 6 LP (the mirror-invariant
    rows), 28 with a complex state among the set."""
    lhs, states = reports.lhs, reports.states
    monkeypatch.setattr(lhs, "_Highs", lhs._Highs)  # put back even if the block does not
    params = reports.search._PREFILTER_PARAMS
    werner, b3 = ("werner", states.werner(0.9), params), ("b3", reports.cli._resolve_pair("builtin:b3", None)[0], params)
    for jobs, rows in [([werner], 17), ([werner, b3], 28)]:
        with reports._counted_calls() as counts:
            reports._bracket_set("set", jobs, counts)
            assert counts["iterations"] > 0
        line = capsys.readouterr().out
        assert f"{counts['iterations']} simplex iterations, at most {rows} rows, 0 LpFailure" in line


SWEEP = (
    "prefilter 0 AB 0.5 0.75 1.0 True True\n"
    "prefilter 0 BA 0.25 0.5 1.0 True True\n"
    "default 0 AB 0.625 0.875 1.0 False True\n"
)


def _outdir(path: Path, sweep: str) -> Path:
    path.mkdir()
    (path / "brackets.txt").write_text("coarse 0 AB 0.5 0.75 1.0\n")
    (path / "table.json").write_text('{"L": 3.0}\n')
    (path / "sweep.txt").write_text(sweep)
    return path


def test_compare_identical_directories(tmp_path, capsys):
    assert reports.compare(_outdir(tmp_path / "new", SWEEP), _outdir(tmp_path / "old", SWEEP))
    assert "every file is identical" in capsys.readouterr().out


def test_compare_reports_a_flipped_flag_and_a_moved_number(tmp_path, capsys):
    changed = SWEEP.replace("BA 0.25 0.5 1.0 True True", "BA 0.25 0.5 1.0 False True").replace("0.875", "0.8755")
    assert not reports.compare(_outdir(tmp_path / "new", changed), _outdir(tmp_path / "old", SWEEP))
    out = capsys.readouterr().out
    assert "sweep.txt: text differs, not only numbers" in out
    assert "  - prefilter 0 BA 0.25 0.5 1.0 True True\n  + prefilter 0 BA 0.25 0.5 1.0 False True\n" in out
    assert "default (tol 0.001): largest move 0.0005\n" in out
    assert "prefilter (tol 0.01): largest move 0\n" in out
    assert "brackets.txt" not in out and "table.json" not in out
