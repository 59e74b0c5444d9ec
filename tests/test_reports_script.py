"""scripts/reports.py's ``compare`` reports each way two report directories differ.

The script is loaded by path, as a script; these tests run no bracket.
"""

import importlib.util
from pathlib import Path

_REPORTS_PATH = Path(__file__).resolve().parents[1] / "scripts" / "reports.py"


def _load_reports():
    spec = importlib.util.spec_from_file_location("reports_script", _REPORTS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reports = _load_reports()

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
