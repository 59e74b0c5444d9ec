"""Smoke tests: each script in scripts/ runs end to end on tiny inputs."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *argv) -> int:
    """Run scripts/<name> as ``__main__`` with ``argv``; returns its exit status."""
    monkeypatch.setattr(sys, "argv", [name, *argv])
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    except SystemExit as e:
        return e.code or 0
    return 0


def test_werner_calibration_script(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_script(monkeypatch, "werner_calibration.py", "--hidden-level", "0", "--steps", "2") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["p", "ppt", "detected", "certified"]
    assert lines[1].split() == ["0.00", "True", "False", "True"]
    assert lines[2].split() == ["1.00", "False", "True", "False"]
    assert lines[-1].startswith("singlet critical-radius bracket: [")
    assert list(tmp_path.iterdir()) == []  # it writes no file
