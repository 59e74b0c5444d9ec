"""Write a fixed set of reports for a byte-for-byte comparison of two checkouts.

    python3 scripts/reports.py OUTDIR [--against OTHER]

Runs in process on the ``src/`` beside this script, so a copy of the script
in another checkout reports on that checkout's code. To check that a change
keeps every output, run it in both checkouts and ``diff -r`` the two
directories. With ``--against OTHER``, a directory this script wrote before
(say, in the parent commit's checkout), it then prints, for each file that
differs, the largest absolute difference among its numbers, or that its text
around the numbers differs, plus each moved line of ``brackets.txt``; it
exits 1 when any file differs. It writes:

- ``scenario2`` on sc1, b1, b2, b3, w and ghz;
- ``scenario1 --fig-data`` on sc1, b1, w and ghz (JSON and CSV);
- ``radius --pair BA`` on b1;
- ``calibrate``, ``table``, and ``entanglement`` on b3, w and ghz;
- ``brackets.txt``: (r_in, r_out, t_cap) at ``repr`` precision for the 54
  coarse brackets (27 random real-7 family states drawn with seed 7, AB and
  BA at the prefilter's parameters), for the singlet at meas level 1,
  hidden level 1, tol 1e-2 (m = 21, one exact-kernel call) and for b1 AB at
  meas level 1, hidden level 2, tol 1e-3 (m = 21, three kernel calls that add
  the kernel's best columns).

It takes several seconds.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from cyclesteer import cli, lhs, search, states  # noqa: E402

COARSE_STATES, POOL_SEED = 27, 7


def _command(argv: list[str], out: Path) -> None:
    """One CLI command, its JSON report to ``out``; exit 1 is a verdict, so only
    an input error (exit 2) stops the run."""
    if cli.main(argv + ["--out", str(out)]) == 2:
        raise SystemExit(f"input error from {argv}")


def _bracket_line(name: str, rho, params: lhs.RadiusParams) -> str:
    rep = lhs.critical_radius_bounds(rho, params)
    return f"{name} {float(rep.r_in)!r} {float(rep.r_out)!r} {float(rep.t_cap)!r}\n"


def main(outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    for sid in ("sc1", "b1", "b2", "b3", "w", "ghz"):
        _command(["scenario2", "--state", f"builtin:{sid}"], outdir / f"scenario2_{sid}.json")
    for sid in ("sc1", "b1", "w", "ghz"):
        _command(["scenario1", "--state", f"builtin:{sid}", "--fig-data", str(outdir / f"scenario1_{sid}.csv")],
                 outdir / f"scenario1_{sid}.json")
    _command(["radius", "--state", "builtin:b1", "--pair", "BA"], outdir / "radius_b1_BA.json")
    _command(["calibrate"], outdir / "calibrate.json")
    _command(["table"], outdir / "table.json")
    for sid in ("b3", "w", "ghz"):
        _command(["entanglement", "--state", f"builtin:{sid}"], outdir / f"entanglement_{sid}.json")

    lines = []
    coeffs = np.random.default_rng(POOL_SEED).standard_normal((COARSE_STATES, 7))
    for j, c in enumerate(coeffs):
        rho_ab = states.reduce_pair(states.build_family(search.coeffs_to_state(c), 1.0), "AB")
        lines.append(_bracket_line(f"coarse {j} AB", rho_ab, search._PREFILTER_PARAMS))
        lines.append(_bracket_line(f"coarse {j} BA", states.swap_state(rho_ab), search._PREFILTER_PARAMS))
    fine = lhs.RadiusParams(meas_level=1, hidden_level=1, bisection_tol=1e-2)
    lines.append(_bracket_line("singlet meas 1 hidden 1", states.singlet(), fine))
    b1 = states.reduce_pair(states.build_family(states.builtin_state("b1").normalized(), 1.0), "AB")
    lines.append(_bracket_line("b1 AB meas 1 hidden 2", b1, lhs.RadiusParams(meas_level=1, hidden_level=2)))
    (outdir / "brackets.txt").write_text("".join(lines))


_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def largest_move(new_text: str, old_text: str) -> float | None:
    """The largest absolute difference between the numbers of two texts, in
    order; None when their text around the numbers differs."""
    new_parts, old_parts = _NUMBER.split(new_text), _NUMBER.split(old_text)
    if len(new_parts) != len(old_parts) or new_parts[::2] != old_parts[::2]:
        return None
    return max((abs(float(a) - float(b)) for a, b in zip(new_parts[1::2], old_parts[1::2])), default=0.0)


def compare(outdir: Path, other: Path) -> bool:
    """Print how each file of ``outdir`` differs from its namesake in ``other``;
    True when every file is byte-identical."""
    names = sorted({p.name for d in (outdir, other) for p in d.iterdir()})
    same = True
    for name in names:
        new, old = outdir / name, other / name
        if not (new.exists() and old.exists()):
            print(f"{name}: only in {new.parent if new.exists() else old.parent}")
            same = False
            continue
        new_text, old_text = new.read_text(), old.read_text()
        if new_text == old_text:
            continue
        same = False
        moved = largest_move(new_text, old_text)
        if moved is None:
            print(f"{name}: text differs, not only numbers")
        else:
            print(f"{name}: largest absolute difference {moved:.3g}")
        if name == "brackets.txt":
            for a, b in zip(old_text.splitlines(), new_text.splitlines()):
                if a != b:
                    print(f"  - {a}\n  + {b}")
    if same:
        print(f"every file is identical to {other}'s")
    return same


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args()
    main(args.outdir)
    if args.against is not None and not compare(args.outdir, args.against):
        raise SystemExit(1)
