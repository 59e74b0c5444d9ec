"""Sweep random brackets for solver failures, and compare two checkouts' sweeps.

    python3 scripts/robustness.py OUTFILE [--against OTHER]

Runs in process on the ``src/`` beside this script, so a copy of the script
(with ``reports.py``) in another checkout sweeps that checkout's code. It
brackets 1500 random real-7 family states (coefficients drawn with rng seed
2026), AB and BA, at the prefilter's parameters (``search._PREFILTER_PARAMS``)
and at ``RadiusParams()``: 6000 brackets, in under a minute. It
counts, per parameter set, HiGHS runs, runs that end non-optimal (each then
retried by ``lhs.linprog``'s ladder) and brackets that raise ``LpFailure``,
and prints them. OUTFILE gets one line per bracket: the parameter set, the
state's index, the pair, r_in, r_out and t_cap at ``repr`` precision, then
steerable_detected and unsteerable_certified, or ``LpFailure``.

With ``--against OTHER``, a file this script wrote before (say, in the parent
commit's checkout), it then prints the largest move of any number per
parameter set, beside that set's bisection tolerance, and each line whose
flags or failure differ; it exits 1 when any line differs. Not part of the
test suite.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import numpy as np

from reports import largest_move  # also puts the src/ beside this script on sys.path

from cyclesteer import lhs, search, states

SEED, STATES = 2026, 1500
PARAMS = {"prefilter": search._PREFILTER_PARAMS, "default": lhs.RadiusParams()}


class _Counted(lhs._Highs):
    """HiGHS counting its runs and those that end non-optimal."""

    runs = not_optimal = 0

    def run(self):
        status = super().run()
        _Counted.runs += 1
        _Counted.not_optimal += self.getModelStatus() != lhs.HighsModelStatus.kOptimal
        return status


def sweep(outfile: Path) -> None:
    lhs._Highs = _Counted
    coeffs = np.random.default_rng(SEED).standard_normal((STATES, 7))
    pairs = []
    for c in coeffs:
        rho_ab = states.reduce_pair(states.build_family(search.coeffs_to_state(c), 1.0), "AB")
        pairs.append((rho_ab, states.swap_state(rho_ab)))
    lines = []
    for name, params in PARAMS.items():
        _Counted.runs = _Counted.not_optimal = failures = 0
        start = time.perf_counter()
        for j, pair in enumerate(pairs):
            for label, rho in zip(("AB", "BA"), pair):
                try:
                    rep = lhs.critical_radius_bounds(rho, params)
                except lhs.LpFailure:
                    failures += 1
                    lines.append(f"{name} {j} {label} LpFailure\n")
                    continue
                lines.append(f"{name} {j} {label} {float(rep.r_in)!r} {float(rep.r_out)!r} {float(rep.t_cap)!r} "
                             f"{rep.steerable_detected} {rep.unsteerable_certified}\n")
        print(f"{name}: {2 * len(pairs)} brackets in {time.perf_counter() - start:.1f} s, "
              f"{_Counted.runs} HiGHS runs, {_Counted.not_optimal} non-optimal, {failures} LpFailure")
    outfile.write_text("".join(lines))


def compare(outfile: Path, other: Path) -> bool:
    """Print the largest move per parameter set and each line of ``outfile``
    whose flags or failure differ from ``other``'s; True when the files match."""
    new_lines, old_lines = outfile.read_text().splitlines(), other.read_text().splitlines()
    if len(new_lines) != len(old_lines):
        print(f"{outfile} has {len(new_lines)} lines, {other} {len(old_lines)}")
        return False
    moves = dict.fromkeys(PARAMS, 0.0)
    for new, old in zip(new_lines, old_lines):
        moved = largest_move(new, old)
        if moved is None:
            print(f"  - {old}\n  + {new}")
        else:
            name = new.split()[0]
            moves[name] = max(moves[name], moved)
    for name, moved in moves.items():
        print(f"{name} (tol {PARAMS[name].bisection_tol:g}): largest move {moved:.3g}")
    return new_lines == old_lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("outfile", type=Path)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args()
    sweep(args.outfile)
    if args.against is not None and not compare(args.outfile, args.against):
        raise SystemExit(1)
