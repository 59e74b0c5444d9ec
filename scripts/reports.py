"""Write a fixed set of reports for a byte-for-byte comparison of two checkouts.

    python3 scripts/reports.py OUTDIR [--against OTHER]

Runs in process on the ``src/`` beside this script, so a copy of the script
in another checkout reports on that checkout's code. It writes the JSON
reports of ``scenario2`` (sc1, b1, b2, b3, w, ghz), ``scenario1 --fig-data``
(sc1, b1, w, ghz; and CSV), ``radius --pair BA`` (b1), ``calibrate``,
``table`` and ``entanglement`` (b3, w, ghz); the restart logs of three
short campaigns: ``search --scenario 1 --restarts 12 --seed 7`` (with the
summary it prints) and two restarts at seed 1 of each scenario-2 objective
through ``search.multi_restart``, the prefilter at Nelder-Mead ``max_iter``
40 and the full objective at 8; and two files with one line per bracket:
its label, then r_in, r_out and t_cap at ``repr`` precision, or
``LpFailure``:

- ``brackets.txt``: the 54 coarse brackets (27 random real-7 family states,
  seed 7, AB and BA at ``search._PREFILTER_PARAMS``), the singlet at meas
  level 1, hidden level 1, tol 1e-2 and b1 AB at meas level 1, hidden
  level 2, tol 1e-3 (m = 21, one and three exact-kernel calls);
- ``sweep.txt``: 1500 random real-7 family states (seed 2026), AB and BA, at
  the prefilter's parameters and at ``RadiusParams()``, each line ending in
  steerable_detected and unsteerable_certified.

For each set of brackets (the coarse pool, each m = 21 bracket, each sweep
setting) it prints the HiGHS runs, those that ended non-optimal (then
retried by ``lhs.linprog``'s ladder), the brackets that raised
``LpFailure`` and the exact-kernel calls; it exits 1 when any bracket
raised ``LpFailure``. With ``--against OTHER``, a
directory it wrote in another checkout (say, the parent commit's), it then
prints for each file that differs the largest absolute difference among
its numbers, or that its text around them differs (a flag, verdict or
failure); each moved line of ``brackets.txt``; and for ``sweep.txt`` each
line whose flags or failure differ and the largest move per setting beside
its tolerance. It exits 1 when any file differs. It takes about 30 s.
"""

import argparse
import re
import sys
import time
from collections import Counter
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from cyclesteer import cli, lhs, search, states  # noqa: E402

COARSE_STATES, POOL_SEED = 27, 7
SWEEP_STATES, SWEEP_SEED = 1500, 2026
SWEEP_PARAMS = {"prefilter": search._PREFILTER_PARAMS, "default": lhs.RadiusParams()}


def _command(argv: list[str], out: Path) -> None:
    """One CLI command, its JSON report to ``out``; exit 1 is a verdict, so only
    an input error (exit 2) stops the run."""
    if cli.main(argv + ["--out", str(out)]) == 2:
        raise SystemExit(f"input error from {argv}")


@contextmanager
def _counted_calls():
    """Count each HiGHS run of ``lhs``, each non-optimal run and each kernel
    call within the block; ``lhs``'s own names are back when it exits."""
    counts, highs, kernel = Counter(), lhs._Highs, lhs.max_over_strategies

    class Counted(highs):
        def run(self):
            status = super().run()
            counts["runs"] += 1
            counts["not_optimal"] += self.getModelStatus() != lhs.HighsModelStatus.kOptimal
            return status

    def counted_kernel(*args):
        counts["kernel"] += 1
        return kernel(*args)

    lhs._Highs, lhs.max_over_strategies = Counted, counted_kernel
    try:
        yield counts
    finally:
        lhs._Highs, lhs.max_over_strategies = highs, kernel


def _search_logs(outdir: Path) -> None:
    """The restart logs of three short campaigns: scenario 1 through the CLI,
    with its printed summary, and the two scenario-2 objectives through
    ``search.multi_restart``."""
    log, summary = outdir / "search_scenario1.jsonl", outdir / "search_scenario1.json"
    log.unlink(missing_ok=True)  # the CLI appends to its log
    with open(summary, "w") as f, redirect_stdout(f):
        _command(["search", "--scenario", "1", "--restarts", "12", "--seed", "7"], log)
    for kind, max_iter in [("scenario2_prefilter", 40), ("scenario2_full", 8)]:
        spec = search.ObjectiveSpec(kind=kind, nm=search.NMParams(max_iter=max_iter))
        with open(outdir / f"search_{kind}.jsonl", "w") as f:
            search.multi_restart(spec, 2, 1, log_file=f)


def _random_jobs(name: str, seed: int, n: int, params: lhs.RadiusParams) -> list:
    """(label, rho, params) for rho_AB and rho_BA of n random real-7 family states at p = 1."""
    jobs = []
    for j, c in enumerate(np.random.default_rng(seed).standard_normal((n, 7))):
        rho_ab = search._reduced_pair(c)
        jobs += [(f"{name} {j} AB", rho_ab, params), (f"{name} {j} BA", states.swap_state(rho_ab), params)]
    return jobs


def _bracket_set(name: str, jobs: list, counts: Counter, flags: bool = False) -> list[str]:
    """Bracket each (label, rho, params) of ``jobs`` into its line, with the
    report's two flags if ``flags``; prints the set's counts."""
    counts.clear()
    start, lines, failures = time.perf_counter(), [], 0
    for label, rho, params in jobs:
        try:
            rep = lhs.critical_radius_bounds(rho, params)
        except lhs.LpFailure:
            failures += 1
            lines.append(f"{label} LpFailure\n")
            continue
        tail = f" {rep.steerable_detected} {rep.unsteerable_certified}" if flags else ""
        lines.append(f"{label} {float(rep.r_in)!r} {float(rep.r_out)!r} {float(rep.t_cap)!r}{tail}\n")
    print(f"{name}: {len(jobs)} brackets in {time.perf_counter() - start:.1f} s, {counts['runs']} HiGHS runs, "
          f"{counts['not_optimal']} non-optimal, {failures} LpFailure, {counts['kernel']} kernel calls")
    return lines


def main(outdir: Path, against: Path | None = None) -> int:
    """Write the reports to ``outdir`` and compare them with ``against``'s;
    the exit code, 1 when a bracket raised LpFailure or a file differs."""
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

    _search_logs(outdir)

    with _counted_calls() as counts:
        lines = _bracket_set("coarse", _random_jobs("coarse", POOL_SEED, COARSE_STATES, search._PREFILTER_PARAMS),
                             counts)
        b1_ab = cli._resolve_pair("builtin:b1", None)[0]
        for label, rho, levels_tol in [("singlet meas 1 hidden 1", states.singlet(), (1, 1, 1e-2)),
                                       ("b1 AB meas 1 hidden 2", b1_ab, (1, 2, 1e-3))]:
            lines += _bracket_set(label, [(label, rho, lhs.RadiusParams(*levels_tol))], counts)
        (outdir / "brackets.txt").write_text("".join(lines))
        sweep = []
        for setting, params in SWEEP_PARAMS.items():
            sweep += _bracket_set(setting, _random_jobs(setting, SWEEP_SEED, SWEEP_STATES, params), counts, flags=True)
    (outdir / "sweep.txt").write_text("".join(sweep))
    if failures := sum(line.endswith(" LpFailure\n") for line in lines + sweep):
        print(f"{failures} brackets raised LpFailure")
    same = against is None or compare(outdir, against)
    return int(bool(failures) or not same)


_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def largest_move(new_text: str, old_text: str) -> float | None:
    """The largest absolute difference between the numbers of two texts, in
    order; None when their text around the numbers differs."""
    new_parts, old_parts = _NUMBER.split(new_text), _NUMBER.split(old_text)
    if len(new_parts) != len(old_parts) or new_parts[::2] != old_parts[::2]:
        return None
    return max((abs(float(a) - float(b)) for a, b in zip(new_parts[1::2], old_parts[1::2])), default=0.0)


def _sweep_moves(new_text: str, old_text: str) -> None:
    """Print each line whose flags or failure differ, then the largest move per setting."""
    moves = dict.fromkeys(SWEEP_PARAMS, 0.0)
    for new, old in zip(new_text.splitlines(), old_text.splitlines()):
        moved = largest_move(new, old)
        if moved is None:
            print(f"  - {old}\n  + {new}")
        else:
            moves[new.split()[0]] = max(moves[new.split()[0]], moved)
    for setting, moved in moves.items():
        print(f"  {setting} (tol {SWEEP_PARAMS[setting].bisection_tol:g}): largest move {moved:.3g}")


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
        what = "text differs, not only numbers" if moved is None else f"largest absolute difference {moved:.3g}"
        print(f"{name}: {what}")
        if name == "brackets.txt":
            for a, b in zip(old_text.splitlines(), new_text.splitlines()):
                if a != b:
                    print(f"  - {a}\n  + {b}")
        elif name == "sweep.txt":
            _sweep_moves(new_text, old_text)
    if same:
        print(f"every file is identical to {other}'s")
    return same


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args()
    raise SystemExit(main(args.outdir, args.against))
