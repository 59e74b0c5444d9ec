"""Command-line frontend.

Subcommands: scenario1, scenario2, radius, search, entanglement,
calibrate, table. All reports are JSON (CSV only as a plot-data
projection); floats are printed with 9 significant digits so reruns
diff cleanly. Exit codes: 0 success, 1 verification/feasibility failure
or an internal fault (raised, not mapped), 2 input error (bad options are
rejected by argparse, bad states by InputError).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import entanglement as ent
from . import lhs, search, states, steering
from .tolerances import TOL


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(data: dict, out: str | None):
    text = json.dumps(_round_floats(data), indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


class InputError(Exception):
    pass


def _load_source(spec: str):
    """Resolve --state: 'builtin:<id>' or a state-file path."""
    if spec.startswith("builtin:"):
        try:
            return states.builtin_state(spec.split(":", 1)[1]).normalized(), None
        except KeyError as e:
            raise InputError(str(e)) from None
    try:
        loaded = states.load_state(spec)
        if isinstance(loaded, tuple):
            return loaded[0].normalized(), loaded[1]
    except FileNotFoundError:
        raise InputError(f"state file not found: {spec}") from None
    except OSError as e:
        raise InputError(f"cannot read state file {spec}: {e.strerror}") from None
    except (ValueError, KeyError, json.JSONDecodeError) as e:
        raise InputError(f"bad state file {spec}: {e}") from None
    return loaded, None


def _resolve_pair(spec: str, p: float):
    """Return (rho_AB, rho_BA, rho3-or-None) for a state source."""
    obj, file_p = _load_source(spec)
    if isinstance(obj, states.PureState3Q):
        eff_p = p if p is not None else (file_p if file_p is not None else 1.0)
        obj = states.build_family(obj, eff_p)
    if obj.dims == (2, 2):
        return obj, states.swap_state(obj), None
    if obj.dims != (2, 2, 2):
        raise InputError(f"unsupported state dims {obj.dims}")
    rho_ab = states.reduce_pair(obj, "AB")
    return rho_ab, states.swap_state(rho_ab), obj


def _radius_options(args) -> dict:
    """The radius options given on the command line, by RadiusParams field."""
    names = ("meas_level", "hidden_level", "bisection_tol")
    return {k: getattr(args, k) for k in names if getattr(args, k) is not None}


def _radius_params(args) -> lhs.RadiusParams:
    return lhs.RadiusParams(**_radius_options(args))


def _fig_data_csv(report: steering.Scenario1Report, path: str):
    """Bloch endpoints (+-a_x, +-b_x) as plot data."""
    with open(path, "w") as f:
        f.write("party,setting,sign,x,y,z\n")
        for x, obs in enumerate(report.observables_ab):
            for s in (1, -1):
                v = s * obs.bloch
                f.write(f"A,{x + 1},{s},{v[0]:.9g},{v[1]:.9g},{v[2]:.9g}\n")
        for x, b in enumerate(report.setting_blochs):
            for s in (1, -1):
                v = s * b
                f.write(f"B,{x + 1},{s},{v[0]:.9g},{v[1]:.9g},{v[2]:.9g}\n")


def cmd_scenario1(args) -> int:
    rho_ab, _, _ = _resolve_pair(args.state, args.p)
    report = steering.one_way_gap_scenario1(rho_ab, steering.icosahedron_settings())
    if abs(report.Q_ab - report.Q_ba) < TOL.scenario1_margin:
        verdict = "symmetric"
    elif report.one_way:
        verdict = "one-way"
    elif report.violates_ab and not report.respects_ba:
        verdict = "two-way"
    else:
        verdict = "none"
    data = report.to_dict()
    data["negativity"] = ent.negativity(rho_ab, 0)
    data["verdict"] = verdict
    _emit(data, args.out)
    if args.fig_data:
        _fig_data_csv(report, args.fig_data)
    return 0 if verdict == "one-way" else 1


def cmd_scenario2(args) -> int:
    rho_ab, rho_ba, _ = _resolve_pair(args.state, args.p)
    report = lhs.one_way_report(rho_ab, rho_ba, _radius_params(args))
    _emit(report.to_dict(), args.out)
    if args.certify and report.verdict == "refuted":
        return 1
    return 0


def cmd_radius(args) -> int:
    rho_ab, rho_ba, _ = _resolve_pair(args.state, args.p)
    rho = rho_ab if args.pair == "AB" else rho_ba
    report = lhs.critical_radius_bounds(rho, _radius_params(args))
    _emit(report.to_dict(), args.out)
    return 0


def cmd_entanglement(args) -> int:
    _, _, rho3 = _resolve_pair(args.state, args.p)
    if rho3 is None:
        raise InputError("entanglement report needs a three-qubit state")
    data = ent.entanglement_report(rho3)
    data["negativity_reduced_AB"] = ent.negativity(states.reduce_pair(rho3, "AB"), 0)
    _emit(data, args.out)
    return 0


def cmd_search(args) -> int:
    if args.scenario == 1 and args.stage != "full":
        raise InputError(f"--stage {args.stage} applies to --scenario 2 only")
    if args.resume and args.stage == "two-stage":
        raise InputError("--resume cannot be used with --stage two-stage")
    if args.scenario == 1:
        kind = "scenario1"
    elif args.stage == "prefilter":
        kind = "scenario2_prefilter"
    else:
        kind = "scenario2_full"
    if kind != "scenario2_full" and _radius_options(args):
        raise InputError("--meas-level, --hidden-level and --tol apply to "
                         "--scenario 2 --stage full|two-stage only")
    spec = search.ObjectiveSpec(kind=kind, parameterization=args.parameterization,
                                radius=_radius_params(args))
    log_file = open(args.out, "a") if args.out else None
    try:
        if args.stage == "two-stage":
            result = search.two_stage_search(spec, args.restarts, args.seed, log_file=log_file)
        else:
            result = search.multi_restart(
                spec, args.restarts, args.seed,
                log_file=log_file, resume_path=args.resume,
            )
    except search.ResumeLogError as e:
        raise InputError(f"bad resume log {args.resume}: {e}") from None
    finally:
        if log_file:
            log_file.close()
    if args.best_out:
        with open(args.best_out, "w") as f:
            json.dump(_round_floats(states.state_to_json(result.best_state)), f, sort_keys=True)
            f.write("\n")
    _emit({"best_q": result.best_q, "best_coeffs": list(result.best_coeffs),
           "restarts": len(result.records)}, None)
    return 0


def cmd_calibrate(args) -> int:
    """Werner-family calibration against the known thresholds: the
    entanglement boundary at p = 1/3 (PPT) and the projective steering
    boundary at p = 1/2 (critical-radius bracket on the singlet). Werner(p)
    is the singlet's radial mix at t = p, so [r_in / meas_eta, r_out]
    brackets the p where the m settings stop detecting steering."""
    ppt_bracket = lhs.bisect(lambda p: not ent.is_ppt(states.werner(p), 0), 0.2, 0.5, 1e-4)
    report = lhs.critical_radius_bounds(states.werner(1.0), _radius_params(args))
    data = {
        "entanglement_threshold_bracket": list(ppt_bracket),
        "entanglement_threshold_known": 1 / 3,
        "finite_setting_threshold_bracket": [report.r_in / report.meas_eta, report.r_out],
        "steering_radius_bracket": [report.r_in, report.r_out],
        "steering_threshold_known": 0.5,
    }
    ok = ppt_bracket[0] <= 1 / 3 <= ppt_bracket[1] and report.r_in <= 0.5 <= report.r_out
    data["brackets_contain_known_thresholds"] = ok
    _emit(data, args.out)
    return 0 if ok else 1


def cmd_table(args) -> int:
    """Summary table over the builtin states at p = 1."""
    ico = steering.icosahedron_settings()
    rows = {}
    for sid in states.BUILTIN_IDS:
        rho3 = states.build_family(states.builtin_state(sid).normalized(), 1.0)
        rho_ab = states.reduce_pair(rho3, "AB")
        report = steering.one_way_gap_scenario1(rho_ab, ico)
        rows[sid] = {
            "negativity_AB": ent.negativity(rho_ab, 0),
            "Q_AB": report.Q_ab,
            "Q_BA": report.Q_ba,
            "gte": ent.gte_criterion(rho3).to_dict(),
        }
    _emit({"L": float(steering.lhs_bound_L(ico)[0]), "states": rows}, args.out)
    return 0


def _checked(convert, ok, what):
    """argparse type: convert, then reject values outside the valid range."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is not {what}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


_UNIT = _checked(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_POSITIVE = _checked(float, lambda v: 0 < v < float("inf"), "finite and > 0")
_NONNEG_INT = _checked(int, lambda v: v >= 0, "an integer >= 0")
_POSITIVE_INT = _checked(int, lambda v: v >= 1, "an integer >= 1")


def _add_state(p: argparse.ArgumentParser):
    p.add_argument("--state", required=True, help="builtin:<id> or state-file path")
    p.add_argument("--p", type=_UNIT, default=None, help="family mixing weight (default 1)")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _add_radius(p: argparse.ArgumentParser):
    """Radius options; one not given takes its RadiusParams default."""
    p.add_argument("--meas-level", type=_NONNEG_INT, default=None)
    p.add_argument("--hidden-level", type=_NONNEG_INT, default=None,
                   help="polytope whose vertices price the LP's columns above m = 10 "
                        "(at m <= 10 pricing is exact and the level has no effect)")
    p.add_argument("--tol", type=_POSITIVE, default=None, dest="bisection_tol",
                   help="step in the mixing parameter t: steering detection is probed tol/2 above t*")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cyclesteer")
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("scenario1", help="six-setting steering-inequality report")
    _add_state(p1)
    p1.add_argument("--fig-data", default=None, help="write Bloch-endpoint CSV here")
    p1.set_defaults(func=cmd_scenario1)

    p2 = sub.add_parser("scenario2", help="critical-radius one-way report")
    _add_state(p2)
    _add_radius(p2)
    p2.add_argument("--certify", action="store_true",
                    help="exit 1 when the cyclic property is refuted")
    p2.set_defaults(func=cmd_scenario2)

    pr = sub.add_parser("radius", help="critical-radius bracket for one direction")
    _add_state(pr)
    _add_radius(pr)
    pr.add_argument("--pair", choices=["AB", "BA"], default="AB")
    pr.set_defaults(func=cmd_radius)

    ps = sub.add_parser("search", help="multi-restart Nelder-Mead campaigns")
    ps.add_argument("--scenario", type=int, choices=[1, 2], required=True)
    ps.add_argument("--stage", choices=["full", "prefilter", "two-stage"], default="full",
                    help="scenario-2 stage; scenario 1 takes only the default")
    ps.add_argument("--restarts", type=_POSITIVE_INT, default=500)
    ps.add_argument("--seed", type=_NONNEG_INT, default=0)
    ps.add_argument("--parameterization", choices=sorted(search.PARAM_DIMS),
                    default="real-7")
    _add_radius(ps)  # --scenario 2 --stage full|two-stage only
    ps.add_argument("--out", default=None, help="JSON-lines restart log")
    ps.add_argument("--resume", default=None,
                    help="existing log of the same campaign to resume from (not with two-stage)")
    ps.add_argument("--best-out", default=None, help="write best state file here")
    ps.set_defaults(func=cmd_search)

    pe = sub.add_parser("entanglement", help="negativities and GTE criterion")
    _add_state(pe)
    pe.set_defaults(func=cmd_entanglement)

    pc = sub.add_parser("calibrate", help="Werner-family threshold calibration")
    _add_radius(pc)
    pc.add_argument("--out", default=None, help="output path (default stdout)")
    pc.set_defaults(func=cmd_calibrate)

    pt = sub.add_parser("table", help="summary of the builtin states")
    pt.add_argument("--out", default=None)
    pt.set_defaults(func=cmd_table)

    return parser


def _check_output_paths(args):
    """Reject an output path that cannot be written before any work starts."""
    for name in ("out", "fig_data", "best_out"):
        path = getattr(args, name, None)
        if path is None:
            continue
        target = path if os.path.exists(path) else os.path.dirname(path) or "."
        if os.path.isdir(path) or not os.access(target, os.W_OK):
            raise InputError(f"cannot write --{name.replace('_', '-')} {path}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_paths(args)
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except lhs.LpFailure as e:
        print(f"LP failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
