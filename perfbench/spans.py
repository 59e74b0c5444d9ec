"""Spans and counts at cyclesteer's module boundaries, for the traced run.

The wrappers live here, not in ``src/``: ``Tracer.install`` replaces each
boundary in ``BOUNDARIES`` by a timing wrapper, resolving the name on the
module that calls it (``lhs.linprog`` is scipy's ``linprog`` as ``lhs``
sees it), and ``uninstall`` puts the originals back. A boundary whose
name no longer resolves is reported as absent, and every metric that
needs it reads ``null``; a boundary that resolves but is never called
reads 0.

Each span records its boundary, start, end, parent span and the op it
belongs to. Spans stay in memory until ``write`` dumps them at the end of
the run. Self time is a span's duration minus the durations of its
direct children; spans of one thread nest, so children never overlap.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
from array import array
from time import perf_counter

OP = "op"


def _bound(fn):
    """Annotator helper: bind a call to ``fn``'s signature with defaults."""
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _lp_annotator(fn):
    bind = _bound(fn)

    def annotate(args, kwargs, result):
        return {"mode": bind(args, kwargs)["mode"], "flag": bool(result[0])}

    return annotate


def _solver_annotator(fn):
    def annotate(args, kwargs, result):
        rows, cols = kwargs["A_eq"].shape
        return {"rows": rows, "cols": cols, "nit": int(result.nit)}

    return annotate


def _nm_annotator(fn):
    bind = _bound(fn)

    def annotate(args, kwargs, result):
        max_iter = bind(args, kwargs)["params"].max_iter
        return {"iters": int(result[2]), "hit_max": int(result[2]) >= max_iter}

    return annotate


def _flag_annotator(fn):
    def annotate(args, kwargs, result):
        return {"flag": bool(result[0])}

    return annotate


# (span name, module, attribute path on that module, annotator factory)
BOUNDARIES = [
    ("cli.main", "cyclesteer.cli", "main", None),
    ("lhs.one_way_report", "cyclesteer.lhs", "one_way_report", None),
    ("lhs.critical_radius_bounds", "cyclesteer.lhs", "critical_radius_bounds", None),
    ("lhs.detect_steerable", "cyclesteer.lhs", "detect_steerable", _flag_annotator),
    ("lhs.certify_unsteerable_shrunk", "cyclesteer.lhs", "certify_unsteerable_shrunk", None),
    ("lhs.lhs_lp_feasible", "cyclesteer.lhs", "lhs_lp_feasible", _lp_annotator),
    ("lhs.linprog", "cyclesteer.lhs", "linprog", _solver_annotator),
    ("lhs.exact_lhs_bound", "cyclesteer.lhs", "GeneralFunctional.exact_lhs_bound", None),
    ("lhs.sphere_polytope", "cyclesteer.lhs", "sphere_polytope", None),
    ("lhs.antipodal_directions", "cyclesteer.lhs", "antipodal_directions", None),
    ("lhs.make_assemblage", "cyclesteer.lhs", "make_assemblage", None),
    ("states.build_family", "cyclesteer.states", "build_family", None),
    ("states.reduce_pair", "cyclesteer.states", "reduce_pair", None),
    ("states.swap_state", "cyclesteer.states", "swap_state", None),
    ("linalg.density_check", "cyclesteer.linalg", "DensityMatrix.__post_init__", None),
    ("search.nelder_mead", "cyclesteer.search", "nelder_mead", _nm_annotator),
    ("search.objective_scenario1", "cyclesteer.search", "objective_scenario1", None),
]


def _resolve(module_name: str, path: str):
    """Return (owner, attribute, original function), or None when the name
    is gone or no longer a plain function."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = inspect.getattr_static(owner, attr, None)
    if not inspect.isfunction(original):
        return None
    return owner, attr, original


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self.stack = [-1]
        self.current_op = [-1]
        self.absent: list[str] = []
        self.annotate_errors: dict[str, str] = {}
        self._installed: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op[0])
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def begin_op(self, op_id: int):
        self.current_op[0] = op_id
        self._open(self._name_id(OP))

    def end_op(self):
        idx = self.stack.pop()
        self.end[idx] = perf_counter()
        self.current_op[0] = -1

    def wrap(self, span_name: str, fn, annotate=None):
        nid = self._name_id(span_name)
        name, parent, op, start, end = self.name, self.parent, self.op, self.start, self.end
        attrs, stack, current_op = self.attrs, self.stack, self.current_op
        errors = self.annotate_errors

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            op.append(current_op[0])
            start.append(perf_counter())
            end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs[idx] = {"error": type(exc).__name__}
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if annotate is not None:
                try:
                    attrs[idx] = annotate(args, kwargs, result)
                except Exception as exc:  # a changed signature must not stop the run
                    errors.setdefault(span_name, f"{type(exc).__name__}: {exc}")
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, boundaries=BOUNDARIES):
        for span_name, module_name, path, annotator in boundaries:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(span_name)
                continue
            owner, attr, original = found
            annotate = annotator(original) if annotator is not None else None
            setattr(owner, attr, self.wrap(span_name, original, annotate))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path):
        data = {
            "names": self.names,
            "absent": self.absent,
            "annotate_errors": self.annotate_errors,
            "spans": {
                "name": list(self.name),
                "parent": list(self.parent),
                "op": list(self.op),
                "start": list(self.start),
                "end": list(self.end),
            },
            "attrs": {str(k): v for k, v in self.attrs.items()},
        }
        with open(path, "w") as f:
            json.dump(data, f)


class _Aggregate:
    """Per-boundary call counts, total self time and annotations."""

    def __init__(self, tracer: Tracer):
        n = len(tracer.start)
        dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = tracer.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.attrs: dict[str, list[dict]] = {}
        for i in range(n):
            nm = tracer.names[tracer.name[i]]
            self.calls[nm] = self.calls.get(nm, 0) + 1
            self.self_s[nm] = self.self_s.get(nm, 0.0) + dur[i] - child[i]
            if i in tracer.attrs:
                self.attrs.setdefault(nm, []).append(tracer.attrs[i])
        self.tracer = tracer

    def count(self, name):
        return self.calls.get(name, 0)

    def self_time(self, *names):
        return sum(self.self_s.get(nm, 0.0) for nm in names)

    def values(self, name, key):
        return [a[key] for a in self.attrs.get(name, []) if key in a]


def _ratio(num, den):
    return num / den if den else 0.0


def _mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def _farkas_absorbed_share(agg: _Aggregate) -> float:
    """Relax-mode LPs that came back infeasible inside a detection probe
    that still answered 'not detected' (the exact ball bound absorbed the
    Farkas functional), over all infeasible relax-mode LPs."""
    t = agg.tracer
    lp_id = t.name_ids.get("lhs.lhs_lp_feasible")
    infeasible, absorbed = 0, 0
    for i, a in t.attrs.items():
        if t.name[i] != lp_id or a.get("mode") != "relax" or a.get("flag", True):
            continue
        infeasible += 1
        p = t.parent[i]
        if p >= 0 and t.names[t.name[p]] == "lhs.detect_steerable" and t.attrs.get(p, {}).get("flag") is False:
            absorbed += 1
    return _ratio(absorbed, infeasible)


PREP = ("states.build_family", "states.reduce_pair", "states.swap_state")
BRACKET = ("lhs.one_way_report", "lhs.critical_radius_bounds",
           "lhs.detect_steerable", "lhs.certify_unsteerable_shrunk")


def _lp_failures(agg: _Aggregate) -> int:
    return sum(1 for a in agg.attrs.get("lhs.lhs_lp_feasible", []) if a.get("error") == "LpFailure")


# name -> (unit, better, boundaries it needs, fn(agg, n_ops, restarts))
LAYER_METRICS = {
    "search.restarts": ("count", "higher", (), lambda g, n, r: r),
    "search.objective_evals": ("1/op", "lower", ("search.objective_scenario1",),
                               lambda g, n, r: _ratio(g.count("search.objective_scenario1"), n)),
    "search.objective_us": ("us", "lower", ("search.objective_scenario1",),
                            lambda g, n, r: 1e6 * _ratio(g.self_time("search.objective_scenario1"),
                                                         g.count("search.objective_scenario1"))),
    "search.nm_self_s": ("s/op", "lower", ("search.nelder_mead",),
                         lambda g, n, r: _ratio(g.self_time("search.nelder_mead"), n)),
    "search.nm_iters_p50": ("count", "lower", ("search.nelder_mead",),
                            lambda g, n, r: statistics.median(g.values("search.nelder_mead", "iters"))
                            if g.values("search.nelder_mead", "iters") else 0.0),
    "search.max_iter_share": ("ratio", "lower", ("search.nelder_mead",),
                              lambda g, n, r: _mean([float(v) for v in g.values("search.nelder_mead", "hit_max")])),
    "linalg.density_checks": ("1/op", "lower", ("linalg.density_check",),
                              lambda g, n, r: _ratio(g.count("linalg.density_check"), n)),
    "linalg.density_check_s": ("s/op", "lower", ("linalg.density_check",),
                               lambda g, n, r: _ratio(g.self_time("linalg.density_check"), n)),
    "states.prep_s": ("s/op", "lower", PREP, lambda g, n, r: _ratio(g.self_time(*PREP), n)),
    "steering.assemblages": ("1/op", "lower", ("lhs.make_assemblage",),
                             lambda g, n, r: _ratio(g.count("lhs.make_assemblage"), n)),
    "steering.assemblage_s": ("s/op", "lower", ("lhs.make_assemblage",),
                              lambda g, n, r: _ratio(g.self_time("lhs.make_assemblage"), n)),
    "polytope.builds": ("1/op", "lower", ("lhs.sphere_polytope",),
                        lambda g, n, r: _ratio(g.count("lhs.sphere_polytope"), n)),
    "polytope.build_s": ("s/op", "lower", ("lhs.sphere_polytope",),
                         lambda g, n, r: _ratio(g.self_time("lhs.sphere_polytope"), n)),
    "polytope.directions_s": ("s/op", "lower", ("lhs.antipodal_directions",),
                              lambda g, n, r: _ratio(g.self_time("lhs.antipodal_directions"), n)),
    "lhs.brackets": ("count", "higher", ("lhs.critical_radius_bounds",),
                     lambda g, n, r: g.count("lhs.critical_radius_bounds")),
    "lhs.probes_per_bracket": ("count", "lower", ("lhs.critical_radius_bounds", "lhs.detect_steerable",
                                                  "lhs.certify_unsteerable_shrunk"),
                               lambda g, n, r: _ratio(g.count("lhs.detect_steerable")
                                                      + g.count("lhs.certify_unsteerable_shrunk"),
                                                      g.count("lhs.critical_radius_bounds"))),
    "lhs.bracket_self_s": ("s/op", "lower", BRACKET, lambda g, n, r: _ratio(g.self_time(*BRACKET), n)),
    "lhs.lp_calls": ("1/op", "lower", ("lhs.lhs_lp_feasible",),
                     lambda g, n, r: _ratio(g.count("lhs.lhs_lp_feasible"), n)),
    "lhs.lp_self_s": ("s/op", "lower", ("lhs.lhs_lp_feasible",),
                      lambda g, n, r: _ratio(g.self_time("lhs.lhs_lp_feasible"), n)),
    "lhs.solver_calls": ("1/op", "lower", ("lhs.linprog",),
                         lambda g, n, r: _ratio(g.count("lhs.linprog"), n)),
    "lhs.solver_s": ("s/op", "lower", ("lhs.linprog",),
                     lambda g, n, r: _ratio(g.self_time("lhs.linprog"), n)),
    "lhs.solver_rows_mean": ("count", "lower", ("lhs.linprog",),
                             lambda g, n, r: _mean(g.values("lhs.linprog", "rows"))),
    "lhs.solver_cols_mean": ("count", "lower", ("lhs.linprog",),
                             lambda g, n, r: _mean(g.values("lhs.linprog", "cols"))),
    "lhs.solver_nit_mean": ("count", "lower", ("lhs.linprog",),
                            lambda g, n, r: _mean(g.values("lhs.linprog", "nit"))),
    "lhs.cg_rounds_per_lp": ("ratio", "lower", ("lhs.linprog", "lhs.lhs_lp_feasible"),
                             lambda g, n, r: _ratio(g.count("lhs.linprog"), g.count("lhs.lhs_lp_feasible"))),
    "lhs.exact_bound_calls": ("1/op", "lower", ("lhs.exact_lhs_bound",),
                              lambda g, n, r: _ratio(g.count("lhs.exact_lhs_bound"), n)),
    "lhs.exact_bound_s": ("s/op", "lower", ("lhs.exact_lhs_bound",),
                          lambda g, n, r: _ratio(g.self_time("lhs.exact_lhs_bound"), n)),
    "lhs.farkas_absorbed_share": ("ratio", "lower", ("lhs.lhs_lp_feasible", "lhs.detect_steerable"),
                                  lambda g, n, r: _farkas_absorbed_share(g)),
    "lhs.lp_failures": ("count", "lower", ("lhs.lhs_lp_feasible",), lambda g, n, r: _lp_failures(g)),
    "cli.self_s": ("s/op", "lower", ("cli.main",), lambda g, n, r: _ratio(g.self_time("cli.main"), n)),
    "unattributed_s": ("s/op", "lower", (), lambda g, n, r: _ratio(g.self_time(OP), n)),
}

# Filled in by the runner, which measures the same ops with and without wrappers.
RUN_METRICS = {
    "trace.ops_per_s": ("1/s", "higher"),
    "trace.untraced_ops_per_s": ("1/s", "higher"),
    "trace.overhead_share": ("ratio", "lower"),
}


def layer_metrics(tracer: Tracer, n_ops: int, restarts: int) -> dict:
    """Per-layer metrics over the traced ops; ``null`` where a boundary
    the metric needs is absent at this commit."""
    agg = _Aggregate(tracer)
    out = {}
    for name, (unit, _, needs, fn) in LAYER_METRICS.items():
        value = None if any(b in tracer.absent for b in needs) else float(fn(agg, n_ops, restarts))
        out[name] = {"value": value, "unit": unit}
    return out
