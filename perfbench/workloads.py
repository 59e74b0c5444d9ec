"""The benchmark workloads: inputs, one pass of ops, and the correctness gate.

Every workload runs through cyclesteer's public modules, looked up at call
time (``lhs.critical_radius_bounds``, not a name bound at import), so the
traced run's wrappers see each call. Why each workload exists is written
in perfbench/README.md.

Inputs are fixed pools: the run seed only permutes a pool, and the pool
seed (default ``POOL_SEED``) picks the random states and the search
campaign. Seed-driven sampling was too uneven for a steady run: 30-restart
campaigns from ten seeds took 13.1-19.5 s, and prefilter brackets split
into a 0.04 s mode and a 0.16-0.24 s mode.
"""

from __future__ import annotations

import io
import json
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from cyclesteer import cli, lhs, search, states, steering
import reference

POOL_SEED = 7
S1_RESTARTS = 12
COARSE_STATES = 27
Q_TOL = 1e-9
EDGE_TOL = 1e-12


@dataclass
class Op:
    key: str
    latency_s: float
    error: str | None = None  # exception type raised by the op
    gate: str | None = None   # why the result failed the correctness gate
    result: object = None
    start_s: float = 0.0
    speed: tuple = (0.0, 0.0)  # reference sample taken just before the op

    @property
    def failed(self) -> bool:
        return self.error is not None or self.gate is not None


def _run_op(key, fn, tracer, op_id, kernel_runs=1) -> Op:
    """Time one op; an exception is recorded with its type, never retried."""
    speed = reference.sample(kernel_runs)
    if tracer is not None:
        tracer.begin_op(op_id)
    t0 = perf_counter()
    try:
        result, error = fn(), None
    except Exception as exc:  # op boundary: record the failure and go on
        result, error = None, type(exc).__name__
        traceback.print_exc(file=sys.stderr)
    latency = perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    return Op(key, latency, error, result=result, start_s=t0, speed=speed)


def _check_bracket(rep, t_cap=None) -> str | None:
    r_in, r_out = rep["r_in"], rep["r_out"]
    if not r_in <= r_out + EDGE_TOL:
        return f"r_in {r_in} > r_out {r_out}"
    if t_cap is not None and not r_out <= t_cap + EDGE_TOL:
        return f"r_out {r_out} > t_cap {t_cap}"
    return None


def _report_dict(rep) -> dict:
    return {"r_in": rep.r_in, "r_out": rep.r_out, "t_cap": rep.t_cap}


class Workload:
    name = ""
    passes = 3       # per run of NOMINAL_SECONDS
    kernel_runs = 1  # reference kernel runs per speed sample; more around long ops
    restart_ops = False

    def inputs(self, seed: int, pool_seed: int):
        raise NotImplementedError

    def run_pass(self, inputs, tracer, first_id: int) -> list[Op]:
        return [
            _run_op(key, lambda key=key: self.op(key), tracer, first_id + i, self.kernel_runs)
            for i, key in enumerate(inputs)
        ]

    def op(self, key):
        raise NotImplementedError

    def gate(self, ops: list[Op]) -> list[str]:
        """Set ``op.gate`` on each wrong result; return run-level errors."""
        for op in ops:
            if op.error is None:
                op.gate = self.check(op)
        return []

    def check(self, op: Op) -> str | None:
        return None

    def quality(self, ops: list[Op]) -> dict:
        """Result quality that a faster but sloppier program would lose."""
        widths = [r["r_out"] - r["r_in"] for op in ops if op.error is None for r in self.brackets(op)]
        return {"bracket_width_mean": statistics.fmean(widths)} if widths else {}

    def brackets(self, op: Op) -> list[dict]:
        return [op.result]


class S1Search(Workload):
    """Scenario-1 Nelder-Mead campaign; one op is one restart."""

    name = "s1-search"
    passes = 5
    restart_ops = True
    spec = search.ObjectiveSpec(kind="scenario1", parameterization="real-7")

    def inputs(self, seed, pool_seed):
        # multi_restart keys its restarts on (campaign seed, index), so the
        # run seed cannot reorder them; the pool seed is the campaign seed.
        return pool_seed, S1_RESTARTS

    def run_pass(self, inputs, tracer, first_id):
        campaign_seed, restarts = inputs
        log = _RestartLog(tracer, first_id)
        try:
            search.multi_restart(self.spec, restarts, campaign_seed, log_file=log)
        except Exception as exc:  # the restart in progress failed; the pass ends here
            traceback.print_exc(file=sys.stderr)
            log.fail(type(exc).__name__)
        log.close()
        return log.ops

    def gate(self, ops):
        ico = steering.icosahedron_settings()
        L = steering.lhs_bound_L(ico)[0]
        penalty = self.spec.scenario1_penalty
        for op in ops:
            if op.error is not None:
                continue
            rec = json.loads(op.result)
            rho3 = states.build_family(search.coeffs_to_state(rec["coeffs"]), 1.0)
            q_ab = steering.quantum_value_Q(states.reduce_pair(rho3, "AB"), ico)[0]
            q_ba = steering.quantum_value_Q(states.reduce_pair(rho3, "BA"), ico)[0]
            q_ref = q_ab - penalty * max(0.0, q_ba - L)
            if not abs(rec["q"] - q_ref) <= Q_TOL:
                op.gate = f"q {rec['q']!r} differs from eigendecomposition value {q_ref!r}"
        best = self.quality(ops).get("best_q")
        if best is None or not best > L:
            return [f"best_q {best} does not exceed L = {L}"]
        return []

    def quality(self, ops):
        qs = [json.loads(op.result)["q"] for op in ops if op.error is None]
        return {"best_q": max(qs)} if qs else {}


class _RestartLog:
    """File-like log target for multi_restart: each record written closes
    one restart, so ops are timed from outside the search."""

    def __init__(self, tracer, first_id):
        self.ops: list[Op] = []
        self.tracer = tracer
        self.first_id = first_id
        self._start()

    def _start(self):
        self.speed = reference.sample()
        if self.tracer is not None:
            self.tracer.begin_op(self.first_id + len(self.ops))
        self.last = perf_counter()

    def _op(self, **kw) -> Op:
        return Op(f"restart {len(self.ops)}", perf_counter() - self.last, start_s=self.last,
                  speed=self.speed, **kw)

    def write(self, text):
        op = self._op(result=text)
        if self.tracer is not None:
            self.tracer.end_op()
        self.ops.append(op)
        self._start()

    def flush(self):
        pass

    def fail(self, error):
        self.ops.append(self._op(error=error))

    def close(self):
        if self.tracer is not None:
            self.tracer.end_op()


# Brackets of this commit at the workloads' parameters, as (r_in, r_out).
# A later program may tighten a bracket; widening one by more than one
# bisection step means it got faster by resolving less, and fails the gate.
DEFAULT_REFERENCE = {
    "b1": {"rho_AB": (0.805677409, 1.01387136), "rho_BA": (0.819205795, 1.06307864)},
    "b2": {"rho_AB": (0.809025834, 1.01808504), "rho_BA": (0.822015002, 1.06191184)},
    "b3": {"rho_AB": (0.807055064, 1.01560501), "rho_BA": (0.80820574, 1.0477488)},
    "sc1": {"rho_AB": (0.72404752, 0.937515221), "rho_BA": (0.719394817, 0.932636934)},
}
DEFAULT_TOL = 1e-3
FINE_REFERENCE = (0.45248973637256534, 0.5234375)
FINE_TOL = 1e-2


def _wider(rep, ref_bracket, tol) -> str | None:
    width, ref = rep["r_out"] - rep["r_in"], ref_bracket[1] - ref_bracket[0]
    if width > ref + tol:
        return f"bracket width {width:.6g} exceeds reference {ref:.6g} by more than {tol:g}"
    return None


class RadiusDefault(Workload):
    """``cyclesteer scenario2`` on the builtin search states at default
    parameters; one op is one report (two brackets)."""

    name = "radius-default"
    passes = 2
    kernel_runs = 7
    argv = ["--meas-level", "0", "--hidden-level", "2", "--tol", str(DEFAULT_TOL)]

    def inputs(self, seed, pool_seed):
        ids = sorted(DEFAULT_REFERENCE)
        return [ids[i] for i in np.random.default_rng(seed).permutation(len(ids))]

    def op(self, state_id):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["scenario2", "--state", f"builtin:{state_id}", *self.argv])
        return {"state": state_id, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def check(self, op):
        res = op.result
        if res["exit"] != 0:
            return f"exit code {res['exit']}: {res['stderr'].strip()}"
        report = json.loads(res["stdout"])
        for pair in ("rho_AB", "rho_BA"):
            problem = _check_bracket(report[pair]) or _wider(
                report[pair], DEFAULT_REFERENCE[res["state"]][pair], DEFAULT_TOL)
            if problem:
                return f"{res['state']} {pair}: {problem}"
        if res["state"] == "b1":
            # acceptance 08's reference interval for b1
            if not report["rho_AB"]["r_in"] <= 0.99822006 + 1e-9:
                return "b1 r_in(AB) above the reference r_out 0.99822006"
            if not report["rho_BA"]["r_out"] >= 1.0000028 - 1e-9:
                return "b1 r_out(BA) below the reference r_in 1.0000028"
        if res["state"] != "sc1" and report["verdict"] == "refuted":
            return f"{res['state']} verdict refuted"
        return None

    def brackets(self, op):
        report = json.loads(op.result["stdout"]) if op.result["exit"] == 0 else {}
        return [report[p] for p in ("rho_AB", "rho_BA") if p in report]


class CoarseBrackets(Workload):
    """Prefilter brackets on random real-7 family states: each state is one
    ``objective_scenario2_prefilter`` evaluation, AB then BA; one op is one
    bracket, including its state preparation."""

    name = "coarse-brackets"
    params = lhs.RadiusParams(meas_level=0, hidden_level=0, bisection_tol=1e-2)

    def inputs(self, seed, pool_seed):
        coeffs = np.random.default_rng(pool_seed).standard_normal((COARSE_STATES, 7))
        pool = [search.coeffs_to_state(c) for c in coeffs]
        order = np.random.default_rng(seed).permutation(COARSE_STATES)
        return [(int(j), pool[j]) for j in order]

    def run_pass(self, inputs, tracer, first_id):
        ops = []
        for j, psi in inputs:
            pair = {}

            def ab(psi=psi, pair=pair):
                pair["AB"] = states.reduce_pair(states.build_family(psi, 1.0), "AB")
                return _report_dict(lhs.critical_radius_bounds(pair["AB"], self.params))

            def ba(pair=pair):
                return _report_dict(lhs.critical_radius_bounds(states.swap_state(pair["AB"]), self.params))

            ops.append(_run_op(f"state {j} AB", ab, tracer, first_id + len(ops)))
            ops.append(_run_op(f"state {j} BA", ba, tracer, first_id + len(ops)))
        return ops

    def check(self, op):
        return _check_bracket(op.result, op.result["t_cap"])


class RadiusFine(Workload):
    """Singlet bracket at measurement level 1 (m = 21), where column
    generation and the 2^21 exact re-bounding run; one op is one bracket."""

    name = "radius-fine"
    passes = 1
    kernel_runs = 25
    params = lhs.RadiusParams(meas_level=1, hidden_level=1, bisection_tol=FINE_TOL)

    def inputs(self, seed, pool_seed):
        return ["singlet"]

    def op(self, key):
        return _report_dict(lhs.critical_radius_bounds(states.singlet(), self.params))

    def check(self, op):
        rep = op.result
        if not rep["r_in"] <= 0.5 <= rep["r_out"]:
            return f"singlet bracket [{rep['r_in']}, {rep['r_out']}] misses the threshold 0.5"
        return _check_bracket(rep, rep["t_cap"]) or _wider(rep, FINE_REFERENCE, FINE_TOL)


WORKLOADS = {w.name: w for w in (S1Search(), RadiusDefault(), CoarseBrackets(), RadiusFine())}
