"""End-to-end acceptance checks, one per shipped guarantee.

Each test records a single machine-readable PASS/FAIL line in addition
to its asserts; conftest.py replays the collected lines as a terminal
summary section, so a plain ``pytest -v`` run leaves a human-auditable
checklist in the output.
"""

import io
import sys
import time

import numpy as np
import pytest

from cyclesteer.entanglement import gte_criterion, negativity
from cyclesteer.lhs import (
    RadiusParams,
    certify_unsteerable_shrunk,
    critical_radius_bounds,
    detect_steerable,
    lhs_lp_feasible,
    one_way_report,
    radial_mix_state,
)
from cyclesteer.linalg import DensityMatrix
from cyclesteer.polytope import antipodal_directions, sphere_polytope
from cyclesteer.search import NMParams, ObjectiveSpec, multi_restart
from cyclesteer.states import (
    BUILTIN_IDS,
    SHIFT_OPERATOR,
    PureState3Q,
    build_family,
    builtin_state,
    reduce_pair,
    singlet,
    swap_state,
)
from cyclesteer.steering import icosahedron_settings, lhs_bound_L, make_assemblage, quantum_value_Q


RESULTS: list[str] = []


def _announce(number: int, label: str, ok: bool):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance {number:02d}] {label}: {status}"
    RESULTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


class check:
    """Context manager printing the one-line verdict for a criterion."""

    def __init__(self, number, label):
        self.number, self.label = number, label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _announce(self.number, self.label, exc_type is None)
        return False


ICO = icosahedron_settings()


def sc1_reduced():
    rho3 = build_family(builtin_state("sc1").normalized(), 1.0)
    return reduce_pair(rho3, "AB")


def test_01_lhs_bound():
    with check(1, "classical bound 1+sqrt(5) with optimizing signs"):
        t0 = time.perf_counter()
        L, signs = lhs_bound_L(ICO)
        elapsed = time.perf_counter() - t0
        assert abs(L - (1 + np.sqrt(5))) <= 1e-9
        target = np.array([-1, 1, 1, 1, 1, 1])
        assert np.array_equal(signs, target) or np.array_equal(signs, -target)
        assert elapsed < 1.0


def test_02_scenario1_quantum_values():
    with check(2, "six-setting quantum values and one-way conditions"):
        t0 = time.perf_counter()
        rho_ab = sc1_reduced()
        L, _ = lhs_bound_L(ICO)
        q_ab, _ = quantum_value_Q(rho_ab, ICO)
        q_ba, _ = quantum_value_Q(swap_state(rho_ab), ICO)
        assert abs(q_ab - 3.2688) <= 5e-4
        assert abs(q_ba - 3.2360) <= 5e-4
        assert q_ab > L
        assert q_ba <= L + 1e-4
        assert time.perf_counter() - t0 < 1.0


PRINTED_A_VECTORS = np.array(
    [
        [0.1, 0.7664, -0.6346],
        [-0.1, 0.7664, 0.6346],
        [0.4959, 0.8683, 0.0099],
        [0.4959, -0.8683, 0.0099],
        [0.9563, 0.0, -0.2925],
        [0.0, 0.0, 0.0],
    ]
)


def test_03_optimal_observables():
    with check(3, "recomputed observable vectors match the reference table"):
        _, obs = quantum_value_Q(sc1_reduced(), ICO)
        for o, ref in zip(obs, PRINTED_A_VECTORS):
            direct = np.abs(o.bloch - ref).max()
            flipped = np.abs(o.bloch + ref).max()
            assert min(direct, flipped) <= 2e-3


def test_04_negativities():
    with check(4, "reduced-state negativities"):
        expected = {"sc1": 0.1517, "b1": 0.0630, "b2": 0.0679, "b3": 0.0600}
        for sid, ref in expected.items():
            rho3 = build_family(builtin_state(sid).normalized(), 1.0)
            n = negativity(reduce_pair(rho3, "AB"), 0)
            assert abs(n - ref) <= 5e-4, sid
        assert abs(negativity(singlet(), 0) - 0.5) <= 1e-10


def test_05_gte_criterion():
    with check(5, "tripartite-entanglement criterion on the search states"):
        res3 = gte_criterion(build_family(builtin_state("b3").normalized(), 1.0))
        assert res3.detected
        assert abs(res3.lhs - 0.0621) <= 5e-4
        assert abs(res3.rhs - 0.0588) <= 5e-4
        for sid in ("b1", "b2"):
            res = gte_criterion(build_family(builtin_state(sid).normalized(), 1.0))
            assert not res.detected, sid


def test_06_symmetry_suite():
    with check(6, "shift invariance of 1000 random family states"):
        rng = np.random.default_rng(2024)
        s = SHIFT_OPERATOR
        for _ in range(1000):
            c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            psi = PureState3Q(c).normalized()
            rho = build_family(psi, rng.uniform())
            assert np.abs(s @ rho.mat @ s.conj().T - rho.mat).max() <= 1e-12
            ab = reduce_pair(rho, "AB").mat
            assert np.abs(ab - reduce_pair(rho, "BC").mat).max() <= 1e-12
            assert np.abs(ab - reduce_pair(rho, "CA").mat).max() <= 1e-12


def test_07_singlet_radius_bracket():
    with check(7, "singlet critical-radius bracket around one half"):
        rep = critical_radius_bounds(singlet(), RadiusParams(meas_level=0, hidden_level=2))
        assert len(antipodal_directions(sphere_polytope(0))) >= 6
        assert rep.steerable_detected and rep.unsteerable_certified
        assert rep.r_in <= 0.5 <= rep.r_out
        assert rep.r_out <= 0.56
        assert rep.r_in >= 0.40


def test_08_interval_consistency_b1():
    with check(8, "reference-interval consistency for the first search state"):
        rho3 = build_family(builtin_state("b1").normalized(), 1.0)
        rho_ab = reduce_pair(rho3, "AB")
        rep = one_way_report(rho_ab, RadiusParams())
        # our certified bracket must be consistent with the reference bracket:
        # lower bounds stay below its r_out, upper bounds above its r_in
        assert rep.report_ab.r_in <= 0.99822006 + 1e-9
        assert rep.report_ba.r_out >= 1.0000028 - 1e-9
        assert rep.verdict != "refuted"
        # certifying the full one-way property at delta ~ 0.0018 needs far
        # tighter discretizations than the generic LP method affords at
        # desk scale, so "undetermined" is the expected honest verdict
        assert rep.verdict in ("certified-cyclic", "undetermined-at-this-resolution")


def test_09_lp_soundness_random_states():
    with check(9, "LP soundness and certificate closure on random states"):
        rng = np.random.default_rng(77)
        meas = sphere_polytope(0)
        hidden = sphere_polytope(1)
        directions = antipodal_directions(meas)
        ts = [0.3, 0.6, 0.9, 1.0]
        for _ in range(50):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = g @ g.conj().T
            rho = DensityMatrix(m / np.trace(m), (2, 2))
            detected_at, certified_at = [], []
            for t in ts:
                mixed = radial_mix_state(rho, t)
                steer, functional = detect_steerable(mixed, directions, hidden)
                if steer:
                    detected_at.append(t)
                    # Farkas closure: the functional beats its exact
                    # Bloch-ball LHS bound on the originating assemblage
                    a = make_assemblage(mixed, directions)
                    assert functional.value(a) > functional.exact_lhs_bound()
                if certify_unsteerable_shrunk(mixed, meas, hidden):
                    certified_at.append(t)
            # no contradiction: a certified-unsteerable shrunk state
            # (radius eta*t) is never also detected steerable
            for tc in certified_at:
                for td in detected_at:
                    assert td > meas.eta * tc - 1e-12
            # monotone consistency along the ray
            for lo, hi in zip(ts, ts[1:]):
                if lo in detected_at:
                    assert hi in detected_at
                if hi in certified_at:
                    assert lo in certified_at


def test_10_search_reproduction():
    with check(10, "multi-restart search reproduces the best reference gap"):
        spec = ObjectiveSpec(kind="scenario1", parameterization="real-7")
        # determinism: identical seed gives byte-identical logs
        quick = ObjectiveSpec(kind="scenario1", nm=NMParams(max_iter=80))
        log_a, log_b = io.StringIO(), io.StringIO()
        multi_restart(quick, 6, seed=7, log_file=log_a)
        multi_restart(quick, 6, seed=7, log_file=log_b)
        assert log_a.getvalue() == log_b.getvalue()
        assert log_a.getvalue().count("\n") == 6
        # full campaign: 500 restarts from the documented seed
        result = multi_restart(spec, 500, seed=7)
        assert result.best_q >= 3.26

