"""Derivative-free heuristic searches for one-way steerable family states.

Two campaigns: scenario 1 maximizes the steering-inequality gap with a
penalty on the swapped direction; scenario 2 maximizes the critical-radius
gap, with a cheap low-resolution prefilter stage feeding a full-resolution
stage. Both use a hand-rolled Nelder-Mead simplex (deterministic for fixed
start and parameters) under multi-restart with per-restart seeding.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .lhs import RadiusParams, critical_radius_bounds
from .linalg import PAULIS
from .states import PureState3Q, build_family, reduce_pair, shift_operator, swap_state
from .steering import icosahedron_settings, lhs_bound_L
from .tolerances import TOL

# Nelder-Mead's standard coefficients, its stop on the simplex's spread
# in x, and the size of its initial simplex.
_REFLECTION, _EXPANSION, _CONTRACTION, _SHRINK = 1.0, 2.0, 0.5, 0.5
_SPREAD_TOL, _INITIAL_STEP = 1e-8, 0.25


@dataclass(frozen=True)
class NMParams:
    max_iter: int = 5000


def nelder_mead(objective, x0, params: NMParams = NMParams()):
    """Maximize ``objective`` from ``x0``; returns (x_best, f_best, iters).

    f_best is the best value over every vertex ever evaluated, so it is
    monotone in the iteration count and never below objective(x0); x_best is
    the first point that reached it, which the simplex keeps as its best vertex.
    """
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    simplex = np.vstack([x0, x0 + _INITIAL_STEP * np.eye(n)])
    fvals = np.array([-objective(x) for x in simplex])  # minimize -f internally
    iters = 0
    for iters in range(1, params.max_iter + 1):
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]
        if np.abs(simplex[1:] - simplex[0]).max() <= _SPREAD_TOL:
            break
        centroid = simplex[:-1].sum(axis=0) / n
        xr = centroid + _REFLECTION * (centroid - simplex[-1])
        fr = -objective(xr)
        if fr < fvals[0]:
            xe = centroid + _EXPANSION * (xr - centroid)
            fe = -objective(xe)
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = centroid + _CONTRACTION * (xr - centroid)
            else:
                xc = centroid + _CONTRACTION * (simplex[-1] - centroid)
            fc = -objective(xc)
            if fc < min(fr, fvals[-1]):
                simplex[-1], fvals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + _SHRINK * (simplex[i] - simplex[0])
                    fvals[i] = -objective(simplex[i])
    best = fvals.argmin()
    return simplex[best].copy(), -fvals[best], iters


# --- coefficient parameterizations ----------------------------------------

PARAM_DIMS = {"real-7": 7, "real-8": 8, "complex-16": 16}
_EMBEDDINGS = {7: np.eye(8)[:, :7], 8: np.eye(8), 16: np.kron(np.eye(8), [1, 1j])}


def coeffs_to_state(vec) -> PureState3Q:
    """Raw optimization vector x -> normalized pure three-qubit state with
    amplitudes _EMBEDDINGS[len(x)] @ x: real-7 fixes c_111 = 0, real-8 frees all
    real coefficients, complex-16 interleaves (re, im) pairs. Normalization
    removes the redundant global scale and raises ValueError below TOL.zero_norm."""
    vec = np.asarray(vec, dtype=float)
    if len(vec) not in _EMBEDDINGS:
        raise ValueError(f"unsupported parameter vector length {len(vec)}")
    return PureState3Q(_EMBEDDINGS[len(vec)] @ vec).normalized()


def _reduced_pair(vec) -> tuple:
    psi = coeffs_to_state(vec)
    rho_ab = reduce_pair(build_family(psi, 1.0), "AB")
    return rho_ab, swap_state(rho_ab)


# --- objectives -----------------------------------------------------------

_ICO = icosahedron_settings()
_L_ICO = lhs_bound_L(_ICO)[0]


def _scenario1_forms() -> dict[int, np.ndarray]:
    """Per coefficient count d, real (48 d, d) forms F with (F @ x).reshape(48, d) @ x
    = |x|^2 (b_x . b, T b_x) for each setting b_x, then (b_x . a, T^T b_x), in the Pauli
    form (a, b, T) of rho_AB = tr_C (1/3) sum_k S^k |c><c| S^k+ / |c|^2 at c = _EMBEDDINGS[d] @ x
    (``build_family`` at p = 1, then ``reduce_pair``)."""
    sigma = np.concatenate([np.eye(2)[None], PAULIS])  # I, X, Y, Z
    bx = np.tensordot(_ICO.blochs, PAULIS, axes=1)  # b_x . sigma
    ab = np.einsum("kij,xlm->xkiljm", sigma, bx).reshape(6, 4, 4, 4)  # sigma_k (x) b_x.sigma
    ba = np.einsum("xij,klm->xkiljm", bx, sigma).reshape(6, 4, 4, 4)  # b_x.sigma (x) sigma_k
    obs = np.kron(np.stack([ab, ba]).reshape(48, 4, 4), np.eye(2))  # (x) I_C
    s = shift_operator()
    m = sum(p.conj().T @ obs @ p for p in (np.eye(8), s, s @ s)) / 3
    return {d: np.ascontiguousarray((e.conj().T @ m @ e).real.reshape(-1, d)) for d, e in _EMBEDDINGS.items()}


_S1_FORMS = _scenario1_forms()


def objective_scenario1(coeffs, penalty: float = 2.0) -> float:
    """Q(rho_AB) - penalty * max(0, Q(rho_BA) - L) at p = 1 with the
    icosahedral settings: maximize the violation in one direction while
    penalizing any violation of the swapped direction's classical bound.

    Uses the closed form ||G_x||_1 = max(|b . b_x|, ||T b_x||) in the
    Pauli decomposition of rho_AB, read off quadratic forms in ``coeffs``
    (tested against the generic trace-norm path), to keep a multi-restart
    search desk-scale. Raises ValueError where ``coeffs_to_state`` does.
    """
    x = np.asarray(coeffs, dtype=float)
    norm2 = float(x @ x)
    if len(x) not in _S1_FORMS or math.sqrt(norm2) < TOL.zero_norm:
        coeffs_to_state(x)  # raises its ValueError
    sq = (((_S1_FORMS[len(x)] @ x).reshape(-1, len(x)) @ x) ** 2).reshape(2, 6, 4)
    q_ab, q_ba = np.sqrt(np.maximum(sq[..., 0], sq[..., 1:].sum(axis=-1))).sum(axis=1) / norm2
    return float(q_ab - penalty * max(0.0, q_ba - _L_ICO))


def _radius_midpoint(rho, params: RadiusParams) -> float:
    rep = critical_radius_bounds(rho, params)
    return (rep.r_in + rep.r_out) / 2


_PREFILTER_PARAMS = RadiusParams(meas_level=0, hidden_level=0, bisection_tol=1e-2)
# Weights of the scenario-2 objectives (see their docstrings).
_PREFILTER_DELTA, _PREFILTER_PENALTY = 1.2, 1.0
_C1, _C2, _C3 = 1.0, 1.0, 0.5


def objective_scenario2_prefilter(coeffs) -> float:
    """Cheap stage: maximize rt(BA) - rt(AB) - penalty*max(0, rt(BA)-delta)
    with delta = 1.2 and penalty = 1, where rt is the coarse bracket
    midpoint at low resolution (``_PREFILTER_PARAMS``).

    (This proxies the analytic critical-radius upper bound the original
    procedure used for preprocessing; the functional shape is identical.)
    """
    rho_ab, rho_ba = _reduced_pair(coeffs)
    rt_ab = _radius_midpoint(rho_ab, _PREFILTER_PARAMS)
    rt_ba = _radius_midpoint(rho_ba, _PREFILTER_PARAMS)
    return rt_ba - rt_ab - _PREFILTER_PENALTY * max(0.0, rt_ba - _PREFILTER_DELTA)


def _heaviside(x: float) -> float:
    # H(0) := 0 so exactly-critical points are not penalized
    return 1.0 if x > 0 else 0.0


def objective_scenario2_full(coeffs, radius_params: RadiusParams = RadiusParams()) -> float:
    """Full stage: with R1 = r_out(rho_AB) and R2 = r_in(rho_BA), maximize

        R2 - R1 - c1*max(0, R1-1) - c2*max(0, 1-R2)
              - c3*(H(R1-1) + H(1-R2))

    with c1 = c2 = 1 and c3 = 0.5.
    """
    rho_ab, rho_ba = _reduced_pair(coeffs)
    r1 = critical_radius_bounds(rho_ab, radius_params).r_out
    r2 = critical_radius_bounds(rho_ba, radius_params).r_in
    return (
        r2 - r1
        - _C1 * max(0.0, r1 - 1.0)
        - _C2 * max(0.0, 1.0 - r2)
        - _C3 * (_heaviside(r1 - 1.0) + _heaviside(1.0 - r2))
    )


@dataclass(frozen=True)
class ObjectiveSpec:
    kind: str = "scenario1"  # scenario1 | scenario2_prefilter | scenario2_full
    parameterization: str = "real-7"
    scenario1_penalty: float = 2.0
    radius: RadiusParams = RadiusParams()  # read by scenario2_full only
    nm: NMParams = NMParams()

    def __post_init__(self):
        if self.kind not in ("scenario1", "scenario2_prefilter", "scenario2_full"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.parameterization not in PARAM_DIMS:
            raise ValueError(f"unknown parameterization {self.parameterization!r}")
        if self.scenario1_penalty < 0:
            raise ValueError("scenario1_penalty must be >= 0")

    @property
    def dim(self) -> int:
        return PARAM_DIMS[self.parameterization]

    def objective(self):
        if self.kind == "scenario1":
            return lambda x: objective_scenario1(x, penalty=self.scenario1_penalty)
        if self.kind == "scenario2_prefilter":
            return objective_scenario2_prefilter
        return lambda x: objective_scenario2_full(x, radius_params=self.radius)


@dataclass(frozen=True)
class RestartRecord:
    restart: int
    seed: list
    iters: int
    q: float
    coeffs: list

    def to_json_line(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class SearchResult:
    records: list
    best_q: float
    best_coeffs: np.ndarray

    @property
    def best_state(self) -> PureState3Q:
        return coeffs_to_state(self.best_coeffs)


class ResumeLogError(ValueError):
    """A --resume log line that is not a restart record of this campaign."""


def _number(value, kind=float):
    """``value`` as a ``kind``; ValueError unless it is a finite JSON number of that kind."""
    if type(value) not in (int, float) or not math.isfinite(value) or kind(value) != value:
        raise ValueError(f"{value!r} is not a finite {kind.__name__}")
    return kind(value)


def _load_resume(resume_path, spec: ObjectiveSpec, seed: int, restarts: int) -> dict[int, RestartRecord]:
    """Records of restarts 0..restarts-1 of the campaign (``spec``, ``seed``)
    from a log, each checked to give its q at its coeffs exactly; a line that
    is not a record of this campaign raises ResumeLogError."""
    objective = spec.objective()
    done = {}
    try:
        with open(resume_path) as f:
            for n, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    d = json.loads(line)
                    rec = RestartRecord(
                        restart=_number(d["restart"], int), seed=d["seed"],
                        iters=_number(d["iters"], int), q=_number(d["q"]),
                        coeffs=[_number(v) for v in d["coeffs"]],
                    )
                except (KeyError, TypeError, ValueError, OverflowError) as e:
                    raise ResumeLogError(f"line {n} is not a restart record ({e!r})") from None
                if rec.seed != [seed, rec.restart]:
                    raise ResumeLogError(f"line {n} has seed {rec.seed!r}, not [{seed}, {rec.restart!r}]")
                if len(rec.coeffs) != spec.dim or np.linalg.norm(rec.coeffs) < TOL.zero_norm:
                    raise ResumeLogError(f"line {n} does not hold {spec.dim} coefficients that are not all zero")
                if rec.restart >= restarts:
                    continue
                q = objective(np.array(rec.coeffs))
                if q != rec.q:
                    raise ResumeLogError(f"line {n} has q {rec.q!r}, but this campaign's objective gives {q!r}")
                done[rec.restart] = rec
    except FileNotFoundError:
        pass
    except (OSError, UnicodeDecodeError) as e:
        raise ResumeLogError(f"cannot be read ({e})") from None
    return done


def _run_restarts(spec: ObjectiveSpec, starts, log_file, done: dict) -> SearchResult:
    """Nelder-Mead on ``spec``'s objective from each (restart, seed, x0) of
    ``starts``, or the record in ``done`` of that restart. Each new record
    is one ``log_file.write`` followed by ``flush()``."""
    objective = spec.objective()
    records = []
    for restart, seed, x0 in starts:
        if restart in done:
            records.append(done[restart])
            continue
        x_best, f_best, iters = nelder_mead(objective, x0, spec.nm)
        rec = RestartRecord(
            restart=restart, seed=seed, iters=iters, q=float(f_best),
            coeffs=[float(v) for v in x_best],
        )
        records.append(rec)
        if log_file is not None:
            log_file.write(rec.to_json_line() + "\n")
            log_file.flush()
    best = max(records, key=lambda r: r.q)
    return SearchResult(records=records, best_q=best.q, best_coeffs=np.array(best.coeffs))


def multi_restart(
    spec: ObjectiveSpec, restarts: int, seed: int,
    log_file=None, resume_path=None,
) -> SearchResult:
    """Run Nelder-Mead from ``restarts`` i.i.d. standard-normal starts.

    The generator is keyed on (seed, restart index), so the result is
    independent of execution order and fully reproducible. With
    ``resume_path``, restarts already present in the log are replayed
    from it instead of recomputed.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    done = _load_resume(resume_path, spec, seed, restarts) if resume_path else {}
    starts = ((i, [seed, i], np.random.default_rng([seed, i]).standard_normal(spec.dim))
              for i in range(restarts))
    return _run_restarts(spec, starts, log_file, done)


def two_stage_search(
    full_spec: ObjectiveSpec, restarts: int, seed: int, top_k: int = 3, log_file=None,
) -> SearchResult:
    """Scenario-2 pipeline: cheap prefilter restarts (``full_spec`` with
    the prefilter objective), then the full radius-gap objective started
    from the best prefilter candidates."""
    stage1 = multi_restart(replace(full_spec, kind="scenario2_prefilter"), restarts, seed, log_file=log_file)
    candidates = sorted(stage1.records, key=lambda r: r.q, reverse=True)[:top_k]
    starts = ((rank, c.seed, np.array(c.coeffs)) for rank, c in enumerate(candidates))
    return _run_restarts(full_spec, starts, log_file, {})
