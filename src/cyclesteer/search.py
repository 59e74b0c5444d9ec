"""Derivative-free heuristic searches for one-way steerable family states.

Two campaigns: scenario 1 maximizes the steering-inequality gap with a
penalty on the swapped direction; scenario 2 maximizes the critical-radius
gap, with a cheap low-resolution prefilter stage feeding a full-resolution
stage. Both use a hand-rolled Nelder-Mead simplex (deterministic for fixed
start and parameters) under multi-restart with per-restart seeding; the
restarts of a scenario-1 campaign step in lockstep through one batched
objective, each on the bits it would reach alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .lhs import RadiusParams, one_way_report
from .linalg import PAULIS
from .states import SHIFT_OPERATOR, PureState3Q, build_family, reduce_pair
from .steering import icosahedron_settings, lhs_bound_L
from .tolerances import TOL

# Nelder-Mead's standard coefficients, its stop on the simplex's spread
# in x, and the size of its initial simplex.
_REFLECTION, _EXPANSION, _CONTRACTION, _SHRINK = 1.0, 2.0, 0.5, 0.5
_SPREAD_TOL, _INITIAL_STEP = 1e-8, 0.25
# Scenario-1 restarts step in lockstep blocks of at most this many, which
# bounds a campaign's memory: 20 000 restarts at max_iter 30 peaked at
# 567 MB in one stack and at 110 MB in blocks.
_LOCKSTEP_BLOCK = 512


def _check_count(name: str, value, least: int):
    """ValueError unless ``value`` is an int >= ``least`` (a bool is not a count)."""
    if type(value) is not int or value < least:
        raise ValueError(f"{name} {value!r} is not an integer >= {least}")


@dataclass(frozen=True)
class NMParams:
    max_iter: int = 5000

    def __post_init__(self):
        _check_count("max_iter", self.max_iter, 0)


def nelder_mead(objective, x0, params: NMParams = NMParams()):
    """Maximize ``objective`` from ``x0``; returns (x_best, f_best, iters).

    f_best is the best value over every vertex ever evaluated, so it is
    monotone in the iteration count and never below objective(x0); x_best is
    the first point that reached it, which the simplex keeps as its best vertex.
    """
    [(_, x_best, f_best, iters)] = _lockstep(_per_row(objective), [x0], params)
    return x_best, f_best, iters


def _per_row(objective):
    """A batch objective that calls ``objective`` on each row in turn."""
    return lambda xs: np.array([objective(x) for x in xs], dtype=float)


def _lockstep(objective, x0s, params: NMParams):
    """Nelder-Mead from each row of ``x0s`` (R, n) at once; yields (row,
    x_best, f_best, iters) for each row at the iteration where it stops.

    ``objective`` maps a (k, n) batch to its k values, each independent of
    the other rows. Every row takes the steps a one-start run would, in the
    same order and with the same arithmetic, so it ends on the same bits:
    per-row masks pick reflection, expansion, contraction or shrink, and a
    row leaves the stack when its simplex's spread is within _SPREAD_TOL.
    """
    x0s = np.asarray(x0s, dtype=float)
    rows, n = np.arange(len(x0s)), x0s.shape[1]
    simplex = np.concatenate([x0s[:, None], x0s[:, None] + _INITIAL_STEP * np.eye(n)], axis=1)
    fvals = -objective(simplex.reshape(-1, n)).reshape(-1, n + 1)  # minimize -f internally
    iters = 0
    for iters in range(1, params.max_iter + 1):
        at, order = np.arange(len(rows))[:, None], np.argsort(fvals, axis=1, kind="stable")
        simplex, fvals = simplex[at, order], fvals[at, order]
        stop = np.abs(simplex[:, 1:] - simplex[:, :1]).max(axis=(1, 2)) <= _SPREAD_TOL
        if stop.any():
            yield from _best(rows[stop], simplex[stop], fvals[stop], iters)
            rows, simplex, fvals = rows[~stop], simplex[~stop], fvals[~stop]
            if not len(rows):
                return
        centroid = simplex[:, :-1].sum(axis=1) / n
        worst, f_worst = simplex[:, -1], fvals[:, -1]
        xr = centroid + _REFLECTION * (centroid - worst)
        fr = -objective(xr)
        expand = fr < fvals[:, 0]
        contract = ~expand & ~(fr < fvals[:, -2])
        # the second point: expansion, or contraction on the side of the better of xr and worst
        x2 = np.where(expand[:, None], centroid + _EXPANSION * (xr - centroid),
                      centroid + _CONTRACTION * (np.where((fr < f_worst)[:, None], xr, worst) - centroid))
        f2 = np.full_like(fr, np.nan)
        second = expand | contract
        if second.any():
            f2[second] = -objective(x2[second])
        # accept x2 below fr (expansion) or below min(fr, f_worst) as Python's min takes it
        take2 = f2 < np.where(contract & (f_worst < fr), f_worst, fr)
        take_r = ~take2 & ~contract
        simplex[:, -1] = np.where(take2[:, None], x2, np.where(take_r[:, None], xr, worst))
        fvals[:, -1] = np.where(take2, f2, np.where(take_r, fr, f_worst))
        shrink = contract & ~take2
        if shrink.any():
            best = simplex[shrink, :1]
            simplex[shrink, 1:] = best + _SHRINK * (simplex[shrink, 1:] - best)
            fvals[shrink, 1:] = -objective(simplex[shrink, 1:].reshape(-1, n)).reshape(-1, n)
    yield from _best(rows, simplex, fvals, iters)


def _best(rows, simplex, fvals, iters):
    """(row, x_best, f_best, iters) of each row, at its first best vertex."""
    for row, s, f in zip(rows, simplex, fvals):
        best = f.argmin()
        yield int(row), s[best].copy(), -f[best], iters


# --- coefficient parameterizations ----------------------------------------

PARAM_DIMS = {"real-7": 7, "real-8": 8, "complex-16": 16}
_EMBEDDINGS = {7: np.eye(8)[:, :7], 8: np.eye(8), 16: np.kron(np.eye(8), [1, 1j])}


def coeffs_to_state(vec) -> PureState3Q:
    """Raw optimization vector x -> normalized pure three-qubit state with
    amplitudes _EMBEDDINGS[len(x)] @ x: real-7 fixes c_111 = 0, real-8 frees all
    real coefficients, complex-16 interleaves (re, im) pairs. Normalization
    removes the redundant global scale. ValueError on a non-finite entry or
    a norm below TOL.zero_norm."""
    vec = np.asarray(vec, dtype=float)
    if len(vec) not in _EMBEDDINGS:
        raise ValueError(f"unsupported parameter vector length {len(vec)}")
    if not np.isfinite(vec).all():  # before the embedding, where 0 * inf is NaN
        raise ValueError("parameter vector has a non-finite entry")
    return PureState3Q(_EMBEDDINGS[len(vec)] @ vec).normalized()


def _reduced_pair(vec):
    """rho_AB of the family state at p = 1 with coefficients ``vec``."""
    return reduce_pair(build_family(coeffs_to_state(vec), 1.0), "AB")


# --- objectives -----------------------------------------------------------

_ICO = icosahedron_settings()
_L_ICO = lhs_bound_L(_ICO)[0]


def _scenario1_forms() -> dict[int, np.ndarray]:
    """Per coefficient count d, real (48 d, d) forms F with (F @ x).reshape(48, d) @ x
    = |x|^2 (b_x . b, T b_x) for each setting b_x, then (b_x . a, T^T b_x), in the Pauli
    form (a, b, T) of rho_AB = tr_C (1/3) sum_k S^k |c><c| S^k+ / |c|^2 at c = _EMBEDDINGS[d] @ x
    (``build_family`` at p = 1, then ``reduce_pair``)."""
    sigma = np.concatenate([np.eye(2)[None], PAULIS])  # I, X, Y, Z
    bx = np.tensordot(_ICO, PAULIS, axes=1)  # b_x . sigma
    ab = np.einsum("kij,xlm->xkiljm", sigma, bx).reshape(6, 4, 4, 4)  # sigma_k (x) b_x.sigma
    ba = np.einsum("xij,klm->xkiljm", bx, sigma).reshape(6, 4, 4, 4)  # b_x.sigma (x) sigma_k
    obs = np.kron(np.stack([ab, ba]).reshape(48, 4, 4), np.eye(2))  # (x) I_C
    s = SHIFT_OPERATOR
    m = sum(p.conj().T @ obs @ p for p in (np.eye(8), s, s @ s)) / 3
    return {d: np.ascontiguousarray((e.conj().T @ m @ e).real.reshape(-1, d)) for d, e in _EMBEDDINGS.items()}


_S1_FORMS = _scenario1_forms()
# Weight of the swapped direction's violation in the scenario-1 objective.
_S1_PENALTY = 2.0


def objective_scenario1(coeffs):
    """Q(rho_AB) - _S1_PENALTY max(0, Q(rho_BA) - L) at p = 1 with the
    icosahedral settings: maximize the violation in one direction while
    penalizing any violation of the swapped direction's classical bound.

    Uses the closed form ||G_x||_1 = max(|b . b_x|, ||T b_x||) in the
    Pauli decomposition of rho_AB, read off quadratic forms in ``coeffs``
    (tested against the generic trace-norm path), to keep a multi-restart
    search desk-scale. One vector (d,) gives a float and a batch (R, d) an
    array of R values; stacked matrix-vector products give each row the
    bits it has alone. Raises ValueError where ``coeffs_to_state`` does,
    for any row.
    """
    x = np.asarray(coeffs, dtype=float)
    X = x.reshape(-1, x.shape[-1])
    R, d = X.shape
    norm2 = (X[:, None, :] @ X[:, :, None]).reshape(R)
    ok = (TOL.zero_norm <= np.sqrt(norm2)) & (norm2 < np.inf)  # False at NaN
    if d not in _S1_FORMS or not ok.all():
        coeffs_to_state(X[ok.argmin()])  # raises its ValueError
    sq = (((_S1_FORMS[d] @ X[:, :, None]).reshape(R, -1, d) @ X[:, :, None]) ** 2).reshape(R, 2, 6, 4)
    q = np.sqrt(np.maximum(sq[..., 0], sq[..., 1:].sum(axis=-1))).sum(axis=-1) / norm2[:, None]
    value = q[:, 0] - _S1_PENALTY * np.fmax(q[:, 1] - _L_ICO, 0.0)  # fmax: max(0, .) even at NaN
    return float(value[0]) if x.ndim == 1 else value


_PREFILTER_PARAMS = RadiusParams(meas_level=0, hidden_level=0, bisection_tol=1e-2)
# Weights of the scenario-2 objectives (see their docstrings).
_PREFILTER_DELTA, _PREFILTER_PENALTY = 1.2, 1.0
_C1, _C2, _C3 = 1.0, 1.0, 0.5
# The two-stage search starts this many full-stage restarts.
_TOP_K = 3


def objective_scenario2_prefilter(coeffs) -> float:
    """Cheap stage: maximize rt(BA) - rt(AB) - penalty*max(0, rt(BA)-delta)
    with delta = 1.2 and penalty = 1, where rt is the coarse bracket
    midpoint at low resolution (``_PREFILTER_PARAMS``).

    (This proxies the analytic critical-radius upper bound the original
    procedure used for preprocessing; the functional shape is identical.)
    """
    rep = one_way_report(_reduced_pair(coeffs), _PREFILTER_PARAMS)
    rt_ab, rt_ba = ((r.r_in + r.r_out) / 2 for r in (rep.report_ab, rep.report_ba))
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
    rep = one_way_report(_reduced_pair(coeffs), radius_params)
    r1, r2 = rep.report_ab.r_out, rep.report_ba.r_in
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
    radius: RadiusParams = RadiusParams()  # read by scenario2_full only
    nm: NMParams = NMParams()
    scenario1_penalty = _S1_PENALTY  # a class attribute, not a field: no spec sets it

    def __post_init__(self):
        if self.kind not in ("scenario1", "scenario2_prefilter", "scenario2_full"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.parameterization not in PARAM_DIMS:
            raise ValueError(f"unknown parameterization {self.parameterization!r}")

    @property
    def dim(self) -> int:
        return PARAM_DIMS[self.parameterization]

    def objective(self):
        if self.kind == "scenario1":
            return objective_scenario1
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

    @property
    def best_q(self) -> float:
        return max(r.q for r in self.records)

    @property
    def best_coeffs(self) -> np.ndarray:
        """The coefficients of the first record with the largest q."""
        return np.array(max(self.records, key=lambda r: r.q).coeffs)

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
                if rec.restart < 0:
                    raise ResumeLogError(f"line {n} has restart {rec.restart}, not an index >= 0")
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
    ``starts``, or the record in ``done`` of that restart. Scenario-1
    restarts run in lockstep batches of _LOCKSTEP_BLOCK through the batched
    kernel; each scenario-2 restart, whose every evaluation is an LP
    bracket, runs alone.
    Each new record is one ``log_file.write`` followed by ``flush()``, in the
    order of ``starts``, as soon as it and every earlier new record are done."""
    starts = list(starts)
    todo = [start for start in starts if start[0] not in done]
    if spec.kind == "scenario1":
        objective = spec.objective()
        batches = [todo[i : i + _LOCKSTEP_BLOCK] for i in range(0, len(todo), _LOCKSTEP_BLOCK)]
    else:
        objective, batches = _per_row(spec.objective()), [[start] for start in todo]
    found, written = dict(done), 0
    for batch in batches:
        for i, x_best, f_best, iters in _lockstep(objective, [x0 for _, _, x0 in batch], spec.nm):
            restart, seed, _ = batch[i]
            found[restart] = RestartRecord(
                restart=restart, seed=seed, iters=iters, q=float(f_best),
                coeffs=[float(v) for v in x_best],
            )
            while written < len(todo) and todo[written][0] in found:
                if log_file is not None:
                    log_file.write(found[todo[written][0]].to_json_line() + "\n")
                    log_file.flush()
                written += 1
    return SearchResult(records=[found[restart] for restart, _, _ in starts])


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
    _check_count("restarts", restarts, 1)
    _check_count("seed", seed, 0)
    done = _load_resume(resume_path, spec, seed, restarts) if resume_path else {}
    starts = ((i, [seed, i], np.random.default_rng([seed, i]).standard_normal(spec.dim))
              for i in range(restarts))
    return _run_restarts(spec, starts, log_file, done)


def two_stage_search(full_spec: ObjectiveSpec, restarts: int, seed: int, log_file=None) -> SearchResult:
    """Scenario-2 pipeline: cheap prefilter restarts (``full_spec`` with
    the prefilter objective), then the full radius-gap objective started
    from the _TOP_K best prefilter candidates."""
    stage1 = multi_restart(replace(full_spec, kind="scenario2_prefilter"), restarts, seed, log_file=log_file)
    candidates = sorted(stage1.records, key=lambda r: r.q, reverse=True)[:_TOP_K]
    starts = ((rank, c.seed, np.array(c.coeffs)) for rank, c in enumerate(candidates))
    return _run_restarts(full_spec, starts, log_file, {})
