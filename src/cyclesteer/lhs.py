"""LP-based local-hidden-state machinery.

Feasibility of an LHS model for a finite assemblage over a discretized
Bloch sphere, steering detection with Farkas certificates, unsteerability
certification for all projective measurements via inradius shrinking, and
certified critical-radius bracketing [r_in, r_out].

The LP asks for nonnegative weights w_{lambda,k} with

    sum_{lambda,k} D_lambda(a|x) w_{lambda,k} [1, r_k] = ps[x, a]

where lambda runs over deterministic outcome assignments, r_k over the
Bloch vectors of hidden states on polytope vertices, and ps is the
assemblage in its (m, 2, 4) layout (see :mod:`cyclesteer.steering`),
whose raveled entries are the LP rows; the dual, reshaped to (m, 2, 4),
is a Farkas functional. An LHS model is reconstructed in that layout and
checked by its max-abs error over [p, s], which bounds the error of
every entry of the 2x2 matrices sigma_{a|x}. ``restrict`` mode keeps the
vertices as given (feasibility certifies an LHS model); ``relax`` mode
scales them by 1/eta so the hull contains the Bloch ball (infeasibility
certifies steering). Strategies are enumerated while the column count is
desk-scale and generated by exact pricing above that; the enumerated
matrix is built once per (hidden polytope, m, mode).

Brackets come from a *locator* LP per side. Along the radial family
rho(t) = t rho + (1 - t) I/2 (x) rho_B the right-hand side is affine,
b(t) = b0 + t (b1 - b0), so the set of t in [0, t_cap] with an LP
solution is the projection of a polyhedron: an interval (and it contains
t = 0 whenever it is non-empty, since Bob's marginal does not depend on
t). One LP, max t s.t. A w + t (b0 - b1) = b0, finds its upper end. The
locator is not a certificate: every reported bound is re-checked by an
independent certificate after it (an LHS model reconstructed and
compared with the assemblage for r_in, a Farkas functional beating its
exact Bloch-ball bound for r_out). The inner bound is checked a margin
below the located t, because the LP optimum sits on the boundary of the
feasible set, where the phase-1 certificate would rest on solver
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .linalg import DensityMatrix, ID2, partial_trace
from .polytope import SpherePolytope, antipodal_directions, sphere_polytope
from .steering import Assemblage, make_assemblage, max_over_strategies, strategy_blocks
from .tolerances import TOL

DENSE_MAX_SETTINGS = 13
DENSE_COLUMN_CAP = 700_000
_PRICING_TOL = 1e-9
_CG_MAX_ROUNDS = 400
_CG_COLUMNS_PER_ROUND = 40
# Weight M on the locator's slacks. The penalty is exact (the slacks stay
# at zero whenever some t is feasible) once M exceeds the largest dual of
# the max-t LP; over the builtin, random and family states at hidden
# levels 0 and 2 that dual was at most 27, and M = 10 already failed.
_LOCATOR_PENALTY = 1e4
# A Farkas functional detects steering where its value exceeds its exact
# ball bound by more than this.
_DETECTION_MARGIN = 1e-12
# t_cap is the largest t <= T_CAP_MAX at which the radial mix is a state.
T_CAP_MAX = 2.0


class LpFailure(RuntimeError):
    """The LP solver returned neither a clean feasibility certificate nor
    a clean Farkas certificate."""


@dataclass(frozen=True)
class LhsCertificate:
    """Explicit LHS model: weights over (strategy, hidden-vertex) pairs."""

    strategy_bits: np.ndarray   # (ncols, m) outcomes per setting
    vertex_index: np.ndarray    # (ncols,)
    weights: np.ndarray         # (ncols,) nonnegative
    hidden_blochs: np.ndarray   # (K, 3) Bloch vectors of the hidden states

    def reconstruct(self) -> np.ndarray:
        """The modeled assemblage in the (m, 2, 4) layout: each weight adds
        [1, r_k] to the entry (x, bits[x]) of every setting x. Summed here
        from the weights, independently of the LP's column builder."""
        m = self.strategy_bits.shape[1]
        h = np.hstack([np.ones((len(self.hidden_blochs), 1)), self.hidden_blochs])
        ps = np.zeros((m, 2, 4))
        contrib = self.weights[:, None] * h[self.vertex_index]
        np.add.at(ps, (np.arange(m), self.strategy_bits), contrib[:, None, :])
        return ps


@dataclass(frozen=True)
class GeneralFunctional:
    """Steering functional F_{a|x} = c I + v.sigma per (x, a), held as
    coef[x, a] = [c, v] (shape (m, 2, 4)), as extracted from a Farkas dual."""

    coef: np.ndarray
    bound: float | None = None  # exact_lhs_bound(), attached by detect_steerable

    @property
    def m(self) -> int:
        return self.coef.shape[0]

    def value(self, assemblage: Assemblage) -> float:
        return float((self.coef * assemblage.ps).sum())

    def exact_lhs_bound(self) -> float:
        """Exact bound over all LHS models with hidden states anywhere in
        the Bloch ball: max over deterministic strategies of
        lambda_max(sum_x F_{lambda(x)|x})."""
        return max_over_strategies(self.coef)[0]


def _columns(bits: np.ndarray, ks: np.ndarray, verts: np.ndarray, m: int) -> sparse.csc_array:
    """LP columns for (strategy, vertex) pairs; shape (8m, len(ks)).

    Column j has a 1 in row 4(2x + bits[j, x]) and the hidden Bloch
    vector verts[ks[j]] in the three rows below it, for each setting x.
    Exact zeros are dropped, as a dense-to-sparse conversion would.
    """
    n = len(ks)
    rows = 4 * (2 * np.arange(m) + np.asarray(bits, dtype=np.int64))[:, :, None] + np.arange(4)
    vals = np.empty((n, m, 4))
    vals[:, :, 0] = 1.0
    vals[:, :, 1:] = verts[ks][:, None, :]
    cols = sparse.csc_array(
        (vals.ravel(), rows.ravel(), np.arange(0, 4 * m * n + 1, 4 * m)), shape=(8 * m, n)
    )
    cols.eliminate_zeros()
    return cols


def _solve_lp(a_cols: sparse.csc_array, b: np.ndarray, t_col=None, t_cap: float = 0.0):
    """The LP both jobs share, over the given columns:

        min M.(s+ + s-) - t   s.t.   a_cols w + t t_col + s+ - s- = b,
        w, s+, s- >= 0,  0 <= t <= t_cap.

    Without ``t_col`` it is the phase-1 LP (M = 1, no t): its optimum is
    the infeasibility, and its equality-constraint marginals are exactly
    the Farkas vector: y.b = infeasibility, A^T y <= 0, |y| <= 1. With
    ``t_col`` it is the locator (M = _LOCATOR_PENALTY), whose optimal t is
    the largest feasible one when the slacks come back zero.

    Returns (slack sum, t, w, y).
    """
    nrows = len(b)
    ncols = a_cols.shape[1]
    eye = sparse.eye_array(nrows, format="csc")
    if t_col is None:
        blocks, c_t, penalty = [a_cols], [], 1.0
    else:
        blocks, c_t, penalty = [a_cols, sparse.csc_array(t_col[:, None])], [-1.0], _LOCATOR_PENALTY
    nt = len(c_t)
    afull = sparse.hstack([*blocks, eye, -eye], format="csc")
    c = np.concatenate([np.zeros(ncols), c_t, np.full(2 * nrows, penalty)])
    bounds = np.zeros((len(c), 2))
    bounds[:, 1] = np.inf
    bounds[ncols : ncols + nt, 1] = t_cap
    res = linprog(c, A_eq=afull, b_eq=b, bounds=bounds, method="highs")
    if res.status != 0:
        raise LpFailure(f"LP solver status {res.status}: {res.message}")
    t = float(res.x[ncols]) if nt else 0.0
    slack = float(res.x[ncols + nt :].sum())
    return slack, t, res.x[:ncols], np.asarray(res.eqlin.marginals)


def _price(y: np.ndarray, verts: np.ndarray, m: int):
    """Exact pricing: for each vertex the best strategy is chosen
    greedily per setting from the dual. Returns (scores, best_bits)."""
    yr = y.reshape(m, 2, 4)
    vals = np.einsum("kd,xad->kxa", verts, yr[:, :, 1:]) + yr[None, :, :, 0]  # (K, m, 2)
    best_bits = vals.argmax(axis=2).astype(np.int8)
    scores = vals.max(axis=2).sum(axis=1)
    return scores, best_bits


def _hidden_vertices(hidden: SpherePolytope, mode: str) -> np.ndarray:
    return hidden.vertices if mode == "restrict" else hidden.vertices / hidden.eta


def _dense_columns(hidden: SpherePolytope, mode: str, m: int):
    """Every (strategy, vertex) column, built once per (polytope, m, mode)
    and kept on the polytope. Returns (columns, col_bits, col_ks)."""
    key = (m, mode)
    if key not in hidden.lp_columns:
        verts = _hidden_vertices(hidden, mode)
        bits = np.concatenate(list(strategy_blocks(m))).astype(np.int8)
        col_bits = np.repeat(bits, len(verts), axis=0)
        col_ks = np.tile(np.arange(len(verts)), len(bits))
        cols = _columns(col_bits, col_ks, verts, m)
        for arr in (cols.data, cols.indices, cols.indptr, col_bits, col_ks):
            arr.flags.writeable = False
        hidden.lp_columns[key] = (cols, col_bits, col_ks)
    return hidden.lp_columns[key]


def _solve_dense(hidden: SpherePolytope, mode: str, b: np.ndarray, m: int, t_col=None, t_cap=0.0):
    """``_solve_lp`` over every (strategy, vertex) pair.
    Returns (slack sum, t, col_bits, col_ks, w, y)."""
    cols, col_bits, col_ks = _dense_columns(hidden, mode, m)
    slack, t, w, y = _solve_lp(cols, b, t_col, t_cap)
    return slack, t, col_bits, col_ks, w, y


def _solve_cg(hidden: SpherePolytope, mode: str, b: np.ndarray, m: int, t_col=None, t_cap=0.0):
    """``_solve_lp`` by column generation over (strategy, vertex) pairs
    with exact pricing. Returns (slack sum, t, col_bits, col_ks, w, y)."""
    verts = _hidden_vertices(hidden, mode)
    bits_list: list[np.ndarray] = []
    k_list: list[int] = []
    seen: set[tuple] = set()
    a_cols = sparse.csc_array((8 * m, 0))
    for _ in range(_CG_MAX_ROUNDS):
        slack, t, w, y = _solve_lp(a_cols, b, t_col, t_cap)
        scores, best_bits = _price(y, verts, m)
        order = np.argsort(scores)[::-1]
        added = 0
        new_bits, new_ks = [], []
        for k in order[:_CG_COLUMNS_PER_ROUND]:
            if scores[k] <= _PRICING_TOL:
                break
            key = (int(k), best_bits[k].tobytes())
            if key in seen:
                continue
            seen.add(key)
            new_bits.append(best_bits[k])
            new_ks.append(int(k))
            added += 1
        if added == 0:
            return slack, t, np.array(bits_list, dtype=np.int8).reshape(-1, m), \
                np.array(k_list, dtype=int), w, y
        cols = _columns(np.array(new_bits), np.array(new_ks), verts, m)
        a_cols = sparse.hstack([a_cols, cols], format="csc")
        bits_list += new_bits
        k_list += new_ks
    raise LpFailure(f"column generation did not converge in {_CG_MAX_ROUNDS} rounds")


def _solver(hidden: SpherePolytope, m: int):
    """The dense path while the enumerated matrix is desk-scale, column
    generation above that."""
    dense = m <= DENSE_MAX_SETTINGS and (1 << m) * hidden.n_vertices <= DENSE_COLUMN_CAP
    return _solve_dense if dense else _solve_cg


def lhs_lp_feasible(
    assemblage: Assemblage, hidden: SpherePolytope, mode: str = "restrict"
):
    """Decide LHS feasibility over a discretized hidden-state set.

    mode="restrict": hidden states confined to the polytope hull, so
    feasibility CERTIFIES that an LHS model exists. The model is not taken
    on the solver's word: it is reconstructed from its weights and
    accepted only when it reproduces the assemblage to within
    TOL.lp_residual (max-abs over [p, s]); otherwise the answer is
    (False, None), "not certified". mode="relax": vertices scaled by 1/eta
    so the hull contains the Bloch ball, so INFEASIBILITY certifies
    steering.

    Returns (feasible, LhsCertificate), (False, GeneralFunctional) or
    (False, None). Raises LpFailure when neither certificate reaches its
    tolerance.
    """
    if mode not in ("restrict", "relax"):
        raise ValueError(f"unknown mode {mode!r}")
    m = assemblage.m
    fun, _, col_bits, col_ks, w, y = _solver(hidden, m)(hidden, mode, assemblage.ps.ravel(), m)
    if fun <= TOL.lp_residual:
        keep = w > 1e-12
        cert = LhsCertificate(
            strategy_bits=col_bits[keep],
            vertex_index=col_ks[keep],
            weights=w[keep],
            hidden_blochs=_hidden_vertices(hidden, mode),
        )
        if mode == "restrict" and np.abs(cert.reconstruct() - assemblage.ps).max() > TOL.lp_residual:
            return False, None
        return True, cert
    if fun >= TOL.farkas_violation:
        return False, GeneralFunctional(y.reshape(m, 2, 4))
    raise LpFailure(
        f"LP infeasibility {fun:.2e} between residual tolerance "
        f"{TOL.lp_residual:.0e} and Farkas threshold {TOL.farkas_violation:.0e}"
    )


def detect_steerable(
    rho_ab: DensityMatrix, directions, hidden: SpherePolytope
):
    """Steering detection with a closed-loop certificate.

    On LP infeasibility the Farkas functional is re-bounded exactly over
    the full Bloch ball by enumeration; steering is reported only when
    the assemblage value exceeds that exact bound by more than
    _DETECTION_MARGIN.

    Returns (steerable, GeneralFunctional carrying its bound, or None).
    """
    assemblage = make_assemblage(rho_ab, directions)
    feasible, cert = lhs_lp_feasible(assemblage, hidden, mode="relax")
    if feasible:
        return False, None
    functional = replace(cert, bound=cert.exact_lhs_bound())
    if _detects(functional, assemblage):
        return True, functional
    # The discrete relaxation flagged infeasibility but the exact ball
    # bound absorbs it; conservative answer is "not detected".
    return False, None


def _detects(functional: GeneralFunctional, assemblage: Assemblage) -> bool:
    return functional.value(assemblage) > functional.bound + _DETECTION_MARGIN


def certify_unsteerable_shrunk(
    rho_ab: DensityMatrix, meas: SpherePolytope, hidden: SpherePolytope
) -> bool:
    """True certifies radial_mix(rho_ab, meas.eta) unsteerable from A to B
    for ALL projective measurements: any effect (I + eta u.sigma)/2 is a
    convex mixture of vertex effects because eta u lies in the vertex
    hull, and eta-depolarized measurements on rho are equivalent to
    projective measurements on the radially shrunk state."""
    directions = antipodal_directions(meas)
    assemblage = make_assemblage(rho_ab, directions)
    feasible, _ = lhs_lp_feasible(assemblage, hidden, mode="restrict")
    return feasible


def radial_mix(rho_ab: DensityMatrix, t: float) -> tuple[np.ndarray, bool]:
    """t rho_AB + (1-t) (I/2 (x) rho_B); returns (matrix, indefinite).

    Bob's marginal is invariant under the mix. Indefinite is possible for
    t > 1, flagged when the minimum eigenvalue drops below -psd tolerance.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    rho_b = partial_trace(rho_ab, [1]).mat
    anchor = np.kron(ID2 / 2, rho_b)
    mat = t * rho_ab.mat + (1 - t) * anchor
    indefinite = bool(np.linalg.eigvalsh((mat + mat.conj().T) / 2).min() < -TOL.psd)
    return mat, indefinite


def radial_mix_state(rho_ab: DensityMatrix, t: float) -> DensityMatrix:
    mat, indefinite = radial_mix(rho_ab, t)
    if indefinite:
        raise ValueError(f"radial mix at t={t} is indefinite")
    return DensityMatrix(mat, (2, 2))


@dataclass(frozen=True)
class RadiusParams:
    meas_level: int = 0
    hidden_level: int = 2
    bisection_tol: float = 1e-3  # the --tol step in t; see critical_radius_bounds


@dataclass(frozen=True)
class RadiusReport:
    """Certified bracket [r_in, r_out] for the critical radius."""

    r_in: float
    r_out: float
    t_cap: float
    steerable_detected: bool     # False means r_out = t_cap is vacuous
    unsteerable_certified: bool  # False means r_in = 0 is vacuous
    params: RadiusParams
    meas_eta: float

    def to_dict(self) -> dict:
        return {
            "r_in": self.r_in,
            "r_out": self.r_out,
            "t_cap": self.t_cap,
            "steerable_detected": self.steerable_detected,
            "unsteerable_certified": self.unsteerable_certified,
            "meas_polytope_level": self.params.meas_level,
            "hidden_polytope_level": self.params.hidden_level,
            "bisection_tol": self.params.bisection_tol,
            "psd_cap": self.t_cap,
            "meas_eta": self.meas_eta,
        }


def bisect(pred, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Halve [lo, hi] until it is at most ``tol`` wide, keeping the upper
    half wherever ``pred(mid)`` is false. For a predicate that is false
    below some threshold and true above it, the result brackets that
    threshold."""
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _psd_cap(rho_ab: DensityMatrix, t_max: float) -> float:
    """Largest t <= t_max with radial_mix PSD (t = 1 always qualifies)."""
    if not radial_mix(rho_ab, t_max)[1]:
        return t_max
    return bisect(lambda t: radial_mix(rho_ab, t)[1], 1.0, t_max, 1e-9)[0]


def _locate(hidden: SpherePolytope, mode: str, a0: Assemblage, a1: Assemblage, t_cap: float):
    """Largest t in [0, t_cap] at which the LP of ``mode`` is feasible for
    the assemblage b0 + t (b1 - b0), or None when no t is. A locator
    only: it certifies nothing."""
    b0, b1 = a0.ps.ravel(), a1.ps.ravel()
    slack, t, *_ = _solver(hidden, a0.m)(hidden, mode, b0, a0.m, b0 - b1, t_cap)
    return t if slack <= TOL.lp_residual else None


def _first_detection(
    functional: GeneralFunctional, a0: Assemblage, a1: Assemblage,
    rho_ab: DensityMatrix, directions, t_d: float,
) -> float:
    """Smallest t <= t_d at which ``functional`` still detects steering,
    given that it detects at t_d. Its value is affine in t, so the
    crossing of bound + _DETECTION_MARGIN has a closed form; the point
    returned aims at twice the margin and is re-checked on the mixed
    state's own assemblage, falling back to t_d."""
    v0, v1 = functional.value(a0), functional.value(a1)
    if v1 <= v0:
        return t_d
    t = min(t_d, max(0.0, (functional.bound + 2 * _DETECTION_MARGIN - v0) / (v1 - v0)))
    mixed = make_assemblage(radial_mix_state(rho_ab, t), directions)
    return t if _detects(functional, mixed) else t_d


def critical_radius_bounds(
    rho_ab: DensityMatrix, params: RadiusParams = RadiusParams()
) -> RadiusReport:
    """Bracket the critical radius with one locator LP per side.

    r_out: the relax-mode locator gives t_relax, the upper end of the
    interval of t at which the ball-containing relaxation has a solution.
    If t_relax < t_cap, detect_steerable probes t_d = min(t_cap, t_relax +
    tol/2) (tol = params.bisection_tol); its Farkas functional, re-bounded
    exactly over the Bloch ball, detects steering at every t from its
    closed-form crossing point up to t_d, and r_out is the smallest such t
    (detection at t implies R <= t). A locator answer of t_cap (or none),
    or no detection at t_d, gives the vacuous r_out = t_cap.

    r_in: the restrict-mode locator gives t*, the upper end of the
    interval of t with a restrict-mode LP solution. The LHS certificate is
    then checked at t_cap if t* = t_cap, else at t* - d for d =
    TOL.locator_margin, 10 times that, and so on while d < tol, and last
    at t* - tol, never at t <= 0; r_in is meas.eta times the first t that
    certifies (the shrinking lemma turns it into unsteerability of the
    shrunk state for all projective measurements). The steps exist
    because right at the boundary the solver's weights can dip below
    zero within its tolerance, and the reconstruction check then rejects
    the model. If no t certifies, or the locator finds no feasible t,
    r_in = 0 is reported as vacuous (unsteerable_certified = False).
    """
    meas = sphere_polytope(params.meas_level)
    hidden = sphere_polytope(params.hidden_level)
    directions = antipodal_directions(meas)
    t_cap = _psd_cap(rho_ab, T_CAP_MAX)
    a0 = make_assemblage(radial_mix_state(rho_ab, 0.0), directions)
    a1 = make_assemblage(rho_ab, directions)

    r_out, det = t_cap, False
    t_relax = _locate(hidden, "relax", a0, a1, t_cap)
    if t_relax is not None and t_relax < t_cap:
        t_d = min(t_cap, t_relax + params.bisection_tol / 2)
        steerable, functional = detect_steerable(radial_mix_state(rho_ab, t_d), directions, hidden)
        if steerable:
            r_out, det = _first_detection(functional, a0, a1, rho_ab, directions, t_d), True

    t_in = 0.0
    t_star = _locate(hidden, "restrict", a0, a1, t_cap)
    if t_star is not None:
        probes = [t_cap] if t_star >= t_cap else []
        backoff = TOL.locator_margin
        while backoff < params.bisection_tol:
            probes.append(t_star - backoff)
            backoff *= 10
        probes.append(t_star - params.bisection_tol)
        for t in probes:
            if t > 0 and certify_unsteerable_shrunk(radial_mix_state(rho_ab, t), meas, hidden):
                t_in = t
                break

    return RadiusReport(
        r_in=meas.eta * t_in,
        r_out=r_out,
        t_cap=t_cap,
        steerable_detected=det,
        unsteerable_certified=t_in > 0,
        params=params,
        meas_eta=meas.eta,
    )


@dataclass(frozen=True)
class OneWayReport:
    report_ab: RadiusReport
    report_ba: RadiusReport
    r1: float       # r_out(rho_AB)
    r2: float       # r_in(rho_BA)
    delta: float    # r2 - r1
    verdict: str    # certified-cyclic | refuted | undetermined-at-this-resolution

    def to_dict(self) -> dict:
        return {
            "rho_AB": self.report_ab.to_dict(),
            "rho_BA": self.report_ba.to_dict(),
            "R1_out_AB": self.r1,
            "R2_in_BA": self.r2,
            "delta": self.delta,
            "verdict": self.verdict,
        }


def one_way_report(
    rho_ab: DensityMatrix, rho_ba: DensityMatrix, params: RadiusParams = RadiusParams()
) -> OneWayReport:
    """Evaluate the cyclic feasibility conditions r_out(AB) < 1 <= r_in(BA)."""
    rep_ab = critical_radius_bounds(rho_ab, params)
    rep_ba = critical_radius_bounds(rho_ba, params)
    r1, r2 = rep_ab.r_out, rep_ba.r_in
    if rep_ab.steerable_detected and r1 < 1.0 and r2 >= 1.0:
        verdict = "certified-cyclic"
    elif rep_ab.r_in >= 1.0 or (rep_ba.steerable_detected and rep_ba.r_out < 1.0):
        # AB certified unsteerable, or BA certified steerable below t=1:
        # the one-way property cannot hold.
        verdict = "refuted"
    else:
        verdict = "undetermined-at-this-resolution"
    return OneWayReport(
        report_ab=rep_ab, report_ba=rep_ba, r1=r1, r2=r2, delta=r2 - r1, verdict=verdict
    )
