"""LP-based local-hidden-state machinery.

Feasibility of an LHS model for a finite assemblage over a discretized
Bloch sphere, steering detection with Farkas certificates, unsteerability
certification for all projective measurements via inradius shrinking, and
certified critical-radius bracketing [r_in, r_out] by bisection.

The LP asks for nonnegative weights w_{lambda,k} with

    sum_{lambda,k} D_lambda(a|x) w_{lambda,k} h_k = sigma_{a|x}

where lambda runs over deterministic outcome assignments and h_k over
hidden qubit states on polytope vertices. ``restrict`` mode keeps the
vertices as given (feasibility certifies an LHS model); ``relax`` mode
scales them by 1/eta so the hull contains the Bloch ball (infeasibility
certifies steering). Strategies are enumerated while the column count is
desk-scale and generated by exact pricing above that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .linalg import DensityMatrix, ID2, PAULIS, partial_trace
from .polytope import SpherePolytope, antipodal_directions, sphere_polytope
from .steering import Assemblage, make_assemblage, max_over_strategies, strategy_blocks
from .tolerances import TOL

DENSE_MAX_SETTINGS = 13
DENSE_COLUMN_CAP = 700_000
_PRICING_TOL = 1e-9
_CG_MAX_ROUNDS = 400
_CG_COLUMNS_PER_ROUND = 40


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
        """The modeled assemblage, shape (m, 2, 2, 2)."""
        m = self.strategy_bits.shape[1]
        sig = np.zeros((m, 2, 2, 2), dtype=complex)
        for bits, k, w in zip(self.strategy_bits, self.vertex_index, self.weights):
            h = (ID2 + np.tensordot(self.hidden_blochs[k], PAULIS, axes=1)) / 2
            for x in range(m):
                sig[x, bits[x]] += w * h
        return sig


@dataclass(frozen=True)
class GeneralFunctional:
    """Steering functional F_{a|x} = offset I + bloch . sigma per (x, a),
    as extracted from a Farkas dual."""

    offsets: np.ndarray  # (m, 2)
    blochs: np.ndarray   # (m, 2, 3)

    @property
    def m(self) -> int:
        return self.offsets.shape[0]

    def value(self, assemblage: Assemblage) -> float:
        p = assemblage.probabilities()
        s = assemblage.bloch_parts()
        return float((self.offsets * p).sum() + (self.blochs * s).sum())

    def exact_lhs_bound(self) -> float:
        """Exact bound over all LHS models with hidden states anywhere in
        the Bloch ball: max over deterministic strategies of
        lambda_max(sum_x F_{lambda(x)|x})."""
        return max_over_strategies(self.offsets, self.blochs)[0]


def _assemblage_rhs(assemblage: Assemblage) -> np.ndarray:
    """Stack [p(a|x), s(a|x)] per (x, a) into the LP right-hand side."""
    m = assemblage.m
    rhs = np.empty((m, 2, 4))
    rhs[:, :, 0] = assemblage.probabilities()
    rhs[:, :, 1:] = assemblage.bloch_parts()
    return rhs.reshape(-1)


def _columns(bits: np.ndarray, ks: np.ndarray, verts: np.ndarray, m: int) -> np.ndarray:
    """LP columns for (strategy, vertex) pairs; shape (8m, len(ks))."""
    ncols = len(ks)
    cols = np.zeros((8 * m, ncols))
    for j in range(ncols):
        v = verts[ks[j]]
        for x in range(m):
            r = (2 * x + int(bits[j, x])) * 4
            cols[r, j] = 1.0
            cols[r + 1 : r + 4, j] = v
    return cols


def _solve_phase1(a_cols: np.ndarray, b: np.ndarray):
    """min 1.(s+ + s-) s.t. a_cols w + s+ - s- = b, all variables >= 0.

    Returns (infeasibility, w, farkas_y). The equality-constraint
    marginals of the optimal phase-1 LP are exactly the Farkas vector:
    y.b = infeasibility, A^T y <= 0, |y| <= 1.
    """
    nrows = len(b)
    ncols = a_cols.shape[1]
    afull = np.hstack([a_cols, np.eye(nrows), -np.eye(nrows)])
    c = np.concatenate([np.zeros(ncols), np.ones(2 * nrows)])
    res = linprog(c, A_eq=afull, b_eq=b, bounds=(0, None), method="highs")
    if res.status != 0:
        raise LpFailure(f"phase-1 LP solver status {res.status}: {res.message}")
    return float(res.fun), res.x[:ncols], np.asarray(res.eqlin.marginals)


def _functional_from_dual(y: np.ndarray, m: int) -> GeneralFunctional:
    yr = y.reshape(m, 2, 4)
    return GeneralFunctional(offsets=yr[:, :, 0].copy(), blochs=yr[:, :, 1:].copy())


def _price(y: np.ndarray, verts: np.ndarray, m: int):
    """Exact pricing: for each vertex the best strategy is chosen
    greedily per setting from the dual. Returns (scores, best_bits)."""
    yr = y.reshape(m, 2, 4)
    vals = np.einsum("kd,xad->kxa", verts, yr[:, :, 1:]) + yr[None, :, :, 0]  # (K, m, 2)
    best_bits = vals.argmax(axis=2).astype(np.int8)
    scores = vals.max(axis=2).sum(axis=1)
    return scores, best_bits


def _solve_dense(verts: np.ndarray, b: np.ndarray, m: int):
    """One phase-1 LP over every (strategy, vertex) pair."""
    bits = np.concatenate(list(strategy_blocks(m))).astype(np.int8)
    col_bits = np.repeat(bits, len(verts), axis=0)
    col_ks = np.tile(np.arange(len(verts)), len(bits))
    fun, w, y = _solve_phase1(_columns(col_bits, col_ks, verts, m), b)
    return fun, col_bits, col_ks, w, y


def _solve_cg(verts: np.ndarray, b: np.ndarray, m: int):
    """Column generation over (strategy, vertex) pairs with exact pricing."""
    bits_list: list[np.ndarray] = []
    k_list: list[int] = []
    seen: set[tuple] = set()
    a_cols = np.zeros((8 * m, 0))
    for _ in range(_CG_MAX_ROUNDS):
        fun, w, y = _solve_phase1(a_cols, b)
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
            return fun, np.array(bits_list, dtype=np.int8).reshape(-1, m), \
                np.array(k_list, dtype=int), w, y
        cols = _columns(np.array(new_bits), np.array(new_ks), verts, m)
        a_cols = np.hstack([a_cols, cols])
        bits_list += new_bits
        k_list += new_ks
    raise LpFailure(f"column generation did not converge in {_CG_MAX_ROUNDS} rounds")


def lhs_lp_feasible(
    assemblage: Assemblage, hidden: SpherePolytope, mode: str = "restrict"
):
    """Decide LHS feasibility over a discretized hidden-state set.

    mode="restrict": hidden states confined to the polytope hull, so
    feasibility CERTIFIES that an LHS model exists. mode="relax": vertices
    scaled by 1/eta so the hull contains the Bloch ball, so INFEASIBILITY
    certifies steering.

    Returns (feasible, LhsCertificate) or (False, GeneralFunctional).
    Raises LpFailure when neither certificate reaches its tolerance.
    """
    if mode not in ("restrict", "relax"):
        raise ValueError(f"unknown mode {mode!r}")
    verts = hidden.vertices if mode == "restrict" else hidden.vertices / hidden.eta
    m = assemblage.m
    b = _assemblage_rhs(assemblage)
    dense = m <= DENSE_MAX_SETTINGS and (1 << m) * len(verts) <= DENSE_COLUMN_CAP
    fun, col_bits, col_ks, w, y = (_solve_dense if dense else _solve_cg)(verts, b, m)
    if fun <= TOL.lp_residual:
        keep = w > 1e-12
        cert = LhsCertificate(
            strategy_bits=col_bits[keep],
            vertex_index=col_ks[keep],
            weights=w[keep],
            hidden_blochs=verts,
        )
        return True, cert
    if fun >= TOL.farkas_violation:
        return False, _functional_from_dual(y, m)
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
    the assemblage value strictly exceeds that exact bound.

    Returns (steerable, GeneralFunctional or None).
    """
    assemblage = make_assemblage(rho_ab, directions)
    feasible, cert = lhs_lp_feasible(assemblage, hidden, mode="relax")
    if feasible:
        return False, None
    functional = cert
    bound = functional.exact_lhs_bound()
    value = functional.value(assemblage)
    if value > bound + 1e-12:
        return True, functional
    # The discrete relaxation flagged infeasibility but the exact ball
    # bound absorbs it; conservative answer is "not detected".
    return False, None


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
    bisection_tol: float = TOL.bisection
    t_cap_max: float = 2.0


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


def critical_radius_bounds(
    rho_ab: DensityMatrix, params: RadiusParams = RadiusParams()
) -> RadiusReport:
    """Bracket the critical radius by bisection over the mixing parameter.

    r_out: smallest t at which steering of the mixed state is detected
    (detection at t implies R <= t). r_in: meas.eta times the largest t at
    which the restrict-mode LHS certificate holds (the shrinking lemma
    converts it into unsteerability of the shrunk state for all projective
    measurements). Feasibility is monotone in t, so bisection is sound.
    Vacuous bounds (r_in = 0 or r_out = t_cap) are reported honestly.
    """
    meas = sphere_polytope(params.meas_level)
    hidden = sphere_polytope(params.hidden_level)
    directions = antipodal_directions(meas)
    t_cap = _psd_cap(rho_ab, params.t_cap_max)

    def detected(t: float) -> bool:
        return detect_steerable(radial_mix_state(rho_ab, t), directions, hidden)[0]

    def certified(t: float) -> bool:
        return certify_unsteerable_shrunk(radial_mix_state(rho_ab, t), meas, hidden)

    if detected(t_cap):
        r_out, det = bisect(detected, 0.0, t_cap, params.bisection_tol)[1], True
    else:
        r_out, det = t_cap, False

    if certified(t_cap):
        t_star, cert = t_cap, True
    elif not certified(0.0):
        t_star, cert = 0.0, False
    else:
        t_star = bisect(lambda t: not certified(t), 0.0, t_cap, params.bisection_tol)[0]
        cert = True

    return RadiusReport(
        r_in=meas.eta * t_star,
        r_out=r_out,
        t_cap=t_cap,
        steerable_detected=det,
        unsteerable_certified=cert,
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
