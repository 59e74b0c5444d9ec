"""LP-based local-hidden-state machinery: LHS-model decisions with Farkas
certificates, unsteerability for all projective measurements by inradius
shrinking, and certified critical-radius brackets [r_in, r_out].

One LP serves them all: weights w_j >= 0 and the largest t in [0, t_cap]
with sum_j D_{lambda_j}(a|x) w_j [1, r_j] + t (b0 - b1) = b0, one column
per deterministic strategy lambda_j and hidden Bloch vector |r_j| <= 1,
along a family b(t) = b0 + t (b1 - b0) in the assemblage's (m, 2, 4)
layout (:mod:`cyclesteer.steering`). At each t it is the standard LHS
program (Cavalcanti & Skrzypczyk, Rep. Prog. Phys. 80, 024001 (2017)),
solved by column generation (:func:`_solve`). The LP certifies nothing:
a model counts only once it passes reconstruction with every |r| <= 1 in
floating point, and a dual detects steering only where it beats its
exact Bloch-ball bound (:func:`cyclesteer.steering.max_over_strategies`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.optimize import OptimizeResult
from scipy.optimize._highspy._core import HighsModelStatus, HighsOptions, _Highs

from .linalg import DensityMatrix, ID2, require_two_qubit
from .polytope import MAX_LEVEL, SpherePolytope, antipodal_directions, sphere_polytope
from .states import swap_state
from .steering import MAX_ENUM_SETTINGS, Assemblage, make_assemblage, max_over_strategies, strategy_sums
from .tolerances import TOL

# Every strategy is tabled while 2^m is at most this many (m <= 10): pricing
# scores the whole table, so it is exact, and near-pure pools start from it.
EXACT_PRICING_MAX_STRATEGIES = 1024
# A column prices in when the dual's value on it exceeds this (absolute).
_PRICING_TOL = 1e-6
_CG_MAX_ROUNDS = 400
_CG_COLUMNS_PER_ROUND = 40
# At m <= 10 the pool holds every strategy at Bob's state b where 1 - |b| <= this: without
# them the LP's duals grow without bound as b nears the sphere, until HiGHS fails.
_NEAR_PURE = 1e-2
# A Farkas functional detects steering where it beats its exact bound by more than this.
_DETECTION_MARGIN = 1e-12
# t_cap is the largest t <= T_CAP_MAX at which the radial mix is a state (_t_cap).
T_CAP_MAX = 2.0
# Level L measures m = 5 * 4**L + 1 directions; r_out's exact kernel enumerates m <= MAX_ENUM_SETTINGS.
_MEAS_TOP = max(L for L in range(MAX_LEVEL + 1) if 5 * 4**L + 1 <= MAX_ENUM_SETTINGS)
# Every HiGHS model's options (see _Lp), passed whole: the primal simplex, no presolve,
# feasibility tolerances 1e-10, and HiGHS's default scaling (2) and perturbations (1.0).
_OPTIONS = HighsOptions()
_OPTIONS.output_flag, _OPTIONS.presolve, _OPTIONS.simplex_strategy = False, "off", 4
_OPTIONS.primal_feasibility_tolerance = _OPTIONS.dual_feasibility_tolerance = 1e-10
# A dual model's (m <= 10) options on top of _OPTIONS: its first run on the dual simplex,
# every run unscaled and unperturbed. Set by name, as HighsOptions lacks the two multipliers.
_DUAL_OPTIONS = {"simplex_strategy": 1, "simplex_scale_strategy": 0,
                 "dual_simplex_cost_perturbation_multiplier": 0.0,
                 "primal_simplex_bound_perturbation_multiplier": 0.0}
_THREAD = threading.local()  # .highs: this thread's HiGHS object (see _Lp)


class LpFailure(RuntimeError):
    """HiGHS did not end at an optimum."""


@dataclass(frozen=True)
class LhsCertificate:
    """Explicit LHS model: weights over (strategy, hidden state) columns."""

    strategy_bits: np.ndarray   # (ncols, m) outcomes per setting
    blochs: np.ndarray          # (ncols, 3) hidden Bloch vector per column
    weights: np.ndarray         # (ncols,) nonnegative

    def reconstruct(self) -> np.ndarray:
        """The modeled assemblage in the (m, 2, 4) layout, summed from the
        weights apart from the LP: each adds [1, r] at (x, bits[x]) for every x."""
        m = self.strategy_bits.shape[1]
        h = np.hstack([np.ones((len(self.blochs), 1)), self.blochs])
        ps = np.zeros((m, 2, 4))
        np.add.at(ps, (np.arange(m), self.strategy_bits), (self.weights[:, None] * h)[:, None, :])
        return ps

    def residual(self, ps: np.ndarray) -> float:
        """Max-abs error of the model against the assemblage ps, or inf
        unless every weight is >= 0 and every |r| <= 1 in floating point
        (no tolerance: a state outside the ball is no state)."""
        if (self.weights < 0).any() or (np.linalg.norm(self.blochs, axis=1) > 1.0).any():
            return np.inf
        return float(np.abs(self.reconstruct() - ps).max())


@dataclass(frozen=True)
class GeneralFunctional:
    """Steering functional F_{a|x} = c I + v.sigma per (x, a), held as
    coef[x, a] = [c, v] (shape (m, 2, 4)), as extracted from a Farkas dual."""

    coef: np.ndarray
    bound: float | None = None  # its exact Bloch-ball bound, as _solve keeps it

    def value(self, assemblage: Assemblage) -> float:
        return float((self.coef * assemblage.ps).sum())

    def exact_lhs_bound(self) -> float:
        """Exact bound over all LHS models with hidden states anywhere in the
        Bloch ball: max over strategies of lambda_max(sum_x F_{lambda(x)|x})."""
        return float(max_over_strategies(self.coef)[0][0])


def _into_ball(r: np.ndarray, norm: np.ndarray | float = 1.0) -> np.ndarray:
    """r / norm (0 where norm is 0: ``_score``'s V and |V| give V/|V|) with
    every row whose norm rounds to 1 or more scaled by 1 - 2^-50, so that
    |r| <= 1 holds in floating point however the norm is summed."""
    r = np.divide(r, norm, out=np.zeros(np.shape(r)), where=norm > 0)
    r[np.linalg.norm(r, axis=-1) >= 1 - 2.0**-51] *= 1 - 2.0**-50
    return r


def _rows(v: np.ndarray) -> np.ndarray:
    """T v: the LP's 4(m + 1) rows of a flat (m, 2, 4)-layout vector v,
    rho_B = v[0, 0] + v[0, 1] and then v[x, 0] for each setting x."""
    v = v.reshape(-1, 2, 4)
    return np.concatenate([v[0, 0] + v[0, 1], v[:, 0].ravel()])


def _coef(y: np.ndarray) -> np.ndarray:
    """T^T y: a dual y of the LP's rows as an (m, 2, 4) functional, with
    coef[x, 0] = y_x and coef[x, 1] = 0, plus y_B on both outcomes of
    setting 0. On no-signalling assemblages its value is y.(T ps)."""
    y = y.reshape(-1, 4)
    coef = np.zeros((len(y) - 1, 2, 4))
    coef[:, 0] = y[1:]
    coef[0] += y[0]
    return coef


def _columns(bits: np.ndarray, blochs: np.ndarray) -> np.ndarray:
    """LP columns for (strategy, hidden state) pairs; shape (4(m + 1), n).

    Column j holds [1, blochs[j]] in the rho_B rows and in the rows of
    each setting x with bits[j, x] = 0, zeros elsewhere: T times its
    (m, 2, 4) layout.
    """
    n, m = bits.shape
    h = np.hstack([np.ones((n, 1)), blochs])
    return np.hstack([h, np.where((bits == 0)[:, :, None], h[:, None, :], 0.0).reshape(n, 4 * m)]).T


@cache
def _strategies(m: int) -> np.ndarray | None:
    """All 2^m strategies, row i = sum_x bits[x] 2^x (``strategy_sums``'s rows),
    built once and read-only, while 2^m <= EXACT_PRICING_MAX_STRATEGIES; else None."""
    if (1 << m) > EXACT_PRICING_MAX_STRATEGIES:
        return None
    bits = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(np.int8)
    bits.flags.writeable = False
    return bits


def _score(coef: np.ndarray, bits: np.ndarray | None = None):
    """Score sum_x c_{bits(x)|x} + |V| of strategies ``bits`` (..., m), or of
    every row of ``strategy_sums`` without them, at their best state V/|V|
    (``_into_ball``), with V = sum_x v_{bits(x)|x} and |V|."""
    sums = strategy_sums(coef) if bits is None else coef[np.arange(coef.shape[0]), bits].sum(axis=-2)
    norm = np.linalg.norm(sums[..., 1:], axis=-1, keepdims=True)
    return sums[..., 0] + norm[..., 0], sums[..., 1:], norm


def _price(coef: np.ndarray, verts: np.ndarray, bob: np.ndarray, strategies: np.ndarray | None):
    """Bits, Bloch vectors and scores of the dual ``coef``'s best distinct
    columns, best first. With the table of all 2^m strategies (m <= 10) it
    is exact: each strategy at its best state V/|V|, so the top score is the
    kernel's maximum. Without it, from each vertex d the strategy best at d
    (argmax_a c_{a|x} + v_{a|x}.d per setting) at V/|V|, then three more
    steps alternating strategy and state, none of which lowers the score
    (at m = 21 one step took more LPs and kernel calls). Bob's own state b
    is priced as it is: when it is pure, no other state stands in for it."""
    bits, r = strategies, verts
    if bits is not None:
        scores, v, norm = _score(coef)
    else:
        for _ in range(4):
            vals = coef[None, :, :, 0] + np.einsum("kd,xad->kxa", r, coef[:, :, 1:])
            bits = np.unique(vals.argmax(axis=2), axis=0)
            scores, v, norm = _score(coef, bits)
            r = _into_ball(v, norm)
    at_bob = coef[:, :, 0] + coef[:, :, 1:] @ bob
    scores = np.append(scores, at_bob.max(axis=1).sum())
    order = np.argsort(scores)[::-1][:_CG_COLUMNS_PER_ROUND]
    own, r = order < len(bits), np.tile(bob, (len(order), 1))
    r[own] = _into_ball(v[order[own]], norm[order[own]])
    return np.vstack([bits, at_bob.argmax(axis=1)])[order], r, scores[order]


class _Lp:
    """One HiGHS model per column-generation run, kept across its rounds:

        min -t   s.t.   A w + t t_col = b,   w >= 0,   0 <= t <= t_cap,

    with column t and then the pool's w in the order ``add`` appends them;
    each ``solve`` warm-starts the simplex from the last basis. Every run is
    the primal simplex, as added columns leave the last basis primal
    feasible but not dual feasible, except a dual model's first, a model
    of 4(m + 1) rows with m <= 10 (``_strategies``): t's upper bound t_cap
    makes the slack basis dual feasible, which skips the primal's phase 1.
    A dual model also runs unscaled and unperturbed (``_DUAL_OPTIONS``), as
    its rows hold entries in [-1, 1] and its zero-cost pool is dual
    degenerate; at m = 21 both made brackets slower. ``linprog``'s last
    rung passes ``_OPTIONS`` again, and the model keeps them.
    Feasibility tolerances are 1e-10, below the 1e-8 model check; presolve
    is off, as at 28 rows it costs more than it saves. ``threads`` stays 0:
    HiGHS's scheduler is one per process, and a run asking for a count
    other than the one it started with fails. The model lives on its
    thread's one HiGHS object, which each run clears and passes
    ``_OPTIONS`` anew, so no model or option (a stalled run's iteration
    limit) reaches the next run.
    """

    def __init__(self, b: np.ndarray, t_col: np.ndarray, t_cap: float):
        if type(getattr(_THREAD, "highs", None)) is not _Highs:
            _THREAD.highs = _Highs()
        self.highs = _THREAD.highs
        self.highs.clearModel()
        self.highs.passOptions(_OPTIONS)
        if _strategies(len(b) // 4 - 1) is not None:
            for name, value in _DUAL_OPTIONS.items():
                self.highs.setOptionValue(name, value)
        self.highs.addRows(len(b), b, b, 0, [], [], [])
        self.add(t_col[:, None], -1.0, t_cap)

    def add(self, cols: np.ndarray, cost: float = 0.0, upper: float = np.inf):
        """Append the dense columns ``cols`` (rows, k) whole, each with this cost and
        upper bound: HiGHS drops every entry of magnitude at most its small_matrix_value
        (1e-9), the zeros among them, so it holds the matrix of the nonzeros alone."""
        n, k = cols.shape
        starts, rows = np.arange(0, n * k, n, dtype=np.int32), np.tile(np.arange(n, dtype=np.int32), k)
        self.highs.addCols(k, np.full(k, cost), np.zeros(k), np.full(k, upper), n * k, starts, rows, cols.T.ravel())

    @property
    def shape(self) -> tuple[int, int]:
        return self.highs.getNumRow(), self.highs.getNumCol()

    def solve(self):
        """Returns (t, w, y); LpFailure unless HiGHS ends optimal."""
        res = linprog(A_eq=self)
        return float(res.x[0]), res.x[1:], res.y


def linprog(*, A_eq: _Lp) -> OptimizeResult:
    """Run HiGHS on the model ``A_eq`` from its last basis: x, y (row duals)
    and nit, or LpFailure. The one LP entry point, called as
    ``linprog(A_eq=...)``, so perfbench's ``lhs.linprog`` span times and
    sizes (``A_eq.shape``, ``nit``) every run."""
    highs, nit = A_eq.highs, 0

    def passed_anew():  # primal, scaled and perturbed, as at m = 21 (see _Lp)
        highs.passOptions(_OPTIONS)
        highs.passModel(highs.getLp())

    # A warm start can end Unknown. A cleared basis and the LP passed anew each
    # solve LPs the other fails on, so each is tried once.
    for restart in (lambda: None, highs.clearSolver, passed_anew):
        restart()
        highs.run()
        nit += highs.getInfoValue("simplex_iteration_count")[1]
        if highs.getModelStatus() == HighsModelStatus.kOptimal:
            break
    highs.setOptionValue("simplex_strategy", 4)
    status = highs.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        raise LpFailure(f"LP solver status {int(status)}: {highs.modelStatusToString(status)}")
    sol = highs.getSolution()
    return OptimizeResult(x=np.array(sol.col_value), y=np.array(sol.row_dual), nit=nit)


def _solve(hidden: SpherePolytope, pool: tuple, b: np.ndarray, t_col: np.ndarray, t_cap: float, tol: float = 0.0):
    """Column generation on the ``_Lp`` over ``pool`` = (bits, blochs) and
    the 4(m + 1) rows T b and T t_col (``_rows``) of the flat (m, 2, 4)
    vectors b and t_col: every column and b(t) is no-signalling, so these
    rows hold all of the LP. Each dual y is priced and bounded as
    coef = T^T y (``_coef``), whose value on every column and b(t) is y's;
    ``_price`` adds columns (from the vertices of ``hidden`` above m = 10)
    or, above m = 10 where those offer none, each of the exact kernel's
    _CG_COLUMNS_PER_ROUND best strategies that prices in, at V/|V|. Below
    t_cap, t is basic, so y.b(t') = t' - t, and since an LHS model's
    weights sum to 1, t* <= t + y's bound over the ball: the ``_crossing``
    of coef / scale, scale = max(1, max|coef|), at its bound, exact
    pricing's top score / scale at m <= 10 and the kernel's value on its
    rounds above. The run keeps the least crossing ub and stops once
    ub - t <= tol, nothing prices above _PRICING_TOL, or after
    _CG_MAX_ROUNDS rounds. Returns (t, LHS model of the positive weights
    at t, the functional of ub with that bound, or None at t_cap or with
    no bound); LpFailure only when HiGHS does not end optimal.
    """
    m = len(b) // 8
    pool_bits, pool_blochs = pool
    bob = _into_ball(b.reshape(m, 2, 4)[0].sum(axis=0)[1:])
    strategies = _strategies(m)
    lp = _Lp(_rows(b), _rows(t_col), t_cap)
    lp.add(_columns(pool_bits, pool_blochs))
    ub, functional = np.inf, None
    for _ in range(_CG_MAX_ROUNDS):
        t, w, y = lp.solve()
        if t >= t_cap:
            functional = None  # no column can improve
            break
        coef = _coef(y)
        scale = max(1.0, np.abs(coef).max())
        bits, blochs, scores = _price(coef, hidden.vertices, bob, strategies)
        scaled = coef / scale
        bound = scores[0] / scale if strategies is not None else np.inf
        if strategies is None and scores[0] <= _PRICING_TOL:
            values, best = max_over_strategies(scaled, _CG_COLUMNS_PER_ROUND)
            bits, blochs = np.vstack([bits, best]), np.vstack([blochs, _into_ball(*_score(coef, best)[1:])])
            bound, scores = values[0], np.append(scores, values * scale)
        if (t_x := _crossing(bound, scaled.ravel() @ b, scaled.ravel() @ (b - t_col))) < ub:
            ub, functional = t_x, GeneralFunctional(scaled, float(bound))
        if ub - t <= tol or not (scores > _PRICING_TOL).any():
            break
        bits, blochs = bits[scores > _PRICING_TOL].astype(np.int8), blochs[scores > _PRICING_TOL]
        lp.add(_columns(bits, blochs))
        pool_bits, pool_blochs = np.vstack([pool_bits, bits]), np.vstack([pool_blochs, blochs])
    keep = np.flatnonzero(w > 0)  # of the pool at the last run
    return t, LhsCertificate(pool_bits[keep], pool_blochs[keep], w[keep]), functional


def _crossing(bound: float, v0: float, v1: float) -> float:
    """Where a functional's value v0 + t (v1 - v0) along a family crosses
    its bound plus 2 _DETECTION_MARGIN (at least 0); inf if it does not rise."""
    return max(0.0, (bound + 2 * _DETECTION_MARGIN - v0) / (v1 - v0)) if v1 > v0 else np.inf


def _anchor(a0: Assemblage) -> LhsCertificate:
    """The exact LHS model of the t = 0 assemblage a0, ps[x, a] = [1, b]/2:
    lambda = 0 and lambda = 1, both with hidden state b (pulled into the
    ball in floating point), weight 1/2 each."""
    bob = 2 * a0.ps[0, 0, 1:]
    bits = np.array([np.zeros(a0.m), np.ones(a0.m)], dtype=np.int8)
    return LhsCertificate(bits, _into_ball(np.array([bob, bob])), np.array([0.5, 0.5]))


def _at_zero(assemblage: Assemblage) -> Assemblage:
    """Its radial family's t = 0 end, ps[x, a] = [1, b]/2 of its Bob marginal b."""
    return Assemblage(np.broadcast_to(assemblage.ps[0].sum(axis=0) / 2, assemblage.ps.shape))


def _locate(hidden: SpherePolytope, a0: Assemblage, a1: Assemblage, t_cap: float, tol: float = 0.0):
    """``_solve`` to within ``tol`` along b(t) = b0 + t (b1 - b0) from the
    t = 0 assemblage a0 to a1. Where m <= 10 and 1 - |b| <= _NEAR_PURE, b
    Bob's state, the pool starts with every strategy at b, which holds a0's
    model. Else it starts with a0's exact model (``_anchor``), so the LP is
    feasible without slacks; the columns ``_price`` finds for the direction
    a1 - a0, as at t = 0 the LP is degenerate and its first dual arbitrary
    (next to every strategy at b they made HiGHS end Unknown); and, at
    m <= 10, every strategy lambda at r_lambda/|r_lambda|, the V of
    coef[x, a] = [0, c_{a|x} - (1 - 1/m) b], c = s/p (0 where p <= 0) at
    t_cap: the r_lambda = b + sum_x (c_{lambda(x)|x} - b) at weights prod_x
    p(lambda(x)|x) reproduce that assemblage, outside the ball, so most
    brackets that end at t_cap close in their first LP."""
    anchor = _anchor(a0)
    strategies, bob = _strategies(a0.m), anchor.blochs[0]
    if strategies is not None and 1 - np.linalg.norm(bob) <= _NEAR_PURE:
        bits, blochs = strategies, np.tile(bob, (len(strategies), 1))
    else:
        g_bits, g_blochs, _ = _price(a1.ps - a0.ps, hidden.vertices, bob, strategies)
        bits, blochs = [anchor.strategy_bits, g_bits.astype(np.int8)], [anchor.blochs, g_blochs]
        if strategies is not None:
            ps = a0.ps + t_cap * (a1.ps - a0.ps)
            c = np.divide(ps, ps[..., :1], out=np.zeros_like(ps), where=ps[..., :1] > 0)  # [1, c], 0 where p <= 0
            v = _score(c - np.append(1.0, (1 - 1 / a0.m) * bob))[1:]
            bits, blochs = [*bits, strategies], [*blochs, _into_ball(*v)]
        bits, blochs = np.vstack(bits), np.vstack(blochs)
    b0 = a0.ps.ravel()
    return _solve(hidden, (bits, blochs), b0, b0 - a1.ps.ravel(), t_cap, tol)


def lhs_lp_feasible(assemblage: Assemblage, hidden: SpherePolytope):
    """Decide LHS feasibility with hidden states anywhere in the Bloch
    ball: the LP along the assemblage's own radial family, from the t = 0
    assemblage [1, b]/2 of its Bob marginal b to t = t_cap = 1, with the
    vertices of the polytope ``hidden`` pricing above m = 10.

    Returns (True, LhsCertificate) only when t* reaches 1, every hidden
    state lies in the ball and the model reproduces the assemblage within
    TOL.lp_residual (max-abs over [p, s]); (False, GeneralFunctional) only
    when the functional beats its exact Bloch-ball bound on the
    assemblage; else (False, None), "not certified", as for an assemblage
    whose t* lies within about 1e-6 of 1, since pricing stops at
    _PRICING_TOL. Raises LpFailure when the solver fails.
    """
    t, model, functional = _locate(hidden, _at_zero(assemblage), assemblage, 1.0)
    if t >= 1.0 and model.residual(assemblage.ps) <= TOL.lp_residual:
        return True, model
    if functional is not None and _detects(functional, assemblage):
        return False, functional
    return False, None


def detect_steerable(rho_ab: DensityMatrix, directions, hidden: SpherePolytope):
    """Steering detection with a closed-loop certificate: steering is
    reported only when the LP's Farkas functional beats its exact bound
    over the Bloch ball by more than _DETECTION_MARGIN on the assemblage.
    Returns (steerable, GeneralFunctional carrying its bound, or None)."""
    cert = lhs_lp_feasible(make_assemblage(rho_ab, directions), hidden)[1]
    return (True, cert) if isinstance(cert, GeneralFunctional) else (False, None)


def _detects(functional: GeneralFunctional, assemblage: Assemblage) -> bool:
    return functional.value(assemblage) > functional.bound + _DETECTION_MARGIN


def certify_unsteerable_shrunk(rho_ab: DensityMatrix, meas: SpherePolytope, hidden: SpherePolytope) -> bool:
    """True certifies radial_mix_state(rho_ab, meas.eta) unsteerable from A to B
    for ALL projective measurements: any effect (I + eta u.sigma)/2 is a
    convex mixture of vertex effects because eta u lies in the vertex
    hull, and eta-depolarized measurements on rho are equivalent to
    projective measurements on the radially shrunk state."""
    return lhs_lp_feasible(make_assemblage(rho_ab, antipodal_directions(meas)), hidden)[0]


def radial_mix_state(rho_ab: DensityMatrix, t: float) -> DensityMatrix:
    """The radial mix t rho_AB + (1 - t) I/2 (x) rho_B, which keeps Bob's marginal, as a
    state: ValueError for t < 0 and, by DensityMatrix's TOL.psd check, past t_cap >= 1.
    A bracket builds it only to re-check a detection at its crossing t_x."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return DensityMatrix(t * rho_ab.mat + (1 - t) * _marginal(rho_ab)[1], (2, 2))


def _marginal(rho_ab: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """rho_B = tr_A rho_AB, summed as ``partial_trace`` sums it but not checked
    again, and the radial mix at t = 0, A = I/2 (x) rho_B; ValueError unless
    rho_AB is a two-qubit state."""
    require_two_qubit(rho_ab)
    rho_b = rho_ab.mat.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
    return rho_b, np.kron(ID2 / 2, rho_b)


def _t_cap(rho_ab: DensityMatrix, marginal: tuple | None = None) -> float:
    """Largest t <= T_CAP_MAX with the radial mix A + t (rho - A), A = I/2 (x) rho_B,
    PSD: 1 / (1 - mu_min), mu_min the least eigenvalue of A^{-1/2} rho A^{-1/2}, at
    least 1 and unmoved by invertible filters on Bob. A + 2^-48 I stands in for A
    outside rho - A, so a pure rho_B needs no inverse of 0 (README, soundness notes).
    ``marginal`` is ``_marginal(rho_ab)``, taken here unless the caller has it."""
    rho_b, end = _marginal(rho_ab) if marginal is None else marginal
    lam, vec = np.linalg.eigh(rho_b)
    w = np.kron(ID2, vec / np.sqrt(np.maximum(lam, 0) / 2 + 2.0**-48))
    k_min = np.linalg.eigvalsh(w.conj().T @ (rho_ab.mat - end) @ w)[0]
    return max(1.0, 1.0 / max(-k_min, 1.0 / T_CAP_MAX))


@dataclass(frozen=True)
class RadiusParams:
    """A bracket's settings; ValueError unless each is in its range, checked when built."""

    meas_level: int = 0
    hidden_level: int = 2
    bisection_tol: float = 1e-3  # --tol: the LP stops once its bracket on t* is within this

    def __post_init__(self):
        for name, top in (("meas_level", _MEAS_TOP), ("hidden_level", MAX_LEVEL)):
            level = getattr(self, name)
            if type(level) is not int or not 0 <= level <= top:
                raise ValueError(f"{name} {level!r} is not an integer in [0, {top}]")
        if type(self.bisection_tol) is bool or not 0 < self.bisection_tol < np.inf:
            raise ValueError(f"bisection_tol {self.bisection_tol!r} is not finite and > 0")


@dataclass(frozen=True)
class RadiusReport:
    """Certified bracket [r_in, r_out] for the critical radius, r_in =
    meas_eta t_in from the certified mixing weight t_in."""

    t_in: float
    r_out: float
    t_cap: float
    steerable_detected: bool  # False means r_out = t_cap is vacuous
    params: RadiusParams

    @property
    def meas_eta(self) -> float:
        """The certified inradius of the level-``params.meas_level`` polytope."""
        return sphere_polytope(self.params.meas_level).eta

    @property
    def r_in(self) -> float:
        return self.meas_eta * self.t_in

    @property
    def unsteerable_certified(self) -> bool:  # False means r_in = 0 is vacuous
        return self.t_in > 0

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


@cache
def _directions(level: int) -> np.ndarray:
    """The level's antipodal directions, built once and read-only."""
    directions = antipodal_directions(sphere_polytope(level))
    directions.flags.writeable = False
    return directions


def critical_radius_bounds(rho_ab: DensityMatrix, params: RadiusParams = RadiusParams()) -> RadiusReport:
    """Bracket the critical radius with one LP run (:func:`_locate`) along
    the radial family, the level-``hidden_level`` vertices pricing above
    m = 10, stopped once its bracket on t* is within params.bisection_tol.

    r_in = meas_eta t at t = min(t*, t_cap) where the run stopped (by the
    shrinking lemma) when t > 0, the mix t rho + (1 - t) A is a state
    (least eigenvalue >= -TOL.psd) and the LP's own model reproduces the
    family's assemblage a0 + t (a1 - a0), the mix's, within
    TOL.lp_residual; else r_in = 0 is vacuous. r_out is the run
    functional's ``_crossing`` t_x (detection at t implies R <= t) where
    t_x <= t_cap and the functional beats its exact bound on the mixed
    state's own assemblage at t_x; else r_out = t_cap is vacuous.
    """
    directions = _directions(params.meas_level)
    t_cap = _t_cap(rho_ab, marginal := _marginal(rho_ab))
    a0 = _at_zero(a1 := make_assemblage(rho_ab, directions))
    t, model, functional = _locate(sphere_polytope(params.hidden_level), a0, a1, t_cap, params.bisection_tol)

    t_in, r_out, det = 0.0, t_cap, False
    t = min(t, t_cap)
    if (t > 0 and np.linalg.eigvalsh(t * rho_ab.mat + (1 - t) * marginal[1])[0] >= -TOL.psd
            and model.residual(a0.ps + t * (a1.ps - a0.ps)) <= TOL.lp_residual):
        t_in = t
    if functional is not None:
        t_x = _crossing(functional.bound, functional.value(a0), functional.value(a1))
        if t_x <= t_cap and _detects(functional, make_assemblage(radial_mix_state(rho_ab, t_x), directions)):
            r_out, det = t_x, True

    return RadiusReport(t_in=t_in, r_out=r_out, t_cap=t_cap, steerable_detected=det, params=params)


@dataclass(frozen=True)
class OneWayReport:
    report_ab: RadiusReport
    report_ba: RadiusReport

    @property
    def verdict(self) -> str:
        """certified-cyclic where r_out(AB) < 1 <= r_in(BA), both certified;
        refuted where AB is certified unsteerable or BA certified steerable
        below t = 1, as then the one-way property cannot hold; else
        undetermined-at-this-resolution."""
        ab, ba = self.report_ab, self.report_ba
        if ab.steerable_detected and ab.r_out < 1.0 and ba.r_in >= 1.0:
            return "certified-cyclic"
        if ab.r_in >= 1.0 or (ba.steerable_detected and ba.r_out < 1.0):
            return "refuted"
        return "undetermined-at-this-resolution"

    def to_dict(self) -> dict:
        r1, r2 = self.report_ab.r_out, self.report_ba.r_in
        return {
            "rho_AB": self.report_ab.to_dict(),
            "rho_BA": self.report_ba.to_dict(),
            "R1_out_AB": r1,
            "R2_in_BA": r2,
            "delta": r2 - r1,
            "verdict": self.verdict,
        }


def one_way_report(rho_ab: DensityMatrix, params: RadiusParams = RadiusParams()) -> OneWayReport:
    """Bracket rho_AB and rho_BA = V rho_AB V^dagger for the cyclic conditions
    r_out(AB) < 1 <= r_in(BA): a translationally invariant state has
    rho_BC = rho_CA = rho_AB, so this one pair decides the cycle."""
    return OneWayReport(critical_radius_bounds(rho_ab, params), critical_radius_bounds(swap_state(rho_ab), params))
