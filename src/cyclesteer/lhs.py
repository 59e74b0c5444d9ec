"""LP-based local-hidden-state machinery.

LHS-model feasibility for a finite assemblage with hidden states anywhere
in the Bloch ball, steering detection with Farkas certificates,
unsteerability for all projective measurements via inradius shrinking,
and certified critical-radius brackets [r_in, r_out].

The LP asks for weights w_j >= 0 and the largest t in [0, t_cap] with
sum_j D_{lambda_j}(a|x) w_j [1, r_j] + t (b0 - b1) = b0: one column j per
deterministic strategy lambda_j and hidden Bloch vector |r_j| <= 1, along
a family b(t) = b0 + t (b1 - b0) from b0, ps[x, a] = [1, b]/2 with b
Bob's Bloch vector, in the assemblage's (m, 2, 4) layout (see
:mod:`cyclesteer.steering`). Every column and every b(t) is no-signalling,
sigma_{1|x} = rho_B - sigma_{0|x}, so the LP keeps only the 4(m + 1) rows
T ps of rho_B = sigma_{0|0} + sigma_{1|0} and of each sigma_{0|x}
(:func:`_rows`), not all 8m. The exact two-column model of b0
(:func:`_anchor`) is always in the pool, so the LP is feasible without
slacks. At each t this is the standard LHS program (Cavalcanti &
Skrzypczyk, Rep. Prog. Phys. 80, 024001 (2017)), solved by column
generation: the pool starts from the t = 0 model and the columns that
price best on the family's direction b1 - b0, columns are priced over
all 2^m strategies for m <= 10 (exact) and from the vertices of a
geodesic polytope above, and one HiGHS model per run takes each round's
columns, warm-starting the simplex. Its dual y, mapped back to
the (m, 2, 4) layout as T^T y (:func:`_coef`), is a Farkas functional
with y.b(t) = t - t*. Pricing
sets accuracy, not soundness: a model from any pool is an LHS model once it
passes reconstruction with every |r| <= 1 in floating point, and a dual
detects steering only when it beats its exact Bloch-ball bound
(:func:`cyclesteer.steering.max_over_strategies`), whose maximizing
column closes every LP. Decisions run it on an assemblage's own radial
family up to t_cap = 1 (:func:`lhs_lp_feasible`), brackets on a state's
(:func:`critical_radius_bounds`): r_in from its model, r_out from its
dual. Every reported LHS model is the LP's own model at the t it was
solved for, checked by reconstruction against that t's assemblage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import OptimizeResult
from scipy.optimize._highspy._core import HighsModelStatus, _Highs

from .linalg import DensityMatrix, ID2, partial_trace
from .polytope import SpherePolytope, antipodal_directions, sphere_polytope
from .steering import Assemblage, make_assemblage, max_over_strategies
from .tolerances import TOL

# Every strategy is tabled while 2^m is at most this many (m <= 10): pricing
# scores the whole table, so it is exact, and near-pure pools start from it.
EXACT_PRICING_MAX_STRATEGIES = 1024
# A column prices in when the dual's value on it exceeds this (absolute).
_PRICING_TOL = 1e-6
_CG_MAX_ROUNDS = 400
_CG_COLUMNS_PER_ROUND = 40
# At m <= 10 the pool holds every strategy at Bob's state b where 1 - |b| <= this. Without
# them the LP's largest dual on random product states at hidden level 0 reached 1.4e4 at
# 1 - |b| = 0.1 (the benchmark states' least), 1e6 at 1e-2, 2e9 at 1e-9 where HiGHS failed.
_NEAR_PURE = 1e-2
# A Farkas functional detects steering where it beats its exact bound by more than this.
_DETECTION_MARGIN = 1e-12
# t_cap is the largest t <= T_CAP_MAX at which the radial mix is a state.
T_CAP_MAX = 2.0


class LpFailure(RuntimeError):
    """HiGHS or column generation did not end at an optimum."""


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
    bound: float | None = None  # exact_lhs_bound(), attached on detection

    def value(self, assemblage: Assemblage) -> float:
        return float((self.coef * assemblage.ps).sum())

    def exact_lhs_bound(self) -> float:
        """Exact bound over all LHS models with hidden states anywhere in the
        Bloch ball: max over strategies of lambda_max(sum_x F_{lambda(x)|x})."""
        return max_over_strategies(self.coef)[0]


def _into_ball(r: np.ndarray) -> np.ndarray:
    """r with every row whose norm rounds to 1 or more scaled by 1 - 2^-50,
    so that |r| <= 1 holds in floating point however the norm is summed."""
    r = np.array(r, dtype=float)
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


def _strategies(m: int) -> np.ndarray | None:
    """All 2^m strategies, row i = sum_x bits[x] 2^x (the exact kernel's
    order), while 2^m <= EXACT_PRICING_MAX_STRATEGIES; else None."""
    if (1 << m) > EXACT_PRICING_MAX_STRATEGIES:
        return None
    return ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(np.int8)


def _best_column(coef: np.ndarray, bits: np.ndarray):
    """Score and hidden state of strategies ``bits`` (..., m) at their
    best state r = V/|V|: the functional's value on the column is
    sum_x c_{bits(x)|x} + V.r with V = sum_x v_{bits(x)|x}."""
    picked = coef[np.arange(coef.shape[0]), bits]
    v = picked[..., 1:].sum(axis=-2)
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    r = _into_ball(np.divide(v, norm, out=np.zeros_like(v), where=norm > 0))
    return picked[..., 0].sum(axis=-1) + norm[..., 0], r


def _price(coef: np.ndarray, verts: np.ndarray, bob: np.ndarray, strategies: np.ndarray | None):
    """Pricing, exact with the table of all 2^m strategies (m <= 10, see
    _strategies): each strategy at its best state V/|V|, so the top score
    is the functional's maximum over the Bloch ball. Without the table,
    from each vertex d the strategy best at d (argmax_a c_{a|x} + v_{a|x}.d
    per setting) at V/|V|, then three more steps alternating strategy and
    state, none of which lowers the score. At m = 21 (meas level 1) four
    steps against one took, on the singlet, 206 LPs and 13 exact-kernel
    calls against 292 and 31 (4.9 s vs 10.5 s) at hidden level 0, 72 and
    5 against 89 and 10 (2.2 s vs 4.0 s) at level 1 (radius-fine), 53
    and 1 against 55 and 1 (1.1 s vs 1.2 s) at level 2, and on Werner(0.8)
    at level 1 76 and 4 against 99 and 4 (2.0 s both). Bob's own
    state b is priced as it is: when it is pure, no other state can
    stand in for it. Returns bits, Bloch vectors and scores of the best
    distinct columns, best first."""
    bits, r = strategies, verts
    if bits is not None:
        scores, r = _best_column(coef, bits)
    else:
        for _ in range(4):
            vals = coef[None, :, :, 0] + np.einsum("kd,xad->kxa", r, coef[:, :, 1:])
            bits = np.unique(vals.argmax(axis=2), axis=0)
            scores, r = _best_column(coef, bits)
    at_bob = coef[:, :, 0] + coef[:, :, 1:] @ bob
    bits, r = np.vstack([bits, at_bob.argmax(axis=1)]), np.vstack([r, bob])
    scores = np.append(scores, at_bob.max(axis=1).sum())
    order = np.argsort(scores)[::-1][:_CG_COLUMNS_PER_ROUND]
    return bits[order], r[order], scores[order]


class _Lp:
    """One HiGHS model per column-generation run, kept across its rounds:

        min -t   s.t.   A w + t t_col = b,   w >= 0,   0 <= t <= t_cap,

    with column t and then the pool's w in the order ``add`` appends
    them, on whatever rows b has (``_solve`` passes the 4(m + 1)
    no-signalling rows of ``_rows``); each ``solve`` warm-starts the
    simplex from the last basis.
    The first run is HiGHS's dual simplex from the logical basis; every
    later one is the primal simplex, since added columns leave the last
    optimal basis primal feasible but not dual feasible: on radius-default
    25 iterations per run instead of 55. The dual simplex stays first:
    with the primal there, the 54 prefilter brackets of the coarse-brackets
    benchmark took 7783 iterations in 210 LPs instead of 6794 in 205, and
    about 9 % more time. HiGHS keeps primal and dual feasibility to
    1e-10, below the 1e-8 model check (at the default 1e-7 a model came
    back with a weight of -9e-8, and with presolve the singlet's at meas
    0, hidden 2 with status Unknown); presolve is off, as at 28 rows it
    costs more than it saves.
    """

    def __init__(self, b: np.ndarray, t_col: np.ndarray, t_cap: float):
        self.highs = _Highs()
        for option, value in (("output_flag", False), ("presolve", "off"),
                              ("primal_feasibility_tolerance", 1e-10), ("dual_feasibility_tolerance", 1e-10)):
            self.highs.setOptionValue(option, value)
        self.highs.addRows(len(b), b, b, 0, [], [], [])
        self.add(t_col[:, None], -1.0, t_cap)

    def add(self, cols: np.ndarray, cost: float = 0.0, upper: float = np.inf):
        """Append the dense columns ``cols`` (rows, k), each with this cost and upper bound."""
        k = cols.shape[1]
        j, i = np.nonzero(cols.T)
        starts = np.searchsorted(j, np.arange(k)).astype(np.int32)
        self.highs.addCols(k, np.full(k, cost), np.zeros(k), np.full(k, upper),
                           len(i), starts, i.astype(np.int32), cols.T[j, i])

    @property
    def shape(self) -> tuple[int, int]:
        return self.highs.getNumRow(), self.highs.getNumCol()

    def solve(self):
        """Returns (t, w, y); LpFailure unless HiGHS ends optimal."""
        res = linprog(A_eq=self)
        self.highs.setOptionValue("simplex_strategy", 4)
        return float(res.x[0]), res.x[1:], res.y


def linprog(*, A_eq: _Lp) -> OptimizeResult:
    """Run HiGHS on the model ``A_eq`` from its last basis: x, y (row duals)
    and nit, or LpFailure. The one LP entry point, called as scipy's
    ``linprog(A_eq=...)`` was, so perfbench's ``lhs.linprog`` span times
    and sizes (``A_eq.shape``, ``nit``) every run."""
    highs = A_eq.highs
    highs.run()
    nit = highs.getInfo().simplex_iteration_count
    if highs.getModelStatus() != HighsModelStatus.kOptimal:
        # A warm start can end Unknown (one unscaled dual infeasibility, in 4 of
        # 600 random m = 6 locators); one cold solve from a cleared basis ends it.
        highs.clearSolver()
        highs.run()
        nit += highs.getInfo().simplex_iteration_count
    status = highs.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        raise LpFailure(f"LP solver status {int(status)}: {highs.modelStatusToString(status)}")
    sol = highs.getSolution()
    return OptimizeResult(x=np.array(sol.col_value), y=np.array(sol.row_dual), nit=nit)


def _solve(hidden: SpherePolytope, pool: tuple, b: np.ndarray, t_col: np.ndarray, t_cap: float):
    """The ``_Lp`` over the columns of ``pool`` = (bits, blochs), adding
    priced columns until none prices above _PRICING_TOL (``_price``, from
    the vertices of ``hidden`` above m = 10); when it offers none, the
    exact kernel's maximizing column (lambda*, V/|V|) is priced, so every
    LP ends optimal over the ball. b and t_col come in the (m, 2, 4)
    layout, flat, and the LP holds their 4(m + 1) rows T b and T t_col;
    each dual y is priced, bounded and returned as the functional
    coef = T^T y (``_coef``), whose value on every column and on every
    b(t) is y's. Deleting the rows (x >= 1, a = 1) instead of taking
    these left a warm-started t* 1.6e-9 off a cold solve over the same
    columns at m = 6. The kernel bounds coef divided by
    max(1, its max-abs entry), so every functional has coefficients of
    at most 1. Ending below t_cap, t is basic, so the final dual y has
    y.b(t) = t - t* along the family, and its bound over the ball is at
    most the pricing tolerance.

    Returns (t*, LHS model of the positive weights at t*, functional or
    None at t* = t_cap). Raises LpFailure when HiGHS or column generation
    does not end optimal.
    """
    m = len(b) // 8
    pool_bits, pool_blochs = pool
    bob = _into_ball(b.reshape(m, 2, 4)[0].sum(axis=0)[1:])
    strategies = _strategies(m)
    lp = _Lp(_rows(b), _rows(t_col), t_cap)
    lp.add(_columns(pool_bits, pool_blochs))
    for _ in range(_CG_MAX_ROUNDS):
        t, w, y = lp.solve()
        model = LhsCertificate(pool_bits[w > 0], pool_blochs[w > 0], w[w > 0])
        if t >= t_cap:
            return t, model, None  # no column can improve
        coef = _coef(y)
        bits, blochs, scores = _price(coef, hidden.vertices, bob, strategies)
        functional = None
        if scores[0] <= _PRICING_TOL:
            scale = max(1.0, np.abs(coef).max())
            bound, best = max_over_strategies(coef / scale)
            functional = GeneralFunctional(coef / scale, bound)
            bits = np.vstack([bits, best])
            blochs = np.vstack([blochs, _best_column(coef, best)[1]])
            scores = np.append(scores, bound * scale)
        if not (scores > _PRICING_TOL).any():
            return t, model, functional
        bits, blochs = bits[scores > _PRICING_TOL].astype(np.int8), blochs[scores > _PRICING_TOL]
        lp.add(_columns(bits, blochs))
        pool_bits, pool_blochs = np.vstack([pool_bits, bits]), np.vstack([pool_blochs, blochs])
    raise LpFailure(f"column generation did not converge in {_CG_MAX_ROUNDS} rounds")


def _anchor(a0: Assemblage) -> LhsCertificate:
    """The exact LHS model of the t = 0 assemblage a0, ps[x, a] = [1, b]/2:
    lambda = 0 and lambda = 1, both with hidden state b (pulled into the
    ball in floating point), weight 1/2 each."""
    bob = 2 * a0.ps[0, 0, 1:]
    bits = np.array([np.zeros(a0.m), np.ones(a0.m)], dtype=np.int8)
    return LhsCertificate(bits, _into_ball(np.array([bob, bob])), np.array([0.5, 0.5]))


def _locate(hidden: SpherePolytope, a0: Assemblage, a1: Assemblage, t_cap: float):
    """``_solve`` along b(t) = b0 + t (b1 - b0) from a0 to a1, with a0 the
    t = 0 assemblage. The pool starts at Bob's state b: with every
    strategy there where m <= 10 and 1 - |b| <= _NEAR_PURE, else with the
    two columns of a0's exact model (``_anchor``) and the columns
    ``_price`` finds for the family direction a1 - a0. As b nears the
    sphere, only columns near b can carry weight and the optimal duals
    grow without bound. At t = 0 the LP is degenerate and its first dual
    arbitrary, so without the direction's columns the first 5-9 LPs of a
    bracket priced columns that left t at 0; with them every
    radius-default bracket leaves t = 0 by its third. Next to every
    strategy at b they do harm: with them there, 22 of 1000 product
    states at 1 - |b| = 1e-9 ended Unknown at hidden levels 1 and 2."""
    anchor = _anchor(a0)
    strategies, bob = _strategies(a0.m), anchor.blochs[0]
    if strategies is not None and 1 - np.linalg.norm(bob) <= _NEAR_PURE:
        bits, blochs = strategies, np.tile(bob, (len(strategies), 1))
    else:
        g_bits, g_blochs, _ = _price(a1.ps - a0.ps, hidden.vertices, bob, strategies)
        bits = np.vstack([anchor.strategy_bits, g_bits.astype(np.int8)])
        blochs = np.vstack([anchor.blochs, g_blochs])
    b0 = a0.ps.ravel()
    return _solve(hidden, (bits, blochs), b0, b0 - a1.ps.ravel(), t_cap)


def lhs_lp_feasible(assemblage: Assemblage, hidden: SpherePolytope):
    """Decide LHS feasibility with hidden states anywhere in the Bloch
    ball: the LP along the assemblage's own radial family, from the t = 0
    assemblage [1, b]/2 of its Bob marginal b to t = t_cap = 1, with the
    vertices of the polytope ``hidden`` pricing above m = 10.

    A model is accepted only when t* reaches 1, every hidden state lies
    in the ball and its reconstruction reproduces the assemblage to
    within TOL.lp_residual (max-abs over [p, s]); infeasibility only with
    a Farkas functional that beats its exact Bloch-ball bound on the
    assemblage, which it carries. Returns (True, LhsCertificate),
    (False, GeneralFunctional) or (False, None), "not certified"; raises
    LpFailure when the solver fails. Pricing stops at _PRICING_TOL, so the
    functional's bound can be up to about 1e-6 and an assemblage whose t*
    lies within about 1e-6 of 1 can come back (False, None).
    """
    a0 = Assemblage(np.broadcast_to(assemblage.ps[0].sum(axis=0) / 2, assemblage.ps.shape))
    t, model, functional = _locate(hidden, a0, assemblage, 1.0)
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


def _radial_family(rho_ab: DensityMatrix):
    """t -> t rho_AB + (1 - t) I/2 (x) rho_B, which keeps Bob's marginal."""
    anchor = np.kron(ID2 / 2, partial_trace(rho_ab, [1]).mat)
    return lambda t: t * rho_ab.mat + (1 - t) * anchor


def radial_mix_state(rho_ab: DensityMatrix, t: float) -> DensityMatrix:
    """The radial mix at t as a state: ValueError for t < 0 and, by the
    TOL.psd check of DensityMatrix, where it is indefinite (t > 1 only)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return DensityMatrix(_radial_family(rho_ab)(t), (2, 2))


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
    """Largest t <= t_max with the radial mix PSD (t = 1 always qualifies)."""
    mix = _radial_family(rho_ab)

    def indefinite(t: float) -> bool:
        mat = mix(t)
        return np.linalg.eigvalsh((mat + mat.conj().T) / 2).min() < -TOL.psd

    return bisect(indefinite, 1.0, t_max, 1e-9)[0] if indefinite(t_max) else t_max


def _first_detection(functional: GeneralFunctional, a0: Assemblage, a1: Assemblage,
                     assemblage_at, t_d: float) -> float:
    """Smallest t <= t_d at which ``functional`` still detects steering,
    given that it detects at t_d. Its value is affine in t, so the
    crossing of bound + _DETECTION_MARGIN has a closed form; the point
    returned aims at twice the margin and is re-checked on the mixed
    state's own assemblage, falling back to t_d."""
    v0, v1 = functional.value(a0), functional.value(a1)
    if v1 <= v0:
        return t_d
    t = min(t_d, max(0.0, (functional.bound + 2 * _DETECTION_MARGIN - v0) / (v1 - v0)))
    return t if _detects(functional, assemblage_at(t)) else t_d


def critical_radius_bounds(rho_ab: DensityMatrix, params: RadiusParams = RadiusParams()) -> RadiusReport:
    """Bracket the critical radius with one LP run (:func:`_locate`) along
    the radial family, from the t = 0 model, with the level-``hidden_level``
    vertices pricing above m = 10; its primal gives r_in and its dual r_out.

    r_in = meas.eta t for t = min(t*, t_cap) (by the shrinking lemma,
    unsteerability of the shrunk state for all projective measurements)
    when t > 0 and the LP's own model at t* reproduces the mixed state's
    assemblage at t to within TOL.lp_residual, the check decisions
    apply. Otherwise r_in = 0 is vacuous (unsteerable_certified False).

    r_out: if t* < t_cap, the LP's dual (see :func:`_solve`) is checked
    on the mixed state's assemblage at t_d = min(t_cap, t* + tol/2) (tol =
    params.bisection_tol). If it beats its exact bound there, it detects
    steering from its closed-form crossing up to t_d, and r_out is that
    crossing (detection at t implies R <= t). Else r_out = t_cap is vacuous.
    """
    meas = sphere_polytope(params.meas_level)
    directions = antipodal_directions(meas)
    t_cap = _psd_cap(rho_ab, T_CAP_MAX)

    def assemblage_at(t: float) -> Assemblage:
        return make_assemblage(radial_mix_state(rho_ab, t), directions)

    a0, a1 = assemblage_at(0.0), make_assemblage(rho_ab, directions)
    t_star, model, functional = _locate(sphere_polytope(params.hidden_level), a0, a1, t_cap)

    t_in, r_out, det = 0.0, t_cap, False
    t = min(t_star, t_cap)
    if t > 0 and model.residual(assemblage_at(t).ps) <= TOL.lp_residual:
        t_in = t
    if functional is not None:
        t_d = min(t_cap, t_star + params.bisection_tol / 2)
        if _detects(functional, assemblage_at(t_d)):
            r_out, det = _first_detection(functional, a0, a1, assemblage_at, t_d), True

    return RadiusReport(r_in=meas.eta * t_in, r_out=r_out, t_cap=t_cap, steerable_detected=det,
                        unsteerable_certified=t_in > 0, params=params, meas_eta=meas.eta)


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
    return OneWayReport(report_ab=rep_ab, report_ba=rep_ba, r1=r1, r2=r2, delta=r2 - r1, verdict=verdict)
