import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeWarning, linprog

from cyclesteer import lhs
from cyclesteer.lhs import (
    GeneralFunctional,
    LhsCertificate,
    RadiusParams,
    T_CAP_MAX,
    _Lp,
    _anchor,
    _columns,
    _locate,
    _price,
    _psd_cap,
    _solve,
    _strategies,
    bisect,
    certify_unsteerable_shrunk,
    critical_radius_bounds,
    detect_steerable,
    lhs_lp_feasible,
    one_way_report,
    radial_mix_state,
)
from cyclesteer.linalg import ID2, PAULIS, DensityMatrix, bloch_to_obs, partial_trace
from cyclesteer.polytope import antipodal_directions, sphere_polytope
from cyclesteer.states import singlet, werner
from cyclesteer.steering import icosahedron_settings, make_assemblage, max_over_strategies
from cyclesteer.tolerances import TOL

rng = np.random.default_rng(21)

ICO = sphere_polytope(0)
ICO_DIRS = antipodal_directions(ICO)
HIDDEN1 = sphere_polytope(1)


def random_two_qubit(r=rng):
    g = r.standard_normal((4, 4)) + 1j * r.standard_normal((4, 4))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m), (2, 2))


def test_strategies_enumeration():
    """The strategy table holds every strategy once, row i = sum_x bits[x] 2^x,
    the exact kernel's row order."""
    s = _strategies(3)
    assert s.shape == (8, 3)
    assert len({tuple(row) for row in s}) == 8
    assert set(s.ravel()) == {0, 1}
    assert np.array_equal(s @ (1 << np.arange(3)), np.arange(8))


def _reconstruct_loop(cert):
    """The complex double loop that reconstruct() replaced (oracle): the
    modeled assemblage as 2x2 matrices, shape (m, 2, 2, 2)."""
    m = cert.strategy_bits.shape[1]
    sig = np.zeros((m, 2, 2, 2), dtype=complex)
    for bits, r, w in zip(cert.strategy_bits, cert.blochs, cert.weights):
        h = (ID2 + np.tensordot(r, PAULIS, axes=1)) / 2
        for x in range(m):
            sig[x, bits[x]] += w * h
    return sig


def test_maximally_mixed_has_trivial_lhs_model():
    rho = DensityMatrix(np.eye(4) / 4, (2, 2))
    a = make_assemblage(rho, ICO_DIRS)
    feasible, cert = lhs_lp_feasible(a, ICO)
    assert feasible
    assert isinstance(cert, LhsCertificate)
    assert np.abs(cert.reconstruct() - a.ps).max() <= 1e-8


def test_reconstruct_matches_complex_loop():
    """reconstruct() in the (m, 2, 4) layout is the complex loop's
    [tr sigma, tr(sigma.sigma_i)], on certificates from the LP and on a
    random one with repeated (strategy, hidden state) pairs."""
    r = np.random.default_rng(17)
    certs = []
    for rho in (werner(0.4), radial_mix_state(random_two_qubit(r), 0.5)):
        feasible, cert = lhs_lp_feasible(make_assemblage(rho, ICO_DIRS), HIDDEN1)
        assert feasible
        certs.append(cert)
    n = 50
    certs.append(LhsCertificate(
        strategy_bits=r.integers(0, 2, (n, 6)).astype(np.int8),
        blochs=r.standard_normal((3, 3))[r.integers(0, 3, n)], weights=r.uniform(size=n),
    ))
    for cert in certs:
        sig = _reconstruct_loop(cert)
        ps = cert.reconstruct()
        assert np.abs(ps[:, :, 0] - np.einsum("xaii->xa", sig).real).max() <= 1e-14
        assert np.abs(ps[:, :, 1:] - np.einsum("xaij,pji->xap", sig, PAULIS).real).max() <= 1e-14


def test_werner_below_threshold_feasible():
    a = make_assemblage(werner(0.5), ICO_DIRS)
    feasible, cert = lhs_lp_feasible(a, HIDDEN1)
    assert feasible
    assert (cert.weights >= 0).all()
    assert np.isclose(cert.weights.sum(), 1.0, atol=1e-8)
    assert np.abs(cert.reconstruct() - a.ps).max() <= 1e-8


def test_werner_above_threshold_infeasible_with_farkas():
    a = make_assemblage(werner(0.8), ICO_DIRS)
    feasible, cert = lhs_lp_feasible(a, HIDDEN1)
    assert not feasible
    assert isinstance(cert, GeneralFunctional)
    # Farkas closure: the assemblage value beats the exact ball bound
    assert cert.value(a) > cert.exact_lhs_bound() + 1e-7
    assert cert.bound == cert.exact_lhs_bound()


def _columns_loop(bits, blochs, m):
    """The per-column double loop of the (m, 2, 4) layout, 8m rows (oracle)."""
    cols = np.zeros((8 * m, len(bits)))
    for j in range(len(bits)):
        for x in range(m):
            r = (2 * x + int(bits[j, x])) * 4
            cols[r, j] = 1.0
            cols[r + 1 : r + 4, j] = blochs[j]
    return cols


def _ns_map(m):
    """T, (4(m + 1), 8m), written out: the rows of rho_B = sigma_{0|0} +
    sigma_{1|0}, then those of sigma_{0|x} for each setting x."""
    t = np.zeros((4 * (m + 1), 8 * m))
    t[:4, :4] = t[:4, 4:8] = np.eye(4)
    for x in range(m):
        t[4 * (x + 1) : 4 * (x + 2), 8 * x : 8 * x + 4] = np.eye(4)
    return t


@pytest.mark.parametrize("level,m", [(0, 6), (1, 4), (2, 2)])
def test_columns_match_loop(level, m):
    """_columns has the loop's entries in the loop's column order, times
    T: on every (strategy, vertex) pair of a hidden polytope, with the
    vertices pulled into the ball in floating point, and on random bits
    and Bloch vectors."""
    bits, vertices = _hull_columns(sphere_polytope(level), 1.0, m)
    blochs = lhs._into_ball(vertices)
    assert np.abs(blochs - vertices).max() <= 2.0**-50
    assert (np.linalg.norm(blochs, axis=1) <= 1.0).all()
    assert np.array_equal(_columns(bits, blochs), _ns_map(m) @ _columns_loop(bits, blochs, m))
    r = np.random.default_rng(level)
    bits, blochs = r.integers(0, 2, (20, m)), r.standard_normal((20, 3))
    assert np.array_equal(_columns(bits, blochs), _ns_map(m) @ _columns_loop(bits, blochs, m))


@pytest.mark.parametrize("m", [1, 6, 21])
def test_no_signalling_rows_and_dual(m):
    """The LP's rows are T times the (m, 2, 4) layout, exactly: its columns
    (above), right-hand sides and family directions; its dual maps back
    as T^T y, whose value on a no-signalling assemblage is y.(T ps)."""
    r = np.random.default_rng(m)
    t = _ns_map(m)
    v, y = r.standard_normal(8 * m), r.standard_normal(4 * (m + 1))
    assert np.array_equal(lhs._rows(v), t @ v)
    assert np.array_equal(lhs._coef(y).ravel(), t.T @ y)
    assert lhs._coef(y).shape == (m, 2, 4)
    directions = antipodal_directions(sphere_polytope({1: 0, 6: 0, 21: 1}[m]))[:m]
    for _ in range(5):
        ps = make_assemblage(random_two_qubit(r), directions).ps
        y = r.standard_normal(4 * (m + 1)) * 10.0 ** r.integers(-3, 4)
        value = (lhs._coef(y) * ps).sum()
        assert abs(value - y @ lhs._rows(ps.ravel())) <= 1e-13 * np.abs(y).sum()


def _assert_exact_pricing(coef, bob):
    # one vertex, so that pricing from the vertices would miss the maximum
    _, blochs, scores = _price(coef, np.array([[0.0, 0.0, 1.0]]), bob, _strategies(len(coef)))
    assert abs(scores[0] - max_over_strategies(coef)[0]) <= 1e-12
    assert (np.linalg.norm(blochs, axis=1) <= 1.0).all()
    return scores[0]


@pytest.mark.parametrize("m", [2, 4, 6, 8, 10])
def test_pricing_exact_while_strategies_enumerated(m):
    """Up to m = 10 pricing scores every strategy, so its top score is the
    exact kernel's maximum over the Bloch ball; above, there is no table."""
    r = np.random.default_rng(m)
    for _ in range(5):
        bob = r.standard_normal(3)
        _assert_exact_pricing(r.standard_normal((m, 2, 4)), bob / max(1.0, np.linalg.norm(bob)))
    assert len(_strategies(m)) == 1 << m
    assert _strategies(11) is None


def test_pricing_exact_on_icosahedral_functional():
    """The degenerate functional [0, +-b_x] of the six icosahedral settings
    has many tied maximizers; its top score is L = 1 + sqrt(5)."""
    b = icosahedron_settings().blochs
    coef = np.zeros((6, 2, 4))
    coef[:, 0, 1:], coef[:, 1, 1:] = b, -b
    assert abs(_assert_exact_pricing(coef, np.zeros(3)) - (1 + np.sqrt(5))) <= 1e-12


def _anchor_pool(anchor):
    """A pool of the t = 0 model's two columns alone."""
    return anchor.strategy_bits, anchor.blochs


def test_column_generation_from_hull_or_anchor():
    """From every (strategy, vertex) column of the level-0 polytope and the
    t = 0 model, or from the t = 0 model alone, the LP to t_cap = 1 ends
    at the same decision on m = 6 assemblages (two Werner states and one
    random state); at m = 21, where pricing is not exact,
    lhs_lp_feasible gives the expected decisions."""
    for rho in (werner(0.45), werner(0.99), random_two_qubit(np.random.default_rng(3))):
        a0 = make_assemblage(radial_mix_state(rho, 0.0), ICO_DIRS)
        b0, b1 = a0.ps.ravel(), make_assemblage(rho, ICO_DIRS).ps.ravel()
        anchor = _anchor(a0)
        seeded = _solve(ICO, _locator_pool(ICO, anchor), b0, b0 - b1, 1.0)
        empty = _solve(ICO, _anchor_pool(anchor), b0, b0 - b1, 1.0)
        assert (seeded[0] >= 1.0) == (empty[0] >= 1.0)
        assert (seeded[2] is None) == (empty[2] is None) == (seeded[0] >= 1.0)
    dirs = antipodal_directions(sphere_polytope(1))
    for p, expected in ((0.45, True), (0.99, False)):
        a = make_assemblage(werner(p), dirs)
        feasible, cert = lhs_lp_feasible(a, HIDDEN1)
        assert feasible is expected
        assert isinstance(cert, LhsCertificate if expected else GeneralFunctional)


def _cold_solve(c, a, b, upper, method="highs", **options):
    """scipy's cold HiGHS solve of min c.x, a x = b, 0 <= x <= upper at the
    model's 1e-10 tolerances, presolve off, with extra HiGHS ``options``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)  # options scipy passes on verbatim
        return linprog(c, A_eq=a, b_eq=b, bounds=np.column_stack([np.zeros(len(c)), upper]), method=method,
                       options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10,
                                "presolve": False, **options})


class _ColdChecked(_Lp):
    """The warm-started model, checked after every solve against a cold
    linprog over every column added so far (the oracle). Errors are
    measured against max(1, max|y|), the scale of the dual's rounding.
    Where the oracle's dual simplex ends non-optimal (Unknown on the
    singlet's default bracket, a 48 x 1144 LP on which the model's t*
    equals the cold primal solve's and matches presolved and
    1e-7-tolerance solves to 1.3e-15),
    the oracle is the same LP solved cold by the primal simplex."""

    rounds = []

    def __init__(self, b, t_col, t_cap):
        self.b, self.parts = b, []
        super().__init__(b, t_col, t_cap)

    def add(self, cols, cost=0.0, upper=np.inf):
        self.parts.append((cols, np.full(cols.shape[1], cost), np.full(cols.shape[1], upper)))
        super().add(cols, cost, upper)

    def solve(self):
        t, w, y = super().solve()
        a, c, upper = (np.concatenate(part, axis=-1) for part in zip(*self.parts))
        cold = _cold_solve(c, a, self.b, upper)
        if cold.status != 0:
            cold = _cold_solve(c, a, self.b, upper, method="highs-ds", simplex_strategy=4)
        assert cold.status == 0
        reduced = c - a.T @ y
        # t at its cap t_cap has reduced cost <= 0, which enters the dual objective
        at_cap = upper[0] * min(0.0, reduced[0])
        scale = max(1.0, np.abs(y).max())
        assert abs(-t - cold.fun) <= 1e-9 * scale
        assert abs(y @ self.b + at_cap + t) <= 1e-9 * scale
        assert reduced[1:].min() >= -1e-9 * scale
        self.rounds.append(scale)
        return t, w, y


def test_warm_start_matches_cold_solve(monkeypatch):
    """After every column-generation round the warm-started model's optimum
    is a cold solve's over the same columns, and its dual is optimal on
    all of them: decisions and brackets at m = 6 (singlet, Werner(0.9), a
    random state), and one decision at m = 21."""
    monkeypatch.setattr(lhs, "_Lp", _ColdChecked)
    monkeypatch.setattr(_ColdChecked, "rounds", [])
    for rho in (singlet(), werner(0.9), random_two_qubit(np.random.default_rng(5))):
        lhs_lp_feasible(make_assemblage(rho, ICO_DIRS), ICO)
        critical_radius_bounds(rho)
    feasible, _ = lhs_lp_feasible(make_assemblage(werner(0.45), antipodal_directions(HIDDEN1)), HIDDEN1)
    assert feasible
    assert len(_ColdChecked.rounds) > 50


def test_no_signalling_t_star_matches_full_layout_lp(monkeypatch):
    """The 4(m + 1)-row LP's t* is a cold scipy solve's over the 8m rows
    of the (m, 2, 4) layout and the same final pool, to within 1e-9
    max(1, max|y|): singlet, Werner(0.9) and a random state at default
    parameters."""
    pool, duals = [], []
    columns, run = lhs._columns, lhs.linprog

    def spy(*, A_eq):
        res = run(A_eq=A_eq)
        duals.append(res.y)
        return res

    monkeypatch.setattr(lhs, "_columns", lambda bits, blochs: pool.append((bits, blochs)) or columns(bits, blochs))
    monkeypatch.setattr(lhs, "linprog", spy)
    hidden = sphere_polytope(RadiusParams().hidden_level)
    for rho in (singlet(), werner(0.9), random_two_qubit(np.random.default_rng(5))):
        pool.clear()
        a0, a1 = make_assemblage(radial_mix_state(rho, 0.0), ICO_DIRS), make_assemblage(rho, ICO_DIRS)
        t_cap = _psd_cap(rho, T_CAP_MAX)
        t_star = _locate(hidden, a0, a1, t_cap)[0]
        bits, blochs = (np.vstack(part) for part in zip(*pool))
        b0 = a0.ps.ravel()
        a = np.hstack([(b0 - a1.ps.ravel())[:, None], _columns_loop(bits, blochs, 6)])
        c, upper = np.zeros(a.shape[1]), np.full(a.shape[1], np.inf)
        c[0], upper[0] = -1.0, t_cap
        cold = _cold_solve(c, a, b0, upper)
        if cold.status != 0:
            cold = _cold_solve(c, a, b0, upper, method="highs-ds", simplex_strategy=4)
        assert cold.status == 0
        assert abs(-cold.fun - t_star) <= 1e-9 * max(1.0, np.abs(duals[-1]).max())


def test_brackets_leave_t_zero_by_third_lp(monkeypatch):
    """With the family direction's columns in the first pool, each of the
    radius-default benchmark's 8 brackets (b1, b2, b3 and sc1, both
    directions) has t > 0 by its third LP; from the t = 0 model alone
    they sat at t = 0 until their sixth to tenth."""
    runs, run, solve = [], lhs.linprog, lhs._solve

    def spy(*, A_eq):
        res = run(A_eq=A_eq)
        runs[-1].append(res.x[0])
        return res

    monkeypatch.setattr(lhs, "linprog", spy)
    monkeypatch.setattr(lhs, "_solve", lambda *args: runs.append([]) or solve(*args))
    for _, rho, params in itertools.islice(_pinned_inputs(), 8):
        critical_radius_bounds(rho, params)
    assert len(runs) == 8
    assert all(max(ts[:3]) > 0 for ts in runs), [len(ts) for ts in runs]


def _product(seed, purity):
    """A random product state whose Bob marginal has Bloch length ``purity``."""
    r = np.random.default_rng(seed)
    b = r.standard_normal(3)
    alice = random_two_qubit(r).mat.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    return DensityMatrix(np.kron(alice, (ID2 + bloch_to_obs(purity * b / np.linalg.norm(b))) / 2), (2, 2))


def test_no_lp_failure_on_random_and_near_pure_states():
    """A fixed-seed sweep at hidden levels 0-2 ends without LpFailure:
    random states, and product states with Bob's state pure or at
    1 - |b| = 1e-9. The near-pure seeds are ones whose brackets at hidden
    levels 1 and 2 ended Unknown when the family direction's columns also
    joined the pool of every strategy at b."""
    r = np.random.default_rng(41)
    states = [random_two_qubit(r) for _ in range(30)]
    states += [_product(seed, 1.0) for seed in (509, 751, 768, 911, 1876)]
    states += [_product(seed, 1 - 1e-9) for seed in (52, 66, 75, 102, 152, 188, 220, 253, 383, 409, 577,
                                                      595, 608, 628, 640, 746, 786, 849, 866, 882, 888, 964, 975)]
    for rho in states:
        for level in (0, 1, 2):
            rep = critical_radius_bounds(rho, RadiusParams(hidden_level=level))
            assert rep.r_in <= rep.r_out


class _StalledRun(lhs._Highs):
    """HiGHS allowed no simplex iteration on one run of each model, the
    ``stalled_run``-th (1: its first, dual run; 2: its first warm, primal
    run after ``add``); records the model status each stalled run ends in."""

    stalled_run, stalled = 1, []

    def run(self):
        self.runs = getattr(self, "runs", 0) + 1
        self.setOptionValue("simplex_iteration_limit", 0 if self.runs == self.stalled_run else 2**31 - 1)
        status = super().run()
        if self.runs == self.stalled_run:
            self.stalled.append(self.getModelStatus())
        return status


def test_non_optimal_solve_gets_one_cold_resolve(monkeypatch):
    """A run that ends non-optimal is solved again from a cleared basis,
    and the bracket comes out as if the first run had succeeded."""
    expected = critical_radius_bounds(werner(0.9))
    monkeypatch.setattr(lhs, "_Highs", _StalledRun)
    monkeypatch.setattr(_StalledRun, "stalled", [])
    assert critical_radius_bounds(werner(0.9)) == expected
    assert _StalledRun.stalled and lhs.HighsModelStatus.kOptimal not in _StalledRun.stalled


def test_stalled_warm_run_gets_one_cold_resolve(monkeypatch):
    """A warm primal run that ends non-optimal is solved again from a
    cleared basis: the Werner(0.9) and singlet brackets keep their flags,
    the singlet's stays inside its TWO_LP_BRACKETS limits and Werner's
    around its exact threshold 1/(2 0.9). The cold re-solve may end at
    another optimal vertex, so the ends are not compared to the bit."""
    states = {"werner": werner(0.9), "singlet": singlet()}
    expected = {key: critical_radius_bounds(rho) for key, rho in states.items()}
    monkeypatch.setattr(lhs, "_Highs", _StalledRun)
    monkeypatch.setattr(_StalledRun, "stalled_run", 2)
    monkeypatch.setattr(_StalledRun, "stalled", [])
    reports = {key: critical_radius_bounds(rho) for key, rho in states.items()}
    assert len(_StalledRun.stalled) == 2
    assert lhs.HighsModelStatus.kOptimal not in _StalledRun.stalled
    for key, rep in reports.items():
        assert (rep.steerable_detected, rep.unsteerable_certified, rep.t_cap) == (
            expected[key].steerable_detected, expected[key].unsteerable_certified, expected[key].t_cap)
    old_in, old_out, _ = TWO_LP_BRACKETS["singlet"]
    assert old_in - 1e-12 <= reports["singlet"].r_in <= reports["singlet"].r_out <= old_out + 1e-12
    assert reports["werner"].r_in <= 1 / 1.8 <= reports["werner"].r_out


class _StrategySpy(lhs._Highs):
    """HiGHS recording, per model, the simplex strategy of each run."""

    models = []

    def run(self):
        if not hasattr(self, "strategies"):
            self.strategies = []
            self.models.append(self.strategies)
        self.strategies.append(self.getOptionValue("simplex_strategy")[1])
        return super().run()


def test_first_run_dual_then_primal(monkeypatch):
    """Each model's first run is HiGHS's dual simplex (strategy 1) from
    the logical basis; every later run, warm after ``add``, is the primal
    simplex (strategy 4): on one bracket and one decision."""
    monkeypatch.setattr(lhs, "_Highs", _StrategySpy)
    monkeypatch.setattr(_StrategySpy, "models", [])
    critical_radius_bounds(werner(0.9))
    lhs_lp_feasible(make_assemblage(werner(0.9), ICO_DIRS), HIDDEN1)
    assert len(_StrategySpy.models) == 2
    for strategies in _StrategySpy.models:
        assert len(strategies) > 1
        assert strategies[0] == 1 and set(strategies[1:]) == {4}


def test_bracket_that_failed_on_dual_warm_runs():
    """A random state whose default bracket ended in LpFailure (status
    Unknown, also after the cold re-solve) while warm runs used the dual
    simplex: with primal warm runs its model certifies r_in."""
    rep = critical_radius_bounds(random_two_qubit(np.random.default_rng(200)))
    assert rep.unsteerable_certified and rep.r_in <= rep.r_out


def test_linprog_reports_size_and_iterations():
    """Every HiGHS run goes through ``lhs.linprog(A_eq=model)``: the model
    has a (rows, cols) shape and the result its simplex iteration count."""
    a0 = make_assemblage(radial_mix_state(werner(0.45), 0.0), ICO_DIRS)
    b0 = a0.ps.ravel()
    lp = _Lp(lhs._rows(b0), lhs._rows(b0 - make_assemblage(werner(0.45), ICO_DIRS).ps.ravel()), 1.0)
    lp.add(_columns(*_hull_columns(ICO, 1.0)))
    res = lhs.linprog(A_eq=lp)
    assert lp.shape == (4 * 7, 1 + 64 * 12)
    assert res.nit > 0 and res.x.shape == (1 + 64 * 12,) and res.y.shape == (4 * 7,)


def _hull_columns(hidden, scale, m=6):
    """(bits, blochs) of every (strategy, vertex) column, strategy i =
    sum_x bits[x] 2^x major and vertex minor, with the vertices scaled by
    ``scale`` (1 for the inner restrict hull, 1/eta for the outer relax
    hull): the hidden-polytope LP that the ball LP replaced."""
    strategies = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    return (np.repeat(strategies, hidden.n_vertices, axis=0),
            np.tile(hidden.vertices * scale, (len(strategies), 1)))


def _hidden_polytope_t_star(hidden, a0, b1, t_cap, scale):
    """The max-t LP over one hull's columns and the t = 0 model's."""
    anchor = _anchor(a0)
    bits, blochs = _hull_columns(hidden, scale)
    b0 = a0.ps.ravel()
    lp = _Lp(lhs._rows(b0), lhs._rows(b0 - b1), t_cap)
    lp.add(_columns(np.vstack([bits, anchor.strategy_bits]), np.vstack([blochs, anchor.blochs])))
    return lp.solve()[0]


def test_ball_locator_between_hidden_polytope_locators():
    """The ball lies between the restrict hull and the relax hull, so at
    m = 6 the ball LP's t* lies between their dense t*; the same t*, to
    within 1e-5, comes out from the restrict hull's columns and the t = 0
    model, and from the t = 0 model alone."""
    below_cap = 0
    for rho in (singlet(), werner(0.9), random_two_qubit(np.random.default_rng(4))):
        a0 = make_assemblage(radial_mix_state(rho, 0.0), ICO_DIRS)
        b0, b1 = a0.ps.ravel(), make_assemblage(rho, ICO_DIRS).ps.ravel()
        t_cap = _psd_cap(rho, 2.0)
        inner = _hidden_polytope_t_star(HIDDEN1, a0, b1, t_cap, 1.0)
        outer = _hidden_polytope_t_star(HIDDEN1, a0, b1, t_cap, 1 / HIDDEN1.eta)
        anchor = _anchor(a0)
        balls = [_solve(hidden, pool, b0, b0 - b1, t_cap)[0]
                 for hidden, pool in ((ICO, _locator_pool(ICO, anchor)), (HIDDEN1, _anchor_pool(anchor)))]
        assert inner - 1e-7 <= balls[0] <= outer + 1e-7
        assert abs(balls[0] - balls[1]) <= 1e-5
        below_cap += outer < t_cap
    assert below_cap >= 2  # the cap does not decide the comparison


def test_decisions_match_hull_feasibility_oracle():
    """lhs_lp_feasible against feasibility LPs that share none of its LP
    code: scipy's linprog over every (strategy, vertex) column at m = 6,
    built by the loop oracle. The ball lies between the restrict hull (the
    level-1 vertices) and the relax hull (the vertices / eta), so what the
    restrict hull models gets a model, and what the relax hull cannot
    model gets a detecting functional. Random pure and mixed states at a
    random t count only when the hull decides the same 2 % further along
    the ray, away from the threshold."""
    hulls = {scale: _columns_loop(*_hull_columns(HIDDEN1, scale), 6) for scale in (1.0, 1 / HIDDEN1.eta)}

    def hull_models(scale, rho, t):
        a = make_assemblage(radial_mix_state(rho, t), ICO_DIRS)
        res = linprog(np.zeros(hulls[scale].shape[1]), A_eq=hulls[scale], b_eq=a.ps.ravel(), method="highs")
        assert res.status in (0, 2)  # feasible or infeasible
        return res.status == 0

    r = np.random.default_rng(31)
    decided = {True: 0, False: 0}
    for k in range(24):
        psi = r.standard_normal(4) + 1j * r.standard_normal(4)
        rho = DensityMatrix(np.outer(psi, psi.conj()) / (psi.conj() @ psi), (2, 2)) if k % 3 else random_two_qubit(r)
        t = r.uniform(0.3, 0.95)
        feasible, cert = lhs_lp_feasible(make_assemblage(radial_mix_state(rho, t), ICO_DIRS), HIDDEN1)
        if hull_models(1.0, rho, t) and hull_models(1.0, rho, 1.02 * t):
            assert feasible and isinstance(cert, LhsCertificate)
            decided[True] += 1
        elif not hull_models(1 / HIDDEN1.eta, rho, t) and not hull_models(1 / HIDDEN1.eta, rho, 0.98 * t):
            assert not feasible and isinstance(cert, GeneralFunctional)
            decided[False] += 1
    assert min(decided.values()) >= 6, decided


def test_decisions_near_threshold():
    """The undecided band of lhs_lp_feasible around the LP's threshold t*
    is narrower than 1e-5 in t: mixed 1e-5 below t* it gives a model,
    1e-5 above t* a detecting functional (pricing stops at 1e-6)."""
    for rho in (singlet(), werner(0.9)):
        t_star = _locator_model(rho, HIDDEN1)[0]
        assert t_star < 0.99
        for t, expected in ((t_star - 1e-5, LhsCertificate), (t_star + 1e-5, GeneralFunctional)):
            feasible, cert = lhs_lp_feasible(make_assemblage(radial_mix_state(rho, t), ICO_DIRS), HIDDEN1)
            assert feasible is (expected is LhsCertificate) and isinstance(cert, expected)


def test_certificate_checked_by_reconstruction(monkeypatch):
    """In the style of acceptance 09: on random states every accepted
    certificate reproduces its assemblage to within TOL.lp_residual with
    every hidden state in the ball, and a solver answer with one weight
    perturbed is reported as not certified, by decisions and by brackets
    (r_in = 0 whether or not the LP reaches t_cap, r_out unchanged)."""
    r = np.random.default_rng(9)
    accepted = []
    for _ in range(10):
        a = make_assemblage(radial_mix_state(random_two_qubit(r), 0.6), ICO_DIRS)
        feasible, cert = lhs_lp_feasible(a, HIDDEN1)
        if feasible:
            assert np.abs(cert.reconstruct() - a.ps).max() <= TOL.lp_residual
            assert all(np.linalg.norm(v) <= 1.0 for v in cert.blochs)
            accepted.append(a)
    assert len(accepted) >= 5
    brackets = [critical_radius_bounds(rho) for rho in (singlet(), _product_state())]
    solve = lhs._solve

    def perturbed(*args):
        t, model, functional = solve(*args)
        w = model.weights.copy()
        w[np.argmax(w)] += 1e-6
        return t, LhsCertificate(model.strategy_bits, model.blochs, w), functional

    monkeypatch.setattr(lhs, "_solve", perturbed)
    for a in accepted:
        assert lhs_lp_feasible(a, HIDDEN1) == (False, None)
    for rho, rep in zip((singlet(), _product_state()), brackets):
        assert rep.unsteerable_certified
        bad = critical_radius_bounds(rho)
        assert bad.r_in == 0.0 and not bad.unsteerable_certified
        assert (bad.r_out, bad.steerable_detected) == (rep.r_out, rep.steerable_detected)


def test_hidden_state_outside_ball_rejected():
    """Ball soundness: a model is rejected once one hidden state has norm
    1 + 1e-15, with no tolerance, although its reconstruction barely
    moves; negative weights are rejected the same way."""
    a = make_assemblage(werner(0.5), ICO_DIRS)
    feasible, cert = lhs_lp_feasible(a, HIDDEN1)
    assert feasible and cert.residual(a.ps) <= TOL.lp_residual
    blochs = cert.blochs.copy()
    j = np.argmax(cert.weights)
    blochs[j] *= (1 + 1e-15) / np.linalg.norm(blochs[j])
    assert np.linalg.norm(blochs[j]) > 1.0
    pushed = LhsCertificate(cert.strategy_bits, blochs, cert.weights)
    assert np.abs(pushed.reconstruct() - a.ps).max() <= TOL.lp_residual
    assert pushed.residual(a.ps) == np.inf
    weights = cert.weights.copy()
    weights[j] = -1e-300
    assert LhsCertificate(cert.strategy_bits, cert.blochs, weights).residual(a.ps) == np.inf


def _locator_pool(hidden, anchor):
    """A pool of every (strategy, vertex) column of ``hidden`` at m = 6, with
    the vertices pulled into the ball, and the t = 0 model's columns."""
    bits, blochs = _hull_columns(hidden, 1.0)
    return np.vstack([bits, anchor.strategy_bits]), np.vstack([lhs._into_ball(blochs), anchor.blochs])


def _locator_model(rho, hidden=ICO):
    """(t*, the LP's model at t*, the t = 0 model) at m = 6, as
    critical_radius_bounds finds them."""
    a0 = make_assemblage(radial_mix_state(rho, 0.0), ICO_DIRS)
    t_star, model, _ = _locate(hidden, a0, make_assemblage(rho, ICO_DIRS), _psd_cap(rho, T_CAP_MAX))
    return t_star, model, _anchor(a0)


@st.composite
def _states(draw):
    """Random two-qubit states, a third of them products with a pure Bob
    marginal (|b| = 1)."""
    seed = draw(st.integers(0, 2**32 - 1))
    r = np.random.default_rng(seed)
    if draw(st.integers(0, 2)) == 0:
        b = r.standard_normal(3)
        bob = (ID2 + bloch_to_obs(b / np.linalg.norm(b))) / 2
        alice = random_two_qubit(r).mat.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        return DensityMatrix(np.kron(alice, bob), (2, 2))
    return random_two_qubit(r)


@settings(max_examples=25, deadline=None)
@given(_states())
def test_anchor_exact_and_locator_model_checked(rho):
    """The two-column model reproduces the t = 0 assemblage to 1e-15, and
    the LP's own model at t* passes the TOL.lp_residual check against the
    assemblage at t*, on random states and pure-b products alike."""
    t_star, model, anchor = _locator_model(rho)
    a0 = make_assemblage(radial_mix_state(rho, 0.0), ICO_DIRS)
    assert anchor.residual(a0.ps) <= 1e-15
    assert model.residual(make_assemblage(radial_mix_state(rho, t_star), ICO_DIRS).ps) <= TOL.lp_residual


def _bisection_bracket(rho, params):
    """The bisection the locator replaced (oracle): detection and
    certification probed at mid-points of [0, t_cap]."""
    meas, hidden = sphere_polytope(params.meas_level), sphere_polytope(params.hidden_level)
    directions = antipodal_directions(meas)
    t_cap = _psd_cap(rho, T_CAP_MAX)

    def detected(t):
        return detect_steerable(radial_mix_state(rho, t), directions, hidden)[0]

    def certified(t):
        return certify_unsteerable_shrunk(radial_mix_state(rho, t), meas, hidden)

    r_out = bisect(detected, 0.0, t_cap, params.bisection_tol)[1] if detected(t_cap) else t_cap
    if certified(t_cap):
        t_in = t_cap
    elif not certified(0.0):
        t_in = 0.0
    else:
        t_in = bisect(lambda t: not certified(t), 0.0, t_cap, params.bisection_tol)[0]
    return meas.eta * t_in, r_out


def test_locator_bracket_inside_bisection_bracket():
    params = RadiusParams(meas_level=0, hidden_level=0, bisection_tol=1e-2)
    r = np.random.default_rng(12)
    for rho in [random_two_qubit(r) for _ in range(10)] + [singlet()]:
        rep = critical_radius_bounds(rho, params)
        r_in, r_out = _bisection_bracket(rho, params)
        assert rep.r_in >= r_in - 1e-9
        assert rep.r_out <= r_out + 1e-9


def test_pure_bob_marginal_certified():
    """Bob's marginal is a pure state off every polytope vertex. Only
    columns whose hidden state is b itself can model the product state,
    and b is a ball column, so r_in is certified up to t_cap (no
    hidden-polytope LP found any t for it). The same holds on random
    product states at hidden level 0, with b pure or at |b| = 1 - 1e-9,
    where without every strategy at b in the pool the LP's growing duals
    stalled pricing until HiGHS ended Infeasible, Unknown or Not Set
    (these seeds)."""
    bob = (np.eye(2) + bloch_to_obs(np.array([0.48, 0.6, 0.64]))) / 2
    rho = DensityMatrix(np.kron(np.diag([1.0, 0.0]), bob).astype(complex), (2, 2))
    rep = critical_radius_bounds(rho, RadiusParams(hidden_level=1, bisection_tol=1e-2))
    assert rep.unsteerable_certified
    assert rep.r_in == ICO.eta * rep.t_cap
    for seed, purity in ((509, 1.0), (751, 1.0), (768, 1.0), (911, 1.0), (1876, 1.0), (52, 1 - 1e-9)):
        r = np.random.default_rng(seed)
        b = r.standard_normal(3)
        alice = random_two_qubit(r).mat.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        rho = DensityMatrix(np.kron(alice, (ID2 + bloch_to_obs(purity * b / np.linalg.norm(b))) / 2), (2, 2))
        rep = critical_radius_bounds(rho, RadiusParams(hidden_level=0))
        assert rep.unsteerable_certified and rep.r_in == ICO.eta * rep.t_cap


def test_no_located_t_gives_vacuous_bracket(monkeypatch):
    """An LP whose t* is 0 leaves r_in = 0 with unsteerable_certified
    False (it was once reported as certified)."""
    solve = lhs._solve
    monkeypatch.setattr(lhs, "_solve", lambda *args: (0.0, *solve(*args)[1:]))
    rep = critical_radius_bounds(singlet(), RadiusParams(hidden_level=0, bisection_tol=1e-2))
    assert rep.r_in == 0.0 and not rep.unsteerable_certified


def test_r_in_is_meas_eta_times_the_lp_t(monkeypatch):
    """r_in is meas_eta t* to the bit where the LP stops below t_cap (the
    singlet, Werner(0.9)), and meas_eta t_cap where it reaches t_cap."""
    t_stars = []
    solve = lhs._solve

    def spy(*args):
        result = solve(*args)
        t_stars.append(result[0])
        return result

    monkeypatch.setattr(lhs, "_solve", spy)
    for rho in (singlet(), werner(0.9)):
        rep = critical_radius_bounds(rho)
        assert t_stars[-1] < rep.t_cap and rep.r_in == rep.meas_eta * t_stars[-1]
    rep = critical_radius_bounds(_product_state())
    assert t_stars[-1] == rep.t_cap and rep.r_in == rep.meas_eta * rep.t_cap


def _product_state():
    return DensityMatrix(np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex), (2, 2))


def test_one_lp_run_per_bracket(monkeypatch):
    """The locator's primal gives r_in and its dual r_out: one _solve per
    bracket, whether the bracket detects steering or reaches t_cap."""
    calls = []
    solve = lhs._solve

    def spy(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(lhs, "_solve", spy)
    for rho, detects in ((singlet(), True), (_product_state(), False)):
        calls.clear()
        rep = critical_radius_bounds(rho, RadiusParams(hidden_level=0, bisection_tol=1e-2))
        assert rep.steerable_detected is detects and rep.unsteerable_certified
        assert len(calls) == 1


def test_locator_dual_is_the_r_out_functional():
    """The LP's final dual comes back divided by max(1, its max-abs entry),
    bounded by the pricing tolerance, with value (t - t*)/scale along the
    radial family, and it detects just above t*; on the singlet at default
    parameters r_out lies within 2e-5 of t* = 0.539345."""
    hidden = sphere_polytope(RadiusParams().hidden_level)
    for rho in (singlet(), werner(0.9)):
        a0 = make_assemblage(radial_mix_state(rho, 0.0), ICO_DIRS)
        a1 = make_assemblage(rho, ICO_DIRS)
        t_star, _, functional = _locate(hidden, a0, a1, _psd_cap(rho, T_CAP_MAX))
        assert t_star < 1.0
        assert np.abs(functional.coef).max() <= 1.0
        assert functional.bound <= lhs._PRICING_TOL
        v0, v1 = functional.value(a0), functional.value(a1)
        assert v1 > v0 and abs(v0 + t_star * (v1 - v0)) <= 1e-12
        rep = critical_radius_bounds(rho)
        assert rep.steerable_detected and t_star <= rep.r_out <= t_star + 2e-5
    assert abs(critical_radius_bounds(singlet()).r_out - 0.539345) <= 2e-5


def test_functional_that_misses_t_d_gives_vacuous_r_out(monkeypatch):
    """r_out uses the locator's dual only where it beats its bound at
    t_d = t* + tol/2 on the mixed state's own assemblage; a dual that does
    not leaves r_out = t_cap and steerable_detected False, and r_in, from
    the primal, as it was."""
    params = RadiusParams(hidden_level=0, bisection_tol=1e-2)
    r_in = critical_radius_bounds(singlet(), params).r_in
    solve = lhs._solve

    def blunt(*args):
        t, model, functional = solve(*args)
        return t, model, GeneralFunctional(functional.coef, functional.bound + 1.0)

    monkeypatch.setattr(lhs, "_solve", blunt)
    rep = critical_radius_bounds(singlet(), params)
    assert rep.r_out == rep.t_cap and not rep.steerable_detected
    assert rep.r_in == r_in and rep.unsteerable_certified
    assert rep.to_dict()["steerable_detected"] is False


def test_detect_steerable_werner():
    assert detect_steerable(werner(0.99), ICO_DIRS, HIDDEN1)[0]
    steer, func = detect_steerable(werner(0.3), ICO_DIRS, HIDDEN1)
    assert not steer and func is None


def test_detection_monotone_in_noise():
    """If detection fires at p it fires at every larger p (sampled)."""
    ps = [0.5, 0.7, 0.9, 1.0]
    flags = [detect_steerable(werner(p), ICO_DIRS, HIDDEN1)[0] for p in ps]
    for lo, hi in zip(flags, flags[1:]):
        assert hi >= lo


def test_detection_tightens_with_hidden_refinement():
    """A finer hidden polytope can only move the detected set down."""
    h2 = sphere_polytope(2)
    for p in (0.6, 0.8):
        coarse = detect_steerable(werner(p), ICO_DIRS, sphere_polytope(0))[0]
        fine = detect_steerable(werner(p), ICO_DIRS, h2)[0]
        assert fine >= coarse


def test_certify_unsteerable_shrunk_separable():
    assert certify_unsteerable_shrunk(_product_state(), ICO, HIDDEN1)


def test_certify_fails_on_singlet():
    assert not certify_unsteerable_shrunk(singlet(), ICO, HIDDEN1)


def test_radial_mix_algebra():
    """On the Werner family the mix acts as p -> t p, also for t > 1."""
    for p, t in ((0.8, 0.5), (0.6, 1.2)):
        assert np.abs(radial_mix_state(werner(p), t).mat - werner(t * p).mat).max() <= 1e-12


def test_radial_mix_preserves_bob_marginal():
    rho = random_two_qubit()
    rb = partial_trace(rho, [1]).mat
    for t in (0.0, 0.3, 1.0):
        mixed = radial_mix_state(rho, t)
        assert np.abs(partial_trace(mixed, [1]).mat - rb).max() <= 1e-12
    assert np.abs(radial_mix_state(rho, 0.0).mat - np.kron(np.eye(2) / 2, rb)).max() <= 1e-12


def test_radial_mix_indefinite_flag():
    """An indefinite mix (the singlet at t = 2) and t < 0 are rejected."""
    with pytest.raises(ValueError, match="minimum eigenvalue"):
        radial_mix_state(singlet(), 2.0)
    with pytest.raises(ValueError, match="t must be"):
        radial_mix_state(singlet(), -0.1)


def test_exact_lhs_bound_vs_sampling():
    """The enumerated ball bound dominates random LHS models."""
    offsets, blochs = rng.standard_normal((4, 2)), rng.standard_normal((4, 2, 3))
    func = GeneralFunctional(np.concatenate([offsets[:, :, None], blochs], axis=2))
    bound = func.exact_lhs_bound()
    best = -np.inf
    for _ in range(2000):
        lam = rng.integers(0, 2, 4)
        u = rng.standard_normal(3)
        u *= rng.uniform() / np.linalg.norm(u)
        val = offsets[np.arange(4), lam].sum() + blochs[np.arange(4), lam].sum(0) @ u
        best = max(best, val)
    assert best <= bound + 1e-12
    # and is attained by the best strategy with the aligned hidden state
    xs = np.arange(4)
    attained = max(
        offsets[xs, [(i >> x) & 1 for x in xs]].sum()
        + np.linalg.norm(blochs[xs, [(i >> x) & 1 for x in xs]].sum(0))
        for i in range(16)
    )
    assert np.isclose(attained, bound)
    # the kernel against a brute-force maximum over outcome assignments
    r = np.random.default_rng(6)
    for m in range(1, 7):
        offsets, blochs = r.standard_normal((m, 2)), r.standard_normal((m, 2, 3))
        value, bits = max_over_strategies(np.concatenate([offsets[:, :, None], blochs], axis=2))
        xs = np.arange(m)

        def score(lam):
            return offsets[xs, lam].sum() + np.linalg.norm(blochs[xs, lam].sum(0))

        assert np.isclose(value, max(score(list(lam)) for lam in itertools.product((0, 1), repeat=m)))
        assert score(bits) == value


def test_critical_radius_singlet_bracket():
    rep = critical_radius_bounds(singlet(), RadiusParams(bisection_tol=5e-3))
    assert rep.steerable_detected and rep.unsteerable_certified
    assert rep.r_in <= 0.5 <= rep.r_out
    # certified at the ball LP's t* = 0.539345, which it finds to
    # within 1e-5
    assert rep.r_in >= ICO.eta * (0.539345 - 1e-5)
    assert rep.r_out - rep.r_in < 0.2
    d = rep.to_dict()
    assert d["meas_polytope_level"] == 0 and d["hidden_polytope_level"] == 2


def test_hidden_level_has_no_effect_at_m_up_to_10():
    """At meas level 0 (m = 6) pricing is exact and the pool starts alike
    at every hidden level, so hidden levels 0, 1 and 2 give the same
    bracket to the bit, apart from the level the report echoes: on b1 and
    sc1 (AB), the singlet and a random state."""
    from cyclesteer.states import build_family, builtin_state, reduce_pair

    states = [reduce_pair(build_family(builtin_state(sid).normalized(), 1.0), "AB") for sid in ("b1", "sc1")]
    for rho in states + [singlet(), random_two_qubit(np.random.default_rng(8))]:
        reports = [critical_radius_bounds(rho, RadiusParams(meas_level=0, hidden_level=level)).to_dict()
                   for level in (0, 1, 2)]
        assert [d.pop("hidden_polytope_level") for d in reports] == [0, 1, 2]
        assert reports[0] == reports[1] == reports[2]


def test_critical_radius_unsteerable_state_vacuous_upper():
    rep = critical_radius_bounds(_product_state(), RadiusParams(hidden_level=1, bisection_tol=1e-2))
    assert not rep.steerable_detected
    assert rep.r_out == rep.t_cap
    assert rep.unsteerable_certified
    assert rep.r_in >= ICO.eta * 1.0 - 1e-9  # certified at least up to t = t_cap >= 1


def test_one_way_report_symmetric_state_refuted_or_undetermined():
    rep = one_way_report(werner(1.0), werner(1.0), RadiusParams(hidden_level=1, bisection_tol=1e-2))
    # a symmetric steerable state can never be certified cyclic
    assert rep.verdict in ("refuted", "undetermined-at-this-resolution")
    assert rep.delta == rep.r2 - rep.r1
    assert set(rep.to_dict()) >= {"rho_AB", "rho_BA", "R1_out_AB", "R2_in_BA", "verdict"}


# Brackets (r_in, r_out) of the hidden-polytope LPs (restrict/relax modes on
# the level-k vertices) that the Bloch-ball LP replaced. Each is an outer
# limit: a later LP may tighten a bracket but never widen it.
HIDDEN_POLYTOPE_BRACKETS = {
    "b1-AB": (0.8056774087854022, 1.0138713577762246),
    "b1-BA": (0.8192296330965988, 1.0630786390975118),
    "b2-AB": (0.8090258340305853, 1.0180850448086858),
    "b2-BA": (0.8222700996189224, 1.061911841854453),
    "b3-AB": (0.807055064091817, 1.015605011023581),
    "b3-BA": (0.8085122340779958, 1.0477487975731492),
    "sc1-AB": (0.7242191359898206, 0.9373267649661484),
    "sc1-BA": (0.7199574524143818, 0.9317951427841129),
    "singlet": (0.42858470194873904, 0.5415328270555857),
    "coarse0-AB": (1.0697051011430332, 1.3711631745100021),
    "coarse0-BA": (1.0170591930263406, 1.3652236675843596),
    "coarse1-AB": (0.8589518239677032, 1.1689647240564227),
    "coarse1-BA": (1.0204304139615483, 1.3186963656917214),
    "coarse2-AB": (0.9752429245340212, 1.2272540563717484),
    "coarse2-BA": (0.9807868227010214, 1.2342305453494191),
    "coarse3-AB": (0.7620946868434177, 1.0353055503219366),
    "coarse3-BA": (0.7605267834235306, 1.0420814836397767),
    "coarse4-AB": (1.3642915034169578, 1.9386579245328903),
    "coarse4-BA": (1.5893089445835322, 2.0),
    "coarse5-AB": (0.6869013298136442, 1.0735112698748708),
    "coarse5-BA": (0.8153005555667406, 1.0907238610088825),
}


def _pinned_inputs():
    """(key, state, params): the builtin search states at default
    parameters, the singlet at calibrate's (the defaults), and the first
    six states of the coarse-brackets pool (pool seed 7) at the
    prefilter's parameters, each in both directions."""
    from cyclesteer.search import _PREFILTER_PARAMS, coeffs_to_state
    from cyclesteer.states import build_family, builtin_state, reduce_pair, swap_state

    def pair(psi):
        ab = reduce_pair(build_family(psi, 1.0), "AB")
        return {"AB": ab, "BA": swap_state(ab)}

    for sid in ("b1", "b2", "b3", "sc1"):
        for d, rho in pair(builtin_state(sid).normalized()).items():
            yield f"{sid}-{d}", rho, RadiusParams()
    yield "singlet", singlet(), RadiusParams()
    # the first rows of the pool's (27, 7) draw
    for j, c in enumerate(np.random.default_rng(7).standard_normal((6, 7))):
        for d, rho in pair(coeffs_to_state(c)).items():
            yield f"coarse{j}-{d}", rho, _PREFILTER_PARAMS


def test_brackets_inside_hidden_polytope_brackets():
    for key, rho, params in _pinned_inputs():
        rep = critical_radius_bounds(rho, params)
        old_in, old_out = HIDDEN_POLYTOPE_BRACKETS[key]
        assert rep.r_in >= old_in - 1e-12, key
        assert rep.r_out <= old_out + 1e-12, key


# Brackets (r_in, r_out, t_cap) of the Bloch-ball flow that ran two LPs per
# bracket: the locator for r_in, then a phase-1 LP at t* + tol/2 for r_out's
# functional. Outer limits again, and t_cap, which no LP touches, must not move.
TWO_LP_BRACKETS = {
    "b1-AB": (0.8056774087854022, 1.0138713577762246, 1.0138713577762246),
    "b1-BA": (0.8447801949566821, 1.0630786390975118, 1.0630786390975118),
    "b2-AB": (0.8090258340305853, 1.0180850448086858, 1.0180850448086858),
    "b2-BA": (0.8438529943092278, 1.061911841854453, 1.061911841854453),
    "b3-AB": (0.807055064091817, 1.015605011023581, 1.015605011023581),
    "b3-BA": (0.8325982678298234, 1.0477487975731492, 1.0477487975731492),
    "sc1-AB": (0.7332020018736284, 0.9226789792416709, 1.0000162357464433),
    "sc1-BA": (0.7315234755249342, 0.9205691972000225, 1.0000211726874113),
    "singlet": (0.4285889235958329, 0.5393655555911626, 1.0),
    "coarse0-AB": (1.0896009488661484, 1.3711631745100021, 1.3711631745100021),
    "coarse0-BA": (1.0848810931244788, 1.3652236675843596, 1.3652236675843596),
    "coarse1-AB": (0.9289230459227465, 1.1689647240564227, 1.1689647240564227),
    "coarse1-BA": (1.0479079645918248, 1.3186963656917214, 1.3186963656917214),
    "coarse2-AB": (0.9752429245340212, 1.2272540563717484, 1.2272540563717484),
    "coarse2-BA": (0.9807868227010214, 1.2342305453494191, 1.2342305453494191),
    "coarse3-AB": (0.8227101857518151, 1.0353055503219366, 1.0353055503219366),
    "coarse3-BA": (0.8280947114667875, 1.0420814836397767, 1.0420814836397767),
    "coarse4-AB": (1.5405631899739345, 1.9386579245328903, 1.9386579245328903),
    "coarse4-BA": (1.5893089445835322, 2.0, 2.0),
    "coarse5-AB": (0.8530705316616791, 1.0735112698748708, 1.0735112698748708),
    "coarse5-BA": (0.8667485941860512, 1.0907238610088825, 1.0907238610088825),
}


def test_brackets_inside_two_lp_brackets():
    for key, rho, params in _pinned_inputs():
        rep = critical_radius_bounds(rho, params)
        old_in, old_out, old_cap = TWO_LP_BRACKETS[key]
        assert rep.r_in >= old_in - 1e-12, key
        assert rep.r_out <= old_out + 1e-12, key
        assert rep.t_cap == old_cap, key
