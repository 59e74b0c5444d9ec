import itertools

import numpy as np
import pytest

from cyclesteer import lhs
from cyclesteer.lhs import (
    GeneralFunctional,
    LhsCertificate,
    RadiusParams,
    T_CAP_MAX,
    _dense_columns,
    _psd_cap,
    _solve_cg,
    _solve_dense,
    bisect,
    certify_unsteerable_shrunk,
    critical_radius_bounds,
    detect_steerable,
    lhs_lp_feasible,
    one_way_report,
    radial_mix,
    radial_mix_state,
)
from cyclesteer.linalg import ID2, PAULIS, DensityMatrix, bloch_to_obs
from cyclesteer.polytope import antipodal_directions, sphere_polytope
from cyclesteer.states import singlet, werner
from cyclesteer.steering import make_assemblage, max_over_strategies, strategy_blocks
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
    s = np.concatenate(list(strategy_blocks(3)))
    assert s.shape == (8, 3)
    assert len({tuple(row) for row in s}) == 8
    assert set(s.ravel()) == {0, 1}
    assert [len(block) for block in strategy_blocks(17)] == [1 << 16, 1 << 16]
    with pytest.raises(ValueError):
        next(strategy_blocks(25))


def _reconstruct_loop(cert):
    """The complex double loop that reconstruct() replaced (oracle): the
    modeled assemblage as 2x2 matrices, shape (m, 2, 2, 2)."""
    m = cert.strategy_bits.shape[1]
    sig = np.zeros((m, 2, 2, 2), dtype=complex)
    for bits, k, w in zip(cert.strategy_bits, cert.vertex_index, cert.weights):
        h = (ID2 + np.tensordot(cert.hidden_blochs[k], PAULIS, axes=1)) / 2
        for x in range(m):
            sig[x, bits[x]] += w * h
    return sig


def test_maximally_mixed_has_trivial_lhs_model():
    rho = DensityMatrix(np.eye(4) / 4, (2, 2))
    a = make_assemblage(rho, ICO_DIRS)
    feasible, cert = lhs_lp_feasible(a, ICO, mode="restrict")
    assert feasible
    assert isinstance(cert, LhsCertificate)
    assert np.abs(cert.reconstruct() - a.ps).max() <= 1e-8


def test_reconstruct_matches_complex_loop():
    """reconstruct() in the (m, 2, 4) layout is the complex loop's
    [tr sigma, tr(sigma.sigma_i)], on certificates from the LP and on a
    random one with repeated (strategy, vertex) pairs."""
    r = np.random.default_rng(17)
    certs = []
    for rho in (werner(0.4), radial_mix_state(random_two_qubit(r), 0.5)):
        feasible, cert = lhs_lp_feasible(make_assemblage(rho, ICO_DIRS), HIDDEN1, mode="restrict")
        assert feasible
        certs.append(cert)
    n = 50
    certs.append(LhsCertificate(
        strategy_bits=r.integers(0, 2, (n, 6)).astype(np.int8), vertex_index=r.integers(0, 3, n),
        weights=r.uniform(size=n), hidden_blochs=r.standard_normal((3, 3)),
    ))
    for cert in certs:
        sig = _reconstruct_loop(cert)
        ps = cert.reconstruct()
        assert np.abs(ps[:, :, 0] - np.einsum("xaii->xa", sig).real).max() <= 1e-14
        assert np.abs(ps[:, :, 1:] - np.einsum("xaij,pji->xap", sig, PAULIS).real).max() <= 1e-14


def test_werner_below_threshold_feasible():
    a = make_assemblage(werner(0.5), ICO_DIRS)
    feasible, cert = lhs_lp_feasible(a, HIDDEN1, mode="restrict")
    assert feasible
    assert (cert.weights >= 0).all()
    assert np.isclose(cert.weights.sum(), 1.0, atol=1e-8)
    assert np.abs(cert.reconstruct() - a.ps).max() <= 1e-8


def test_werner_above_threshold_infeasible_with_farkas():
    a = make_assemblage(werner(0.8), ICO_DIRS)
    feasible, cert = lhs_lp_feasible(a, HIDDEN1, mode="relax")
    assert not feasible
    assert isinstance(cert, GeneralFunctional)
    # Farkas closure: the assemblage value beats the exact ball bound
    assert cert.value(a) > cert.exact_lhs_bound() + 1e-7


def test_restrict_feasibility_implies_relax_feasibility():
    """The relax hull contains the restrict hull, so a restrict LHS model
    is a fortiori a relax one."""
    rho = radial_mix_state(random_two_qubit(), 0.4)
    a = make_assemblage(rho, ICO_DIRS)
    if lhs_lp_feasible(a, HIDDEN1, mode="restrict")[0]:
        assert lhs_lp_feasible(a, HIDDEN1, mode="relax")[0]


def test_bad_mode_rejected():
    a = make_assemblage(werner(0.5), ICO_DIRS)
    with pytest.raises(ValueError):
        lhs_lp_feasible(a, HIDDEN1, mode="approx")


def _columns_loop(bits, ks, verts, m):
    """The per-column double loop the sparse builder replaced (oracle)."""
    cols = np.zeros((8 * m, len(ks)))
    for j in range(len(ks)):
        v = verts[ks[j]]
        for x in range(m):
            r = (2 * x + int(bits[j, x])) * 4
            cols[r, j] = 1.0
            cols[r + 1 : r + 4, j] = v
    return cols


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("mode", ["restrict", "relax"])
def test_cached_columns_match_loop(level, mode):
    """The cached sparse matrix has the loop's entries in the loop's column
    order: strategy i = sum_x bits[x] 2^x major, hidden vertex minor."""
    m = 6
    hidden = sphere_polytope(level)
    verts = hidden.vertices if mode == "restrict" else hidden.vertices / hidden.eta
    cols, col_bits, col_ks = _dense_columns(hidden, mode, m)
    idx = np.arange(1 << m)
    bits = np.repeat((idx[:, None] >> np.arange(m)) & 1, len(verts), axis=0)
    ks = np.tile(np.arange(len(verts)), 1 << m)
    assert np.array_equal(col_bits, bits) and np.array_equal(col_ks, ks)
    assert np.array_equal(cols.toarray(), _columns_loop(bits, ks, verts, m))
    assert _dense_columns(hidden, mode, m)[0] is cols  # built once
    assert not cols.data.flags.writeable


def test_column_generation_matches_dense():
    """Column generation reaches the dense phase-1 value, hence the same
    decision, on m = 6 assemblages that both paths can solve (two Werner
    states and one random state, on which a missing dense column shows);
    at m = 21, above the dense cap, it still gives the expected
    decisions."""
    for rho in (werner(0.45), werner(0.99), random_two_qubit(np.random.default_rng(3))):
        a = make_assemblage(rho, ICO_DIRS)
        b = a.ps.ravel()
        for mode in ("restrict", "relax"):
            dense = _solve_dense(HIDDEN1, mode, b, a.m)[0]
            cg = _solve_cg(HIDDEN1, mode, b, a.m)[0]
            assert (dense <= TOL.lp_residual) == (cg <= TOL.lp_residual)
            assert abs(dense - cg) <= TOL.lp_residual
    dirs = antipodal_directions(sphere_polytope(1))
    for p, expected in ((0.45, True), (0.99, False)):
        a = make_assemblage(werner(p), dirs)
        feasible, _ = lhs_lp_feasible(a, HIDDEN1, mode="relax")
        assert feasible is expected


def test_column_generation_locator_matches_dense():
    """The locator LP (max t with slacks priced at _LOCATOR_PENALTY) gives
    the same t* by column generation as over the full matrix."""
    below_cap = 0
    for rho in (singlet(), werner(0.9), random_two_qubit(np.random.default_rng(4))):
        a0 = make_assemblage(radial_mix_state(rho, 0.0), ICO_DIRS)
        b0, b1 = a0.ps.ravel(), make_assemblage(rho, ICO_DIRS).ps.ravel()
        t_cap = _psd_cap(rho, 2.0)
        for mode in ("restrict", "relax"):
            dense = _solve_dense(HIDDEN1, mode, b0, 6, b0 - b1, t_cap)
            cg = _solve_cg(HIDDEN1, mode, b0, 6, b0 - b1, t_cap)
            assert dense[0] <= TOL.lp_residual and cg[0] <= TOL.lp_residual
            assert abs(dense[1] - cg[1]) <= 1e-7
            below_cap += dense[1] < t_cap
    assert below_cap >= 3  # the cap does not decide the comparison


def test_restrict_certificate_checked_by_reconstruction(monkeypatch):
    """In the style of acceptance 09: on random states every accepted
    restrict-mode certificate reproduces its assemblage to within
    TOL.lp_residual, and a solver answer with one weight perturbed is
    reported as not certified."""
    r = np.random.default_rng(9)
    accepted = []
    for _ in range(10):
        a = make_assemblage(radial_mix_state(random_two_qubit(r), 0.6), ICO_DIRS)
        feasible, cert = lhs_lp_feasible(a, HIDDEN1, mode="restrict")
        if feasible:
            assert np.abs(cert.reconstruct() - a.ps).max() <= TOL.lp_residual
            accepted.append(a)
    assert len(accepted) >= 5
    solve = lhs._solve_dense

    def perturbed(*args):
        slack, t, bits, ks, w, y = solve(*args)
        w = w.copy()
        w[np.argmax(w)] += 1e-6
        return slack, t, bits, ks, w, y

    monkeypatch.setattr(lhs, "_solve_dense", perturbed)
    for a in accepted:
        assert lhs_lp_feasible(a, HIDDEN1, mode="restrict") == (False, None)


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


def test_pure_bob_marginal_gives_vacuous_r_in():
    """Bob's marginal is a pure state off every polytope vertex, so no LHS
    model over the restricted hull exists at any t and the restrict
    locator finds none: r_in = 0 must come with unsteerable_certified
    False (it was once reported as certified)."""
    bob = (np.eye(2) + bloch_to_obs(np.array([0.48, 0.6, 0.64]))) / 2
    rho = DensityMatrix(np.kron(np.diag([1.0, 0.0]), bob).astype(complex), (2, 2))
    rep = critical_radius_bounds(rho, RadiusParams(hidden_level=1, bisection_tol=1e-2))
    assert rep.r_in == 0.0
    assert not rep.unsteerable_certified


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
    rho = DensityMatrix(np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex), (2, 2))
    assert certify_unsteerable_shrunk(rho, ICO, HIDDEN1)


def test_certify_fails_on_singlet():
    assert not certify_unsteerable_shrunk(singlet(), ICO, HIDDEN1)


def test_radial_mix_algebra():
    """On the Werner family the mix acts as p -> t p."""
    for p, t in ((0.8, 0.5), (0.6, 1.2)):
        mat, indef = radial_mix(werner(p), t)
        assert np.abs(mat - werner(min(t * p, 1.0)).mat).max() <= 1e-12 or t * p > 1
        if t * p <= 1:
            assert np.abs(mat - werner(t * p).mat).max() <= 1e-12
            assert not indef


def test_radial_mix_preserves_bob_marginal():
    rho = random_two_qubit()
    from cyclesteer.linalg import partial_trace

    rb = partial_trace(rho, [1]).mat
    for t in (0.0, 0.3, 1.0):
        mixed = radial_mix_state(rho, t)
        assert np.abs(partial_trace(mixed, [1]).mat - rb).max() <= 1e-12
    assert np.abs(radial_mix(rho, 0.0)[0] - np.kron(np.eye(2) / 2, rb)).max() <= 1e-12


def test_radial_mix_indefinite_flag():
    mat, indef = radial_mix(singlet(), 2.0)
    assert indef
    with pytest.raises(ValueError):
        radial_mix_state(singlet(), 2.0)
    with pytest.raises(ValueError):
        radial_mix(singlet(), -0.1)


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
    # certified within 1e-4 of the restrict locator's t* = 0.5393447: at
    # t* - 1e-6 the solver's weights dip below zero and the model fails its
    # reconstruction check, so the next step back must be tried before t* - tol
    assert rep.r_in >= ICO.eta * (0.5393447 - 1e-4)
    assert rep.r_out - rep.r_in < 0.2
    d = rep.to_dict()
    assert d["meas_polytope_level"] == 0 and d["hidden_polytope_level"] == 2


def test_critical_radius_unsteerable_state_vacuous_upper():
    rho = DensityMatrix(np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex), (2, 2))
    rep = critical_radius_bounds(rho, RadiusParams(hidden_level=1, bisection_tol=1e-2))
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
