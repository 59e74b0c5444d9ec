import itertools

import numpy as np
import pytest

from cyclesteer.linalg import ID2, PAULIS, DensityMatrix, bloch_to_obs, trace_norm
from cyclesteer.states import build_family, builtin_state, reduce_pair, singlet, swap_state, werner
from cyclesteer.steering import (
    Assemblage,
    icosahedron_settings,
    lhs_bound_L,
    make_assemblage,
    max_over_strategies,
    one_way_gap_scenario1,
    quantum_value_Q,
)

rng = np.random.default_rng(7)

L_ICO = 1 + np.sqrt(5)


def random_unit(r=rng):
    v = r.standard_normal(3)
    return v / np.linalg.norm(v)


def sc1_pair():
    rho3 = build_family(builtin_state("sc1").normalized(), 1.0)
    rho_ab = reduce_pair(rho3, "AB")
    return rho_ab, swap_state(rho_ab)


def test_icosahedron_settings_geometry():
    b = icosahedron_settings()
    assert isinstance(b, np.ndarray) and b.shape == (6, 3)
    assert np.allclose(np.linalg.norm(b, axis=1), 1.0)
    # every pair of distinct axes meets at the icosahedral angle
    # |cos| = 1/sqrt(5)
    gram = np.abs(b @ b.T)
    off = gram[~np.eye(6, dtype=bool)]
    assert np.allclose(off, 1 / np.sqrt(5), atol=1e-12)


def test_lhs_bound_single_setting():
    f = np.array([[0.0, 0.0, 1.0]])
    L, signs = lhs_bound_L(f)
    assert np.isclose(L, 1.0)
    assert signs.shape == (1,)


def test_lhs_bound_orthogonal_triple():
    f = np.eye(3)
    L, _ = lhs_bound_L(f)
    assert np.isclose(L, np.sqrt(3))


def test_lhs_bound_icosahedron():
    L, signs = lhs_bound_L(icosahedron_settings())
    assert abs(L - L_ICO) < 1e-12
    # the optimizing signs actually attain the bound
    assert np.isclose(np.linalg.norm(signs @ icosahedron_settings()), L)
    # L is the kernel on zero offsets and Bloch parts +-b_x, signs start
    # with +1, and both match a brute-force maximum over sign strings
    r = np.random.default_rng(5)
    for b in [icosahedron_settings()] + [r.standard_normal((m, 3)) for m in range(1, 7)]:
        L, signs = lhs_bound_L(b)
        coef = np.zeros((len(b), 2, 4))
        coef[:, 0, 1:], coef[:, 1, 1:] = b, -b
        assert L == max_over_strategies(coef)[0][0]
        assert signs[0] == 1
        assert np.linalg.norm(signs @ b) == pytest.approx(L, abs=1e-12)
        brute = max(np.linalg.norm(np.array(s) @ b) for s in itertools.product((1, -1), repeat=len(b)))
        assert L == pytest.approx(brute, abs=1e-12)


def test_lhs_bound_antipodal_doubling():
    """Duplicating each direction with its negation doubles L."""
    b = icosahedron_settings()
    f2 = np.vstack([b, -b])
    L2, _ = lhs_bound_L(f2)
    assert abs(L2 - 2 * L_ICO) < 1e-12


def test_lhs_bound_rotation_invariant():
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    b = icosahedron_settings()
    L_rot, _ = lhs_bound_L(b @ q.T)
    assert abs(L_rot - L_ICO) < 1e-10


def test_settings_are_any_m_by_3_array():
    """L, Q and the scenario-1 report take any (m, 3) settings array: the
    21 level-1 geodesic directions, where the singlet reaches Q = m."""
    from cyclesteer.polytope import antipodal_directions, sphere_polytope

    b = antipodal_directions(sphere_polytope(1))
    assert b.shape == (21, 3)
    L, signs = lhs_bound_L(b)
    assert signs.shape == (21,) and np.linalg.norm(signs @ b) == pytest.approx(L, abs=1e-12)
    rho_ab, _ = sc1_pair()
    rep = one_way_gap_scenario1(rho_ab, b)
    assert rep.L == L and rep.Q_ab == quantum_value_Q(rho_ab, b)[0]
    assert len(rep.to_dict()["a_vectors"]) == len(rep.to_dict()["b_vectors"]) == 21
    singlet_rep = one_way_gap_scenario1(singlet(), b)
    assert singlet_rep.Q_ab == pytest.approx(21, abs=1e-9) and singlet_rep.violates_ab


def test_lhs_bound_rejects_large_m():
    with pytest.raises(ValueError):
        lhs_bound_L(rng.standard_normal((25, 3)))


def _gathered_top(coef):
    """Brute force (oracle): every strategy's [sum c, V] gathered setting
    by setting, row i holding the bits (i >> x) & 1, summed in x order;
    all values by value descending, ties by row, with their bits."""
    m = len(coef)
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    acc = coef[0, bits[:, 0]]
    for x in range(1, m):
        acc = acc + coef[x, bits[:, x]]
    vals = acc[:, 0] + np.linalg.norm(acc[:, 1:], axis=1)
    order = np.argsort(-vals, kind="stable")
    return vals[order], bits[order]


def test_running_sum_kernel_matches_gather():
    """The running-sum kernel's k best are the brute-force gather's to the
    bit, values and bits, by value descending with ties in row order, for
    k = 1, 7, 40, 2^m and 2^m + 5, on random functionals (m = 1-14, and
    17 and 18, whose high settings are added per 2^16 block) and on the
    degenerate [0, +-b_x] functionals of the icosahedral and level-1
    geodesic directions, where many strategies tie."""
    from cyclesteer.polytope import antipodal_directions, sphere_polytope

    r = np.random.default_rng(11)
    coefs = [r.standard_normal((m, 2, 4)) for m in list(range(1, 15)) + [17, 18]]
    geodesic = antipodal_directions(sphere_polytope(1))
    for b in [icosahedron_settings()] + [geodesic[:m] for m in (8, 11, 14)]:
        coef = np.zeros((len(b), 2, 4))
        coef[:, 0, 1:], coef[:, 1, 1:] = b, -b
        coefs.append(coef)
    for coef in coefs:
        expected, expected_bits = _gathered_top(coef)
        for k in (1, 7, 40, 1 << len(coef), (1 << len(coef)) + 5):
            values, bits = max_over_strategies(coef, k)
            assert np.array_equal(values, expected[:k])
            assert np.array_equal(bits, expected_bits[:k])


def _matrices(ps):
    """sigma_{a|x} = (p I + s.sigma)/2 from the (m, 2, 4) layout."""
    return (ps[..., :1, None] * ID2 + np.tensordot(ps[..., 1:], PAULIS, axes=1)) / 2


def _make_assemblage_loop(rho_ab, directions):
    """The kron loop the closed form replaced (oracle): sigma_{a|x} =
    tr_A((P_{a|x} (x) I) rho_AB) as complex 2x2 matrices, shape (m, 2, 2, 2)."""
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    sig = np.empty((dirs.shape[0], 2, 2, 2), dtype=complex)
    for x, b in enumerate(dirs):
        for a in range(2):
            proj = (ID2 + (-1) ** a * bloch_to_obs(b)) / 2
            full = np.kron(proj, ID2) @ rho_ab.mat
            sig[x, a] = full.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
    return sig


def random_two_qubit(r):
    g = r.standard_normal((4, 4)) + 1j * r.standard_normal((4, 4))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m), (2, 2))


@pytest.mark.parametrize("level", [0, 1])  # m = 6 and m = 21 directions
def test_make_assemblage_matches_kron_loop(level):
    from cyclesteer.polytope import antipodal_directions, sphere_polytope

    dirs = antipodal_directions(sphere_polytope(level))
    r = np.random.default_rng(13)
    for rho in [random_two_qubit(r) for _ in range(5)] + [singlet(), werner(0.3)]:
        sig = _make_assemblage_loop(rho, dirs)
        p = np.einsum("xaii->xa", sig).real
        s = np.einsum("xaij,pji->xap", sig, PAULIS).real
        ps = make_assemblage(rho, dirs).ps
        assert ps.shape == (len(dirs), 2, 4)
        assert np.abs(ps[:, :, 0] - p).max() <= 1e-14
        assert np.abs(ps[:, :, 1:] - s).max() <= 1e-14
        assert np.abs(_matrices(ps) - sig).max() <= 1e-14


def test_make_assemblage_maximally_mixed():
    a = make_assemblage(DensityMatrix(np.eye(4) / 4, (2, 2)), np.eye(3))
    assert np.allclose(_matrices(a.ps), np.broadcast_to(np.eye(2) / 4, (3, 2, 2, 2)))
    assert np.allclose(a.ps[:, :, 0], 0.5)


def test_make_assemblage_singlet_steers_to_opposite_pole():
    a = make_assemblage(singlet(), [[0, 0, 1]])
    # outcome +1 along z leaves Bob in |1><1| with weight 1/2
    sig = _matrices(a.ps)
    assert np.allclose(sig[0, 0], np.diag([0, 0.5]))
    assert np.allclose(sig[0, 1], np.diag([0.5, 0]))


def test_make_assemblage_product_state():
    rb = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    rho = DensityMatrix(np.kron(np.diag([1.0, 0.0]), rb), (2, 2))
    dirs = [random_unit() for _ in range(4)]
    a = make_assemblage(rho, dirs)
    # product state: sigma_{a|x} = p(a|x) rho_B for every setting
    p = a.ps[:, :, 0]
    sig = _matrices(a.ps)
    for x in range(4):
        for out in range(2):
            assert np.abs(sig[x, out] - p[x, out] * rb).max() < 1e-12


def test_assemblage_validation():
    good = np.zeros((2, 2, 4))
    good[:, :, 0] = 0.5
    Assemblage(good)
    bad = good.copy()
    bad[1, 0, 0] = 0.25  # settings disagree on the marginal
    with pytest.raises(ValueError, match="differs across settings"):
        Assemblage(bad)
    bad = good * 0.9  # not normalized
    with pytest.raises(ValueError, match="not normalized"):
        Assemblage(bad)
    bad = good.copy()
    bad[:, 0, 3], bad[:, 1, 3] = 0.6, -0.6  # |s| > p: eigenvalue (p - |s|)/2 < 0
    with pytest.raises(ValueError, match="eigenvalue"):
        Assemblage(bad)
    with pytest.raises(ValueError, match="shape"):
        Assemblage(np.zeros((2, 2, 2, 2)))
    for value in (np.nan, np.inf):  # NaN passes every "x > tol" check
        bad = good.copy()
        bad[1, 0, 2] = value
        with pytest.raises(ValueError, match="non-finite"):
            Assemblage(bad)


def test_quantum_value_singlet_saturates_directions():
    q, obs = quantum_value_Q(singlet(), icosahedron_settings())
    assert abs(q - 6.0) < 1e-12
    # optimal observable for the singlet is -b_x . sigma
    for o, b in zip(obs, icosahedron_settings()):
        assert np.abs(o.bloch + b).max() < 1e-9
        assert abs(o.identity_weight) < 1e-9


def test_quantum_value_maximally_mixed_is_zero():
    q, obs = quantum_value_Q(DensityMatrix(np.eye(4) / 4, (2, 2)), icosahedron_settings())
    assert abs(q) < 1e-12
    for o in obs:
        assert np.abs(o.bloch).max() < 1e-9  # all eigendirections degenerate


def test_quantum_value_werner_scales_linearly():
    # G_x for the Werner state is -p b_x.sigma / 2, so Q = 6p
    for p in (0.3, 0.8):
        q, _ = quantum_value_Q(werner(p), icosahedron_settings())
        assert abs(q - 6 * p) < 1e-12


def test_quantum_value_sc1_regression():
    rho_ab, rho_ba = sc1_pair()
    ico = icosahedron_settings()
    q_ab, _ = quantum_value_Q(rho_ab, ico)
    q_ba, _ = quantum_value_Q(rho_ba, ico)
    assert abs(q_ab - 3.2687691792791314) < 1e-10
    assert abs(q_ba - 3.2360264407434713) < 1e-10


def test_quantum_value_beats_random_observables():
    """Q is the max of the correlator over Alice's observables; random
    dichotomic observables never exceed it and the reported optimizers
    attain it."""
    rho_ab, _ = sc1_pair()
    ico = icosahedron_settings()
    q, obs = quantum_value_Q(rho_ab, ico)
    attained = sum(
        np.trace(np.kron(o.identity_weight * ID2 + bloch_to_obs(o.bloch), bloch_to_obs(ico[x])) @ rho_ab.mat).real
        for x, o in enumerate(obs)
    )
    assert abs(attained - q) < 1e-10
    for _ in range(100):
        total = 0.0
        for x in range(len(ico)):
            a_op = bloch_to_obs(random_unit())
            total += np.trace(np.kron(a_op, bloch_to_obs(ico[x])) @ rho_ab.mat).real
        assert total <= q + 1e-10


def test_product_states_never_violate():
    """Unsteerable (product) states stay below L for random settings."""
    f = np.array([random_unit() for _ in range(5)])
    L, _ = lhs_bound_L(f)
    for _ in range(200):
        ra = (np.eye(2) + np.tensordot(rng.uniform() * random_unit(),
                                       np.array([bloch_to_obs(e) for e in np.eye(3)]),
                                       axes=1)) / 2
        rb = (np.eye(2) + np.tensordot(rng.uniform() * random_unit(),
                                       np.array([bloch_to_obs(e) for e in np.eye(3)]),
                                       axes=1)) / 2
        rho = DensityMatrix(np.kron(ra, rb), (2, 2))
        q, _ = quantum_value_Q(rho, f)
        assert q <= L + 1e-9


def test_scenario1_report_sc1():
    rho_ab, _ = sc1_pair()
    rep = one_way_gap_scenario1(rho_ab, icosahedron_settings())
    assert rep.one_way
    assert rep.Q_ab > rep.L > 0
    assert rep.Q_ba <= rep.L + 1e-9
    d = rep.to_dict()
    assert d["violated"] == {"A_to_B": True, "B_to_A": False}
    assert len(d["a_vectors"]) == 6


def test_scenario1_report_singlet_two_way():
    rep = one_way_gap_scenario1(singlet(), icosahedron_settings())
    assert rep.violates_ab and not rep.respects_ba
    assert not rep.one_way
