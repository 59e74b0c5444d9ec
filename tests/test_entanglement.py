import numpy as np
import pytest

from cyclesteer.entanglement import entanglement_report, gte_criterion, is_ppt, negativity
from cyclesteer.linalg import DensityMatrix
from cyclesteer.states import build_family, builtin_state, singlet, werner

rng = np.random.default_rng(42)


def family(sid, p=1.0):
    return build_family(builtin_state(sid).normalized(), p)


def test_negativity_singlet():
    assert abs(negativity(singlet(), 0) - 0.5) <= 1e-12


def test_negativity_werner():
    # analytic: max(0, (3p-1)/4)
    for p in (0.0, 0.2, 1 / 3, 0.6, 1.0):
        expected = max(0.0, (3 * p - 1) / 4)
        assert abs(negativity(werner(p), 0) - expected) <= 1e-12


def test_negativity_product_zero():
    rho = DensityMatrix(np.kron(np.diag([0.7, 0.3]), np.diag([0.4, 0.6])).astype(complex), (2, 2))
    assert negativity(rho, 0) == 0.0
    assert is_ppt(rho, 0)


def test_ppt_boundary():
    assert is_ppt(werner(1 / 3), 0)
    assert not is_ppt(werner(0.4), 0)


def test_negativity_cut_symmetry_two_qubits():
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    rho = DensityMatrix(m / np.trace(m), (2, 2))
    assert abs(negativity(rho, 0) - negativity(rho, 1)) <= 1e-10
    with pytest.raises(IndexError):
        negativity(rho, 2)


def test_negativity_local_unitary_invariant():
    rho = werner(0.9)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u = np.linalg.qr(h)[0]
    rot = DensityMatrix(np.kron(u, np.eye(2)) @ rho.mat @ np.kron(u, np.eye(2)).conj().T, (2, 2))
    assert abs(negativity(rot, 0) - negativity(rho, 0)) <= 1e-10


def test_gte_ghz_detected():
    res = gte_criterion(family("ghz"))
    assert res.detected
    assert abs(res.lhs - 0.5) <= 1e-12
    assert abs(res.rhs) <= 1e-12


def test_gte_w_not_detected():
    res = gte_criterion(family("w"))
    assert not res.detected
    assert res.lhs <= 1e-12  # no |000><111| coherence in the W state


def test_gte_noisy_ghz_threshold():
    """GHZ + white noise: lhs = v/2, rhs = 3(1-v)/8, threshold v = 3/7."""
    for v, expected in ((0.5, True), (0.4, False)):
        rho = family("ghz", v)
        res = gte_criterion(rho)
        assert abs(res.lhs - v / 2) <= 1e-12
        assert abs(res.rhs - 3 * (1 - v) / 8) <= 1e-12
        assert res.detected is expected


def test_gte_family_regressions():
    # b3 is detected, b1 and b2 are not, at p = 1
    assert gte_criterion(family("b3")).detected
    assert not gte_criterion(family("b1")).detected
    assert not gte_criterion(family("b2")).detected


def test_gte_rejects_wrong_dims():
    with pytest.raises(ValueError):
        gte_criterion(werner(0.5))


def test_entanglement_report_structure():
    rep = entanglement_report(family("sc1"))
    assert set(rep["negativity"]) == {"A|BC", "B|AC", "C|AB"}
    # the family is shift invariant, so all three cuts agree
    vals = list(rep["negativity"].values())
    assert max(vals) - min(vals) <= 1e-10
    assert rep["gte"]["detected"] in (True, False)
    assert "sufficient" in rep["gte_note"]
