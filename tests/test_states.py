import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclesteer.linalg import DensityMatrix, partial_trace
from cyclesteer.states import (
    BUILTIN_IDS,
    SHIFT_OPERATOR,
    SWAP_OPERATOR,
    PureState3Q,
    build_family,
    builtin_state,
    load_state,
    reduce_pair,
    singlet,
    state_from_json,
    state_to_json,
    swap_state,
    werner,
)

rng = np.random.default_rng(99)


def random_pure3q(r=rng):
    c = r.standard_normal(8) + 1j * r.standard_normal(8)
    return PureState3Q(c).normalized()


def test_singlet_is_maximally_entangled():
    rho = singlet()
    # expectation of a.sigma (x) b.sigma is -a.b
    from cyclesteer.linalg import bloch_to_obs

    for _ in range(10):
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        op = np.kron(bloch_to_obs(a), bloch_to_obs(b))
        assert np.isclose(np.trace(op @ rho.mat).real, -np.dot(a, b))
    assert np.allclose(partial_trace(rho, [0]).mat, np.eye(2) / 2)


def test_werner_limits():
    assert np.allclose(werner(0.0).mat, np.eye(4) / 4)
    assert np.allclose(werner(1.0).mat, singlet().mat)
    with pytest.raises(ValueError):
        werner(1.5)


def test_shift_operator_is_permutation_with_period_three():
    s = SHIFT_OPERATOR
    assert np.allclose(s @ s.conj().T, np.eye(8))
    assert np.allclose(np.linalg.matrix_power(s, 3), np.eye(8))


def test_swap_operator():
    v = SWAP_OPERATOR
    assert np.allclose(v @ v, np.eye(4))
    rho = werner(0.7)
    assert np.allclose(swap_state(rho).mat, rho.mat)  # Werner is symmetric


def test_permutation_operators_are_read_only_constants():
    """S and V are the permutations (S psi)_{ijk} = c_{kij} and V |ij> = |ji>,
    bit for bit as summed entry by entry, and cannot be written to."""
    s, v = np.zeros((8, 8), dtype=complex), np.zeros((4, 4), dtype=complex)
    for i, j, k in np.ndindex(2, 2, 2):
        s[4 * i + 2 * j + k, 4 * k + 2 * i + j] = 1
        v[2 * i + j, 2 * j + i] = 1
    for built, constant in ((s, SHIFT_OPERATOR), (v, SWAP_OPERATOR)):
        assert constant.dtype == built.dtype and constant.tobytes() == built.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            constant[0, 0] = 0


def test_shifted_moves_parties():
    # |001> has the third qubit excited; the shift c_{ijk} -> c_{kij}
    # maps it to |010>
    psi = PureState3Q([0, 1, 0, 0, 0, 0, 0, 0])
    assert np.allclose(SHIFT_OPERATOR @ psi.c, [0, 0, 1, 0, 0, 0, 0, 0])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0, 1))
def test_build_family_invariants(seed, p):
    psi = random_pure3q(np.random.default_rng(seed))
    rho = build_family(psi, p)
    s = SHIFT_OPERATOR
    # valid three-qubit density matrix, invariant under the cyclic shift
    assert rho.dims == (2, 2, 2)
    assert np.abs(s @ rho.mat @ s.conj().T - rho.mat).max() <= 1e-12
    assert np.linalg.eigvalsh(rho.mat).min() >= -1e-12


def test_build_family_marginal_symmetry():
    """Shift invariance forces tr_C rho = swap(tr_A rho) etc."""
    rho = build_family(random_pure3q(), 0.8)
    ab = reduce_pair(rho, "AB")
    bc = reduce_pair(rho, "BC")
    ca = reduce_pair(rho, "CA")
    assert np.abs(ab.mat - bc.mat).max() <= 1e-12
    assert np.abs(bc.mat - ca.mat).max() <= 1e-12


def test_build_family_requires_normalized_input():
    with pytest.raises(ValueError):
        build_family(PureState3Q(np.ones(8)), 0.5)


def test_reduce_pair_orderings():
    rho = build_family(random_pure3q(), 1.0)
    ab = reduce_pair(rho, "AB")
    ba = reduce_pair(rho, "BA")
    assert np.abs(swap_state(ab).mat - ba.mat).max() <= 1e-12
    with pytest.raises(ValueError):
        reduce_pair(rho, "AA")
    with pytest.raises(ValueError):
        reduce_pair(rho, "AD")


def test_builtin_states_exist_and_normalize():
    assert set(BUILTIN_IDS) == {"sc1", "b1", "b2", "b3", "w", "ghz"}
    for sid in BUILTIN_IDS:
        psi = builtin_state(sid).normalized()
        assert np.isclose(psi.norm(), 1.0)
    with pytest.raises(KeyError):
        builtin_state("nope")


def test_builtin_w_and_ghz():
    w = builtin_state("w").normalized()
    assert np.isclose(abs(w.c[1]), 1 / np.sqrt(3))
    ghz = builtin_state("ghz").normalized()
    assert np.isclose(abs(ghz.c[0]), 1 / np.sqrt(2))
    # both are shift invariant as pure states
    assert np.abs(SHIFT_OPERATOR @ w.c - w.c).max() < 1e-12
    assert np.abs(SHIFT_OPERATOR @ ghz.c - ghz.c).max() < 1e-12


def test_state_json_round_trip_family(tmp_path):
    psi = random_pure3q()
    data = state_to_json(psi, p=0.75)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(data))
    loaded, p = load_state(path)
    assert np.abs(loaded.c - psi.c).max() <= 1e-15
    assert p == 0.75


def test_state_json_round_trip_density(tmp_path):
    rho = werner(0.6)
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(state_to_json(rho)))
    loaded = load_state(path)
    assert isinstance(loaded, DensityMatrix)
    assert np.abs(loaded.mat - rho.mat).max() <= 1e-15


def test_state_json_rejects_bad_input():
    with pytest.raises(ValueError):
        state_from_json({"type": "mystery"})
    bad = state_to_json(werner(0.5))
    bad["re"][0][0] += 1.0  # breaks the unit trace
    with pytest.raises(ValueError):
        state_from_json(bad)
