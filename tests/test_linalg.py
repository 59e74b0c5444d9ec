import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclesteer.linalg import (
    DensityMatrix,
    ID2,
    NonHermitianError,
    PAULI_Z,
    bloch_to_obs,
    obs_to_bloch,
    partial_trace,
    partial_transpose,
    trace_norm,
)
from cyclesteer.states import singlet, werner

rng = np.random.default_rng(1234)


def random_hermitian(n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def random_density(dims):
    n = int(np.prod(dims))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m), dims)


def test_partial_trace_singlet_marginal():
    red = partial_trace(singlet(), [0])
    assert np.allclose(red.mat, np.eye(2) / 2)


def test_partial_trace_product():
    ra = random_density((2,))
    rb = random_density((2,))
    prod = DensityMatrix(np.kron(ra.mat, rb.mat), (2, 2))
    assert np.allclose(partial_trace(prod, [0]).mat, ra.mat)
    assert np.allclose(partial_trace(prod, [1]).mat, rb.mat)


def test_partial_trace_composes():
    rho = random_density((2, 2, 2))
    one_shot = partial_trace(rho, [0])
    stepwise = partial_trace(partial_trace(rho, [0, 1]), [0])
    assert np.abs(one_shot.mat - stepwise.mat).max() <= 1e-12


def test_partial_trace_bad_index():
    with pytest.raises(IndexError):
        partial_trace(singlet(), [2])


def test_partial_transpose_involution_and_hermiticity():
    rho = random_density((2, 2))
    pt = partial_transpose(rho, 0)
    assert np.abs(pt - pt.conj().T).max() < 1e-12
    # applying the transpose on the same subsystem twice returns the input
    t = pt.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
    assert np.allclose(t, rho.mat)


def test_partial_transpose_singlet_min_eigenvalue():
    w = np.linalg.eigvalsh(partial_transpose(singlet(), 0))
    assert np.isclose(w.min(), -0.5)


def test_partial_transpose_werner_boundary():
    w = np.linalg.eigvalsh(partial_transpose(werner(1 / 3), 0))
    assert abs(w.min()) < 1e-12


def test_trace_norm_basics():
    assert np.isclose(trace_norm(np.eye(2)), 2)
    b = rng.standard_normal(3)
    b /= np.linalg.norm(b)
    assert np.isclose(trace_norm(bloch_to_obs(b) / 2), 1)


def test_trace_norm_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        trace_norm(np.array([[0, 1], [0, 0]], dtype=complex))


def test_trace_norm_dominates_sampled_observables():
    # ||G||_1 = max over -I <= A <= I of tr(A G); sampled A never beat it
    g = random_hermitian(4)
    tn = trace_norm(g)
    best = 0.0
    for _ in range(200):
        h = random_hermitian(4)
        w, v = np.linalg.eigh(h)
        a = (v * np.sign(w)) @ v.conj().T
        best = max(best, float(np.trace(a @ g).real))
    assert best <= tn + 1e-10
    # the optimizer itself attains it
    w, v = np.linalg.eigh(g)
    a_opt = (v * np.sign(w)) @ v.conj().T
    assert np.isclose(np.trace(a_opt @ g).real, tn)


def test_trace_norm_unitarily_invariant():
    g = random_hermitian(6)
    u = np.linalg.eigh(random_hermitian(6))[1]
    assert abs(trace_norm(u @ g @ u.conj().T) - trace_norm(g)) < 1e-10


def test_bloch_round_trip_special_cases():
    assert np.allclose(bloch_to_obs([0, 0, 1]), PAULI_Z)
    assert np.allclose(bloch_to_obs([0, 0, 0]), np.zeros((2, 2)))


@settings(max_examples=100)
@given(st.lists(st.floats(-10, 10), min_size=3, max_size=3))
def test_bloch_round_trip(r):
    obs = bloch_to_obs(r)
    assert np.abs(obs - obs.conj().T).max() < 1e-13
    assert abs(np.trace(obs)) < 1e-13
    assert np.abs(obs_to_bloch(obs) - np.array(r)).max() <= 1e-14


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4) / 2, (2, 2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4) / 4, (2, 3))  # dims mismatch
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]) , (2,))  # not PSD
    nan_entry = np.eye(4, dtype=complex) / 4
    nan_entry[0, 1] = np.nan
    for mat, dims in ((nan_entry, (2, 2)), (np.diag([np.nan, 1.0]), (2,)), (np.diag([np.inf, 1.0]), (2,))):
        with pytest.raises(ValueError, match="not 1 within|not Hermitian"):  # not LinAlgError, nor accepted
            DensityMatrix(mat, dims)
