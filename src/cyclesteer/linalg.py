"""Dense complex matrix kernel for small multi-qubit operators.

Validated density matrices, partial trace/transpose, the Hermiticity
check, trace norm, Bloch-vector conversions and the Pauli
form (a, b, T) of a two-qubit operator, for up to three qubits
(dimension MAX_DIM = 8). All functions are pure; matrices are plain
``numpy`` complex arrays and tensor products are ``np.kron``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tolerances import TOL

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = np.stack([PAULI_X, PAULI_Y, PAULI_Z])
ID2 = np.eye(2, dtype=complex)

# Largest state any command accepts (three qubits). State files are
# outside input, so this bounds the work one file can ask for.
MAX_DIM = 8


class NonHermitianError(ValueError):
    """Input expected to be Hermitian is not, beyond the acceptance tolerance."""


def hermiticity_residual(m: np.ndarray) -> float:
    return float(np.abs(m - m.conj().T).max())


def require_hermitian(m: np.ndarray) -> np.ndarray:
    """Symmetrize ``m`` if it is Hermitian within TOL.herm_accept, raise otherwise.

    Symmetrization guards against drift accumulating over long searches.
    """
    res = hermiticity_residual(m)
    if res > TOL.herm_accept:
        raise NonHermitianError(f"hermiticity residual {res:.3e} exceeds {TOL.herm_accept:.1e}")
    return (m + m.conj().T) / 2


@dataclass(frozen=True)
class DensityMatrix:
    """A density matrix with its subsystem dimension bookkeeping.

    ``mat`` is the dense complex matrix, ``dims`` the ordered subsystem
    dimensions (e.g. ``(2, 2, 2)`` for three qubits). Validated on
    construction: unit trace, Hermitian, positive semidefinite.
    """

    mat: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        n = mat.shape[0]
        if mat.shape != (n, n):
            raise ValueError(f"matrix must be square, got {mat.shape}")
        if n > MAX_DIM:
            raise ValueError(f"dimension {n} exceeds supported maximum {MAX_DIM}")
        if int(np.prod(self.dims)) != n:
            raise ValueError(f"prod(dims)={np.prod(self.dims)} != matrix dim {n}")
        # "not x <= tol", so that a NaN or an infinite entry fails too
        if not (abs(np.trace(mat).real - 1.0) <= TOL.trace_one and abs(np.trace(mat).imag) <= TOL.trace_one):
            raise ValueError(f"trace {np.trace(mat):.12f} not 1 within {TOL.trace_one:.1e}")
        if not hermiticity_residual(mat) <= TOL.hermiticity:
            raise ValueError("density matrix not Hermitian within tolerance")
        wmin = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2).min())
        if wmin < -TOL.psd:
            raise ValueError(f"minimum eigenvalue {wmin:.3e} below -{TOL.psd:.1e}")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def require_two_qubit(rho: DensityMatrix) -> None:
    """ValueError unless ``rho`` is a two-qubit state."""
    if rho.dims != (2, 2):
        raise ValueError(f"expected a two-qubit state, got dims {rho.dims}")


def partial_trace(rho: DensityMatrix, keep: tuple[int, ...] | list[int]) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep`` (original order kept)."""
    keep = sorted(set(int(k) for k in keep))
    nsub = len(rho.dims)
    if not keep or any(k < 0 or k >= nsub for k in keep):
        raise IndexError(f"keep={keep} invalid for {nsub} subsystems")
    t = rho.mat.reshape(rho.dims * 2)
    traced = [i for i in range(nsub) if i not in keep]
    for off, i in enumerate(traced):
        ax = i - off
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    kept_dims = tuple(rho.dims[k] for k in keep)
    d = int(np.prod(kept_dims))
    return DensityMatrix(t.reshape(d, d), kept_dims)


def partial_transpose(rho: DensityMatrix, subsystem: int) -> np.ndarray:
    """Transpose a single subsystem; the result may be indefinite."""
    nsub = len(rho.dims)
    if subsystem < 0 or subsystem >= nsub:
        raise IndexError(f"subsystem {subsystem} out of range for {nsub} subsystems")
    t = rho.mat.reshape(rho.dims * 2)
    axes = list(range(2 * nsub))
    axes[subsystem], axes[subsystem + nsub] = axes[subsystem + nsub], axes[subsystem]
    d = rho.dim
    return t.transpose(axes).reshape(d, d)


def trace_norm(g: np.ndarray) -> float:
    """Sum of |eigenvalues| of a Hermitian matrix, its sum of singular
    values; NonHermitianError beyond TOL.herm_accept (see require_hermitian)."""
    g = np.asarray(g, dtype=complex)
    if g.shape[0] != g.shape[1]:
        raise ValueError("trace_norm requires a square matrix")
    return float(np.abs(np.linalg.eigvalsh(require_hermitian(g))).sum())


def bloch_to_obs(r) -> np.ndarray:
    """r . sigma for a real 3-vector r (traceless Hermitian 2x2)."""
    r = np.asarray(r, dtype=float)
    return np.tensordot(r, PAULIS, axes=1)


def obs_to_bloch(m: np.ndarray) -> np.ndarray:
    """Inverse of :func:`bloch_to_obs` on the traceless part of ``m``."""
    return np.array([np.trace(m @ p).real / 2 for p in PAULIS])


def pauli_form(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pauli form of a two-qubit operator, rho = (I + a.sigma (x) I +
    I (x) b.sigma + sum_ij T_ij sigma_i (x) sigma_j) / 4 for unit trace:
    a_i = tr(rho sigma_i (x) I), b_j = tr(rho I (x) sigma_j) and
    T_ij = tr(rho sigma_i (x) sigma_j), real parts. Returns (a, b, T)."""
    rho = np.asarray(mat).reshape(2, 2, 2, 2)  # indices (iA, jB, iA', jB')
    a = np.einsum("pli,ijlj->p", PAULIS, rho).real
    b = np.einsum("pmj,ijim->p", PAULIS, rho).real
    corr = np.einsum("pli,qmj,ijlm->pq", PAULIS, PAULIS, rho).real
    return a, b, corr
