"""State constructors: singlet, Werner family, the translationally
invariant three-qubit family, its two-qubit marginals, builtin
coefficient tables, and the state-file schema.

Conventions: party order is A (x) B (x) C, leftmost factor is A.  The
shift operator S cycles the parties one step, acting on amplitudes as
(S psi)_{ijk} = c_{kij}; iterating S three times is the identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, partial_trace
from .tolerances import TOL


@dataclass(frozen=True)
class PureState3Q:
    """Eight complex amplitudes c_{ijk}, (i,j,k) lexicographic."""

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=complex).reshape(8)
        object.__setattr__(self, "c", c)

    def norm(self) -> float:
        return float(np.linalg.norm(self.c))

    def normalized(self) -> "PureState3Q":
        n = self.norm()
        if not TOL.zero_norm <= n < np.inf:  # NaN fails too
            raise ValueError(f"cannot normalize the zero state or a non-finite one (norm {n})")
        return PureState3Q(self.c / n)


def singlet() -> DensityMatrix:
    """(|01> - |10>)/sqrt(2) as a density matrix."""
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    return DensityMatrix(np.outer(psi, psi.conj()), (2, 2))


def werner(p: float) -> DensityMatrix:
    """p |psi-><psi-| + (1-p) I/4."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    return DensityMatrix(p * singlet().mat + (1 - p) * np.eye(4) / 4, (2, 2))


# The 8x8 party-shift permutation S, (S psi)_{ijk} = c_{kij}, and the 4x4 two-qubit
# flip V = sum |ij><ji|, built once and read-only.
SHIFT_OPERATOR = np.eye(8, dtype=complex)[np.arange(8).reshape(2, 2, 2).transpose(1, 2, 0).ravel()]
SWAP_OPERATOR = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
SHIFT_OPERATOR.flags.writeable = SWAP_OPERATOR.flags.writeable = False


def build_family(psi1: PureState3Q, p: float) -> DensityMatrix:
    """Translationally invariant mixture of the three shifted copies
    S^k psi1 (SHIFT_OPERATOR) with white noise weight (1 - p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    if abs(psi1.norm() - 1.0) > TOL.state_norm:
        raise ValueError(f"psi1 norm {psi1.norm():.12f} not 1 within {TOL.state_norm:.1e}")
    acc, psi = np.zeros((8, 8), dtype=complex), psi1.c
    for _ in range(3):
        acc += np.outer(psi, psi.conj())
        psi = SHIFT_OPERATOR @ psi
    return DensityMatrix(p * acc / 3 + (1 - p) * np.eye(8) / 8, (2, 2, 2))


_PARTY_INDEX = {"A": 0, "B": 1, "C": 2}


def reduce_pair(rho3: DensityMatrix, pair: str) -> DensityMatrix:
    """Two-qubit marginal for an ordered party pair, e.g. "AB" or "BA"."""
    if rho3.dims != (2, 2, 2):
        raise ValueError(f"expected dims (2,2,2), got {rho3.dims}")
    pair = pair.upper()
    if len(pair) != 2 or pair[0] == pair[1] or any(c not in _PARTY_INDEX for c in pair):
        raise ValueError(f"invalid party pair {pair!r}")
    i, j = _PARTY_INDEX[pair[0]], _PARTY_INDEX[pair[1]]
    reduced = partial_trace(rho3, [i, j])
    return swap_state(reduced) if i > j else reduced


def swap_state(rho_ab: DensityMatrix) -> DensityMatrix:
    """rho_BA = V rho_AB V^dagger."""
    return DensityMatrix(SWAP_OPERATOR @ rho_ab.mat @ SWAP_OPERATOR.conj().T, (2, 2))


# Coefficient tables stored verbatim (unnormalized, as printed) and
# normalized on demand; order is (c000, c001, ..., c111).
_BUILTIN_COEFFS: dict[str, list[complex]] = {
    "sc1": [0.069455, 1, 1, -0.762707, 0.604546, -0.475110, -0.762707, 0],
    "b1": [1, -0.321193, -0.477021, 0.045221, -0.718592, 0.213715, -0.0482, 0],
    "b2": [1, -0.259910, -0.591007, 0.028007, -0.798924, 0.206125, -0.079214, -0.000311],
    "b3": [
        1,
        -0.252592 - 0.065698j,
        0.002913 - 0.000635j,
        0.025469 + 0.025479j,
        -0.120348 - 0.110323j,
        -0.103340 - 0.161335j,
        -0.044067 - 0.089806j,
        0.055929 - 0.044192j,
    ],
    "w": [0, 1, 1, 0, 1, 0, 0, 0],
    "ghz": [1, 0, 0, 0, 0, 0, 0, 1],
}

BUILTIN_IDS = tuple(_BUILTIN_COEFFS)


def builtin_state(state_id: str) -> PureState3Q:
    """Builtin pure three-qubit state by id (sc1, b1, b2, b3, w, ghz)."""
    try:
        coeffs = _BUILTIN_COEFFS[state_id]
    except KeyError:
        raise KeyError(f"unknown builtin state {state_id!r}; choose from {BUILTIN_IDS}") from None
    return PureState3Q(np.array(coeffs, dtype=complex))


# --- state file (de)serialization -----------------------------------------

def state_to_json(obj: PureState3Q | DensityMatrix, p: float | None = None) -> dict:
    if isinstance(obj, PureState3Q):
        return {
            "type": "three_qubit_family",
            "c": [[z.real, z.imag] for z in obj.c],
            "p": 1.0 if p is None else float(p),
        }
    return {
        "type": "density_matrix",
        "dims": list(obj.dims),
        "re": obj.mat.real.tolist(),
        "im": obj.mat.imag.tolist(),
    }


def _numbers(value, what: str, shape: tuple, kind: str = "iuf") -> np.ndarray:
    """``value`` as an array of ``shape`` (-1 matches any length) of finite
    entries of numpy dtype ``kind``: no JSON boolean, which numpy reads as 0 or
    1 among numbers, and no NaN or infinity, which ``json`` reads from NaN,
    Infinity and -Infinity. Else ValueError, naming ``what`` and the first bad entry."""
    arr = np.array(value)  # ragged nesting raises ValueError
    if arr.ndim != len(shape) or any(s not in (-1, n) for s, n in zip(shape, arr.shape)):
        raise ValueError(f"expected {what}, got {value!r:.60}")
    for index, entry in np.ndenumerate(np.array(value, dtype=object)):
        if np.array(entry).dtype.kind not in kind or not np.isfinite(entry):
            at = "".join(f"[{i}]" for i in index)
            raise ValueError(f"expected {what}, got {entry!r:.60}{' at ' + at if at else ''}")
    return arr


def state_from_json(data) -> tuple[PureState3Q, float] | DensityMatrix:
    """Parse the state file schema; malformed input raises ValueError: an
    object with 8 [re, im] pairs ``c`` of finite numbers and a number ``p`` in
    [0, 1], or an integer list ``dims`` and finite matrices ``re``, ``im`` of
    one shape."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    kind = data.get("type")
    if kind == "three_qubit_family":
        c = _numbers(data["c"], "c as 8 [re, im] pairs of finite numbers", (8, 2))
        p = float(_numbers(data.get("p", 1.0), "p as a finite number", ()))
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p={p} outside [0, 1]")
        return PureState3Q(np.array([complex(re, im) for re, im in c.tolist()])), p
    if kind == "density_matrix":
        dims = _numbers(data["dims"], "dims as a list of integers", (-1,), kind="iu")
        re = _numbers(data["re"], "re as a matrix of finite numbers", (-1, -1))
        im = _numbers(data["im"], f"im as a {re.shape} matrix of finite numbers", re.shape)
        return DensityMatrix(re + 1j * im, tuple(dims))
    raise ValueError(f"unknown state file type {kind!r}")


def load_state(path) -> tuple[PureState3Q, float] | DensityMatrix:
    with open(path) as f:
        return state_from_json(json.load(f))
