"""Scenario-1 machinery: assemblages, the dichotomic steering functional
with coefficients F_{a|x} = (-1)^a b_x.sigma, the quantum value Q via
per-setting trace norms, and optimal-observable extraction.

Assemblages and steering functionals share one real layout of shape
(m, 2, 4), the row layout of the LHS-model LP in :mod:`cyclesteer.lhs`:
ps[x, a] = [p, s] for sigma_{a|x} = (p I + s.sigma)/2, built in closed
form from the Pauli form (a, b, T) of rho_AB, and coef[x, a] = [c, v]
for F_{a|x} = c I + v.sigma, whose value sum tr(F sigma) is
(coef * ps).sum(). The assemblage checks are no looser than on the 2x2
matrices: every entry of (dp I + ds.sigma)/2 is at most max|(dp, ds)|,
and the eigenvalues of sigma_{a|x} are (p +- |s|)/2.

It also holds the one strategy enumeration, :func:`strategy_sums`, and
its kernel :func:`max_over_strategies`: the exact maximum of a steering
functional over all LHS models with hidden states in the Bloch ball. L
is a kernel call; :mod:`cyclesteer.lhs` bounds its Farkas functionals
and prices and seeds its columns from the same table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, ID2, bloch_to_obs, obs_to_bloch, pauli_form, require_hermitian
from .polytope import GOLDEN
from .states import swap_state
from .tolerances import TOL

MAX_ENUM_SETTINGS = 24


def icosahedron_settings() -> np.ndarray:
    """The (6, 3) unit Bloch vectors b_x of the six antipodal-pair
    directions of the regular icosahedron, the settings B_x = b_x.sigma
    of the steering inequality."""
    phi = GOLDEN
    n = np.sqrt(1 + phi**2)
    return np.array(
        [
            [0, 1, phi],
            [0, 1, -phi],
            [1, phi, 0],
            [1, -phi, 0],
            [phi, 0, 1],
            [phi, 0, -1],
        ]
    ) / n


@dataclass(frozen=True)
class Assemblage:
    """Subnormalized conditional states sigma_{a|x} = (p I + s.sigma)/2
    for m settings and 2 outcomes, held as ps[x, a] = [p, s_x, s_y, s_z]."""

    ps: np.ndarray  # shape (m, 2, 4) real

    def __post_init__(self):
        ps = np.asarray(self.ps, dtype=float)
        if ps.ndim != 3 or ps.shape[1:] != (2, 4):
            raise ValueError(f"expected shape (m, 2, 4), got {ps.shape}")
        object.__setattr__(self, "ps", ps)
        if not np.isfinite(ps).all():  # a NaN would pass every check below
            raise ValueError("assemblage has a non-finite entry")
        rho_b = ps.sum(axis=1)
        if np.abs(rho_b - rho_b[0]).max() > TOL.herm_accept:
            raise ValueError("sum_a sigma_{a|x} differs across settings")
        if abs(rho_b[0, 0] - 1.0) > TOL.herm_accept:
            raise ValueError("assemblage not normalized: sum_a tr(sigma_{a|x}) != 1")
        wmin = (ps[:, :, 0] - np.linalg.norm(ps[:, :, 1:], axis=2)) / 2
        if wmin.min() < -TOL.psd:
            x, a = np.unravel_index(wmin.argmin(), wmin.shape)
            raise ValueError(f"sigma[{x},{a}] has eigenvalue {wmin[x, a]:.2e} < -{TOL.psd:.0e}")

    @property
    def m(self) -> int:
        return self.ps.shape[0]


def make_assemblage(rho_ab: DensityMatrix, directions) -> Assemblage:
    """Assemblage produced by projective measurements of A along
    ``directions``: with rho_AB in Pauli form (a, b, T), outcome a of
    u gives p = (1 +- u.a)/2 and s = (b +- T^T u)/2."""
    if rho_ab.dims != (2, 2):
        raise ValueError(f"expected a two-qubit state, got dims {rho_ab.dims}")
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    a, b, corr = pauli_form(rho_ab.mat)
    signs = np.array([1.0, -1.0])[None, :, None]
    ps = np.empty((dirs.shape[0], 2, 4))
    ps[:, :, :1] = (1 + signs * (dirs @ a)[:, None, None]) / 2
    ps[:, :, 1:] = (b + signs * (dirs @ corr)[:, None, :]) / 2
    return Assemblage(ps)


def strategy_sums(coef: np.ndarray) -> np.ndarray:
    """The one strategy enumeration, for m <= 16: [sum_x c_{lambda(x)|x},
    sum_x v_{lambda(x)|x}] of every strategy lambda of a functional
    coef[x, a] = [c, v], row i holding the bits (i >> x) & 1. Built
    setting by setting by doubling, so each row sums in setting order."""
    table = coef[0]
    for x in range(1, coef.shape[0]):
        table = (table + coef[x, :, None]).reshape(-1, 4)
    return table


def max_over_strategies(coef: np.ndarray, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The k largest values, exact, over deterministic strategies lambda of
    sum_x c_{lambda(x)|x} + ||sum_x v_{lambda(x)|x}|| for a functional
    coef[x, a] = [c, v] (m, 2, 4), descending with ties in row order, and
    their outcome bits (row i holds (i >> x) & 1); the first is the most
    any LHS model with hidden states in the Bloch ball reaches. Each block
    of 2^16 strategies adds its settings x >= 16 to ``strategy_sums``'s
    table of the others and keeps its k best. m is capped because the
    value is a certified bound and must not be approximated."""
    m = coef.shape[0]
    if m > MAX_ENUM_SETTINGS:
        raise ValueError(f"m={m} exceeds enumeration cap {MAX_ENUM_SETTINGS}")
    low = min(m, 16)
    table = strategy_sums(coef[:low])
    kk, kept = min(k, len(table)), []
    for start in range(0, 1 << m, 1 << low):
        block = table
        for x in range(low, m):
            block = block + coef[x, (start >> x) & 1]
        vals = block[:, 0] + np.linalg.norm(block[:, 1:], axis=1)
        cut = np.partition(vals, -kk)[-kk]  # the block's kk-th largest; then ties in row order
        keep = np.flatnonzero(vals > cut)
        keep = np.concatenate([keep, np.flatnonzero(vals == cut)[:kk - len(keep)]])
        kept.append((vals[keep], start + keep))
    values, rows = map(np.concatenate, zip(*kept))
    order = np.lexsort((rows, -values))[:k]
    return values[order], (rows[order, None] >> np.arange(m)) & 1


def lhs_bound_L(b: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact classical bound L = max over sign strings of ||sum a_x b_x||
    for settings b (m, 3), with the optimizing signs, first sign +1. The
    special case of :func:`max_over_strategies` with coefficients
    [0, (-1)^a b_x]."""
    coef = np.zeros((len(b), 2, 4))
    coef[:, 0, 1:], coef[:, 1, 1:] = b, -b
    (L,), (bits,) = max_over_strategies(coef)
    signs = 1 - 2 * bits
    return float(L), signs * signs[0]


@dataclass(frozen=True)
class OptimalObservable:
    """A = identity_weight * I + bloch . sigma; degenerate eigendirections
    (|lambda| below tolerance) are dropped, which can leave a shortened
    Bloch vector or the zero vector."""

    bloch: np.ndarray
    identity_weight: float


def quantum_value_Q(rho_ab: DensityMatrix, b: np.ndarray) -> tuple[float, list[OptimalObservable]]:
    """Maximum quantum value Q = sum_x ||G_x||_1 with
    G_x = tr_B((I (x) B_x) rho_AB), B_x = b_x.sigma for settings b (m, 3),
    plus the optimizing observables."""
    if rho_ab.dims != (2, 2):
        raise ValueError(f"expected a two-qubit state, got dims {rho_ab.dims}")
    q = 0.0
    observables = []
    for bx in b:
        gx_full = np.kron(ID2, bloch_to_obs(bx)) @ rho_ab.mat
        gx = gx_full.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        lams, vecs = np.linalg.eigh(require_hermitian(gx))
        q += float(np.abs(lams).sum())
        ax = np.zeros((2, 2), dtype=complex)
        for lam, vec in zip(lams, vecs.T):
            if abs(lam) > TOL.degenerate_eig:
                ax += np.sign(lam) * np.outer(vec, vec.conj())
        observables.append(
            OptimalObservable(bloch=obs_to_bloch(ax), identity_weight=float(np.trace(ax).real / 2))
        )
    return q, observables


@dataclass(frozen=True)
class Scenario1Report:
    L: float
    Q_ab: float
    Q_ba: float
    violates_ab: bool
    respects_ba: bool
    lhs_signs: np.ndarray
    observables_ab: list[OptimalObservable]
    setting_blochs: np.ndarray

    @property
    def one_way(self) -> bool:
        return self.violates_ab and self.respects_ba

    def to_dict(self) -> dict:
        return {
            "L": self.L,
            "Q_AB": self.Q_ab,
            "Q_BA": self.Q_ba,
            "violated": {"A_to_B": self.violates_ab, "B_to_A": not self.respects_ba},
            "a_vectors": [obs.bloch.tolist() for obs in self.observables_ab],
            "a_identity_weights": [obs.identity_weight for obs in self.observables_ab],
            "b_vectors": self.setting_blochs.tolist(),
            "lhs_signs": self.lhs_signs.tolist(),
        }


def one_way_gap_scenario1(rho_ab: DensityMatrix, b: np.ndarray) -> Scenario1Report:
    """Check Q(rho_AB) > L together with Q(rho_BA) <= L for settings b (m, 3)."""
    L, signs = lhs_bound_L(b)
    q_ab, obs_ab = quantum_value_Q(rho_ab, b)
    q_ba, _ = quantum_value_Q(swap_state(rho_ab), b)
    return Scenario1Report(
        L=L,
        Q_ab=q_ab,
        Q_ba=q_ba,
        violates_ab=q_ab > L,
        respects_ba=q_ba <= L + TOL.scenario1_margin,
        lhs_signs=signs,
        observables_ab=obs_ab,
        setting_blochs=b,
    )
