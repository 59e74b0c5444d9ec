"""Entanglement diagnostics: PPT test, negativity, and the
Guhne-Seevinck matrix-element criterion for genuine tripartite
entanglement (GTE)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, partial_transpose, require_hermitian, trace_norm
from .tolerances import TOL


def negativity(rho: DensityMatrix, cut: int = 0) -> float:
    """(||rho^{T_cut}||_1 - 1) / 2, clamped at zero below noise level."""
    pt = partial_transpose(rho, cut)
    neg = (trace_norm(pt) - 1) / 2
    return 0.0 if neg < 1e-12 else float(neg)


def is_ppt(rho: DensityMatrix, cut: int = 0) -> bool:
    """Positivity of the partial transpose across the cut."""
    pt = partial_transpose(rho, cut)
    return bool(np.linalg.eigvalsh(require_hermitian(pt)).min() >= -TOL.psd)


@dataclass(frozen=True)
class GteResult:
    lhs: float
    rhs: float

    @property
    def detected(self) -> bool:
        return self.lhs > self.rhs

    def to_dict(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "detected": self.detected}


def gte_criterion(rho3: DensityMatrix) -> GteResult:
    """Guhne-Seevinck sufficient GTE criterion in the standard product
    basis |000>, ..., |111>:

        |rho[0,7]| > sqrt(rho[1,1] rho[6,6]) + sqrt(rho[2,2] rho[5,5])
                     + sqrt(rho[3,3] rho[4,4])

    (0-based indices; the printed form of the criterion is 1-based).
    Sufficient only: not-detected is inconclusive.
    """
    if rho3.dims != (2, 2, 2):
        raise ValueError(f"expected dims (2,2,2), got {rho3.dims}")
    m = rho3.mat
    d = np.clip(np.diag(m).real, 0, None)
    lhs = float(abs(m[0, 7]))
    rhs = float(np.sqrt(d[1] * d[6]) + np.sqrt(d[2] * d[5]) + np.sqrt(d[3] * d[4]))
    return GteResult(lhs=lhs, rhs=rhs)


def entanglement_report(rho3: DensityMatrix) -> dict:
    """Per-cut negativities and PPT flags plus the GTE verdict."""
    cuts = {"A|BC": 0, "B|AC": 1, "C|AB": 2}
    gte = gte_criterion(rho3)
    return {
        "negativity": {name: negativity(rho3, c) for name, c in cuts.items()},
        "ppt": {name: is_ppt(rho3, c) for name, c in cuts.items()},
        "gte": gte.to_dict(),
        "gte_note": "criterion is sufficient only; not-detected is inconclusive",
    }
