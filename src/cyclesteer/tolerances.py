"""Central numerical tolerances.

Every module pulls its thresholds from here so a tolerance change is a
one-line edit rather than a grep across the codebase.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    hermiticity: float = 1e-12      # max |M_ij - conj(M_ji)| for Hermitian-flagged input
    herm_accept: float = 1e-10      # symmetrize below this residual, reject above
    trace_one: float = 1e-10        # |tr(rho) - 1|
    psd: float = 1e-10              # min eigenvalue >= -psd
    state_norm: float = 1e-9        # pure-state normalization guard
    lp_residual: float = 1e-8       # LP primal residual / feasibility threshold
    farkas_violation: float = 1e-7  # accept a Farkas dual only above this certified violation
    bisection: float = 1e-3         # default bisection tolerance in the mixing parameter t
    degenerate_eig: float = 1e-9    # |eigenvalue| below which an observable direction is degenerate


TOL = Tolerances()
