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
    locator_margin: float = 1e-6    # first r_in check this far below the restrict locator's t*, off the
                                    # boundary of the feasible set where the LP optimum sits
    degenerate_eig: float = 1e-9    # |eigenvalue| below which an observable direction is degenerate
    scenario1_margin: float = 1e-9  # scenario 1: Q_BA <= L + margin respects the bound, and
                                    # |Q_AB - Q_BA| < margin reads as symmetric; far above the
                                    # rounding of Q (eigenvalues of 2x2 matrices, ~1e-15) and far
                                    # below the gaps of the builtin states (sc1: L - Q_BA = 4.2e-5)


TOL = Tolerances()
