"""Numerical tolerances shared across modules: state validation, the
zero-norm guard, the LHS model check (every reported model is the LP's
own, reconstructed against the assemblage at the t it was solved for),
degenerate observable directions and the scenario-1 margin. A
threshold of one algorithm stays a documented constant of its module,
such as the LP's pricing tolerance and detection margin in
``lhs`` and Nelder-Mead's stop in ``search``.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    hermiticity: float = 1e-12      # max |M_ij - conj(M_ji)| for Hermitian-flagged input
    herm_accept: float = 1e-10      # symmetrize below this residual, reject above
    trace_one: float = 1e-10        # |tr(rho) - 1|
    psd: float = 1e-10              # min eigenvalue >= -psd
    state_norm: float = 1e-9        # pure-state normalization guard
    zero_norm: float = 1e-14        # a coefficient vector shorter than this has no state
    lp_residual: float = 1e-8       # LP primal residual / feasibility threshold
    degenerate_eig: float = 1e-9    # |eigenvalue| below which an observable direction is degenerate
    scenario1_margin: float = 1e-9  # scenario 1: Q_BA <= L + margin respects the bound, and
                                    # |Q_AB - Q_BA| < margin reads as symmetric; far above the
                                    # rounding of Q (eigenvalues of 2x2 matrices, ~1e-15) and far
                                    # below the gaps of the builtin states (sc1: L - Q_BA = 4.2e-5)


TOL = Tolerances()
