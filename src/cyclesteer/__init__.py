"""Cyclic one-way EPR steering certification for three-qubit states."""

from .linalg import DensityMatrix, partial_trace, partial_transpose, trace_norm
from .states import PureState3Q, build_family, builtin_state, reduce_pair, singlet, swap_state, werner
from .steering import (
    Assemblage,
    icosahedron_settings,
    lhs_bound_L,
    make_assemblage,
    one_way_gap_scenario1,
    quantum_value_Q,
)
from .polytope import SpherePolytope, antipodal_directions, sphere_polytope
from .lhs import (
    RadiusParams,
    RadiusReport,
    certify_unsteerable_shrunk,
    critical_radius_bounds,
    detect_steerable,
    lhs_lp_feasible,
    one_way_report,
)
from .entanglement import gte_criterion, is_ppt, negativity
from .search import ObjectiveSpec, multi_restart, nelder_mead

__version__ = "0.1.0"
