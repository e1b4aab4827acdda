"""Quantum R-matrices and numerical verification of their identity hierarchy.

The package builds the rational (Yang) and elliptic (Baxter-Belavin type)
quantum R-matrices in the fundamental representation of gl(N), together
with the scalar special functions they degenerate to, and checks the
ladder of cyclic-product identities they satisfy: unitarity, the quantum
and associative Yang-Baxter equations, the n-th order cyclic sums, the
classical expansion, and two applications (block Lax trace powers and
flatness of the induced classical connection).
"""

import importlib

from .errors import (
    BudgetExceeded,
    ContourHitsPole,
    DegenerateArguments,
    DimensionMismatch,
    ExpansionFailed,
    IndexOutOfRange,
    NonEllipticKind,
    PoleProximity,
    QuadratureNotConverged,
    RmxError,
    SeriesNotConverged,
    SizeCapExceeded,
    UnsupportedDerivOrder,
    UsageError,
    ZeroArgument,
)
from .special_functions import (
    FunctionKind,
    LatticeParams,
    MAX_WP_DERIV_ORDER,
    cyclic_orderings,
    eisenstein_e1,
    fay_check,
    kronecker_phi,
    kronecker_phi_deta,
    scalar_cyclic_sum,
    theta,
    weierstrass_p,
)
from .tensor_ops import (
    SIZE_CAP,
    apply_two_site,
    frobenius_distance,
    is_scalar_operator,
    permutation_operator,
)
from .rmatrix import (
    ClassicalPair,
    HbarDerivative,
    RMatrixKind,
    RMatrixSpec,
    belavin_r,
    classical_closed_form,
    classical_expansion,
    r_deriv_hbar,
    r_matrix,
    r_same_site,
    same_site_closed_form,
    structure_phase,
    t_basis,
    yang_r,
)

# The verification layers load on first access (PEP 562), so that
# ``import rmx`` loads only the R-matrix stack above.  Each name resolves
# from its module once and is then cached in this module's globals.
_LAZY = {
    "identities": (
        "IdentityReport",
        "default_tolerance",
        "cyclic_sum_cost",
        "check_nth_order",
        "check_cyclic_batch",
        "check_unitarity",
        "check_qybe",
        "check_aybe",
        "check_skew_symmetry",
        "check_outer_index_independence",
    ),
    "applications": (
        "CalogeroConfig",
        "lax_krichever",
        "check_trace_power_guess",
        "check_kzb_flatness",
        "check_hbar_order_relation",
    ),
    "cli": ("run_suites",),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "RmxError",
    "NonEllipticKind",
    "SeriesNotConverged",
    "PoleProximity",
    "UnsupportedDerivOrder",
    "DegenerateArguments",
    "IndexOutOfRange",
    "DimensionMismatch",
    "SizeCapExceeded",
    "ZeroArgument",
    "ContourHitsPole",
    "QuadratureNotConverged",
    "ExpansionFailed",
    "BudgetExceeded",
    "UsageError",
    "FunctionKind",
    "LatticeParams",
    "MAX_WP_DERIV_ORDER",
    "theta",
    "eisenstein_e1",
    "weierstrass_p",
    "kronecker_phi",
    "kronecker_phi_deta",
    "fay_check",
    "cyclic_orderings",
    "scalar_cyclic_sum",
    "SIZE_CAP",
    "permutation_operator",
    "apply_two_site",
    "is_scalar_operator",
    "frobenius_distance",
    "RMatrixKind",
    "RMatrixSpec",
    "t_basis",
    "structure_phase",
    "yang_r",
    "belavin_r",
    "r_matrix",
    "r_same_site",
    "same_site_closed_form",
    "r_deriv_hbar",
    "HbarDerivative",
    "classical_expansion",
    "classical_closed_form",
    "ClassicalPair",
] + [name for names in _LAZY.values() for name in names]


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY_HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
