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

# in dependency order (rmatrix first adds 0.2 MB to the import's peak RSS)
from . import errors, special_functions, tensor_ops, rmatrix
from .errors import *  # noqa: F401,F403
from .special_functions import *  # noqa: F401,F403
from .tensor_ops import *  # noqa: F401,F403
from .rmatrix import *  # noqa: F401,F403

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

# A public name is exported by its layer's __all__, or, for a lazy layer,
# by its entry in _LAZY; rmx.__all__ is built from those.
__all__ = [
    "__version__",
    *(name for layer in (errors, special_functions, tensor_ops, rmatrix)
      for name in layer.__all__),
    *_LAZY_HOME,
]


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
