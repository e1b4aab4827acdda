"""The public surface: ``rmx.__all__`` and the public functions agree."""

import ast
import dataclasses
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import rmx

MODULES = ["special_functions", "rmatrix", "tensor_ops", "identities",
           "applications"]


def test_every_export_resolves():
    missing = [name for name in rmx.__all__ if not hasattr(rmx, name)]
    assert missing == []
    assert len(set(rmx.__all__)) == len(rmx.__all__)


@pytest.mark.parametrize("layer", MODULES)
def test_every_public_function_is_exported(layer):
    module = getattr(rmx, layer)
    public = {
        name for name, obj in vars(module).items()
        if inspect.isfunction(obj) and not name.startswith("_")
        and obj.__module__ == module.__name__
    }
    assert public <= set(module.__all__)
    assert public <= set(rmx.__all__)
    assert set(module.__all__) <= set(rmx.__all__)


EAGER = ["errors", "special_functions", "tensor_ops", "rmatrix"]


def test_all_is_built_from_the_layers():
    eager = [name for layer in EAGER for name in getattr(rmx, layer).__all__]
    lazy = [name for names in rmx._LAZY.values() for name in names]
    assert rmx.__all__ == ["__version__", *eager, *lazy]


def test_every_error_is_exported():
    errors = {
        name for name, obj in vars(rmx.errors).items()
        if isinstance(obj, type) and issubclass(obj, rmx.RmxError)
    }
    assert errors == set(rmx.errors.__all__)


def test_lattice_params_keeps_only_kind_and_tau():
    fields = [f.name for f in dataclasses.fields(rmx.LatticeParams)]
    assert fields == ["kind", "tau"]


# A fresh interpreter: import rmx and build one R-matrix, then list the
# loaded modules.
FRESH_START = """
import sys
sys.path.insert(0, sys.argv[1])
import rmx
lat = rmx.LatticeParams("elliptic", 1j)
spec = rmx.RMatrixSpec(kind="belavin", site_dim=2, lattice=lat, hbar=0.11 + 0.13j)
rmx.r_matrix(spec, 0.31 + 0.17j)
print(" ".join(sys.modules))
"""


def test_import_loads_only_the_rmatrix_stack():
    src = str(Path(rmx.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", FRESH_START, src],
                         capture_output=True, text=True, timeout=60, check=True)
    loaded = set(out.stdout.split())
    assert {m for m in loaded if m.split(".")[0] == "rmx"} == {
        "rmx", "rmx.errors", "rmx.special_functions", "rmx.tensor_ops",
        "rmx.rmatrix"}
    assert not loaded & {"argparse", "json", "numpy.polynomial"}


def test_lazy_names_resolve_to_their_modules():
    from rmx import CalogeroConfig, check_nth_order, run_suites

    assert run_suites is rmx.cli.run_suites
    assert check_nth_order is rmx.identities.check_nth_order
    assert CalogeroConfig is rmx.applications.CalogeroConfig
    # cached: a second access does not go through __getattr__
    assert vars(rmx)["check_nth_order"] is check_nth_order


def test_dir_lists_every_export():
    assert set(rmx.__all__) <= set(dir(rmx))


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(rmx, "no_such_name")
    with pytest.raises(ImportError):
        from rmx import no_such_name  # noqa: F401


SOURCES = sorted((Path(rmx.__file__).resolve().parent).glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_sources_parse_at_the_python_floor(path):
    # pyproject.toml requires Python >= 3.10: no later syntax in the package
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
