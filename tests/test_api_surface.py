"""The public surface: ``rmx.__all__`` and the public functions agree."""

import inspect

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
