"""Export lists: every name a module lists in __all__ exists there."""

import importlib
import pkgutil

import pytest

import lprlab

_MODULES = sorted(
    info.name for info in pkgutil.walk_packages(lprlab.__path__, "lprlab.")
)


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
