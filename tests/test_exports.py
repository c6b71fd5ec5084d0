"""Export lists: every name a module lists in __all__ exists there, and
the packages bind no public name but their submodules."""

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


@pytest.mark.parametrize("name", ["lprlab", "lprlab.simnet"])
def test_packages_bind_only_submodules(name):
    # Each public name has one import path, its module's; the packages
    # hold only their submodules (and lprlab.__version__).
    package = importlib.import_module(name)
    submodules = {info.name for info in pkgutil.iter_modules(package.__path__)}
    public = {key for key in vars(package) if not key.startswith("_")}
    assert sorted(public - submodules) == []
