"""Export lists: every name a module lists in __all__ exists there, and
the packages bind no public name but their submodules. Also: no module
names a BLAS-backed routine."""

import ast
import importlib
import pathlib
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


# numpy routines that call BLAS or LAPACK. lprlab starts numpy with one
# OpenBLAS thread because it calls none of them.
_BLAS_NAMES = {"dot", "matmul", "vdot", "inner", "tensordot", "einsum", "linalg",
               "cov", "corrcoef", "polyfit", "lstsq"}


def test_no_module_calls_blas():
    root = pathlib.Path(lprlab.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                names = {"@"}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {part for alias in node.names for part in alias.name.split(".")}
                names |= set((getattr(node, "module", None) or "").split("."))
            else:
                continue
            for name in sorted(names & (_BLAS_NAMES | {"@"})):
                found.append(f"{path.relative_to(root)}:{node.lineno}: {name}")
    assert found == []
