import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mlpgp

MODULES = sorted(m.name for m in pkgutil.iter_modules(mlpgp.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"mlpgp.{name}")
    assert hasattr(module, "__all__")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_public_names():
    # every name the package imports is in its module's __all__ and is the
    # module's own object
    tree = ast.parse(Path(mlpgp.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"mlpgp.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(mlpgp, alias.name) is getattr(module, alias.name)


@pytest.mark.parametrize("demo", sorted(
    (Path(__file__).resolve().parents[1] / "demos").glob("*.py")),
    ids=lambda path: path.name)
def test_demo_imports_resolve(demo):
    # the demos are never run by the tests; at least their imports must hold
    tree = ast.parse(demo.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "mlpgp":
            module = importlib.import_module(node.module)
            missing = [a.name for a in node.names
                       if not hasattr(module, a.name)]
            assert missing == [], (node.module, missing)



def _names_read(tree):
    # the names a module imports or reads, and its keywords to bvn_cdf
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Call) and "bvn_cdf" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            yield from (f"bvn_cdf({kw.arg}=)" for kw in node.keywords)


def test_quadrature_layout_stays_in_special():
    # how bvn_cdf lays its quadrature out over gemv calls is special's alone:
    # no other module imports or reads its constants, or passes bvn_cdf a
    # keyword
    layout = {"STRONG_RHO", "QUAD_ROWS", "_GL_WEIGHTS"}
    found = [(path.name, name)
             for path in sorted(Path(mlpgp.__file__).parent.glob("*.py"))
             if path.name != "special.py"
             for name in _names_read(ast.parse(path.read_text()))
             if name in layout or name.startswith("bvn_cdf(")]
    assert found == []
