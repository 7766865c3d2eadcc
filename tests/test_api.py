"""Every exported name resolves, so a deleted function cannot leave its
export behind, and every imported name, in the package and in its tests, is
used or re-exported."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import siegelkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(siegelkit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"siegelkit.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(siegelkit.__file__).read_text())
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            src = importlib.import_module(f"siegelkit.{node.module}" if node.module
                                          else "siegelkit")
            missing += [a.name for a in node.names if not hasattr(src, a.name)]
            missing += [a.name for a in node.names if not hasattr(siegelkit, a.name)]
    assert missing == []


def _unused_imports(path):
    """Names ``path`` imports but neither references nor lists in __all__."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_are_used(name):
    path = Path(siegelkit.__path__[0]) / f"{name}.py"
    assert _unused_imports(path) == []


TEST_FILES = sorted(p.name for p in Path(__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", TEST_FILES)
def test_test_imports_are_used(name):
    assert _unused_imports(Path(__file__).parent / name) == []
