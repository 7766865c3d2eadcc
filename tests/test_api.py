"""Every exported name resolves, so a deleted function cannot leave its
export behind."""

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
