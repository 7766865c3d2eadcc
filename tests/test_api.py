"""Every exported name resolves, so a deleted function cannot leave its
export behind; every exported name is defined in its module and used by the
program or its benchmark, not only by its own tests; and every imported name,
in the package and in its tests, is used or re-exported."""

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


# Exports the program itself never calls, kept for readers outside it: the
# artifact loaders and the certificate checker verify a run's files after the
# fact, and sqrt_exact is the public constructor of an exact square root.
UNCALLED_EXPORTS = {
    "io.load_scan_csv", "io.load_renorm_report", "io.load_construction_states",
    "io.load_lift", "scan.check_construction_invariants", "surd.sqrt_exact",
}


def _uses(tree):
    """Names and attribute names ``tree`` refers to, each top-level def or
    class not counting references to itself."""
    out = set()
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for n in ast.walk(stmt):
            name = n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
            if name is not None and name != own:
                out.add(name)
    return out


def test_exports_are_used_outside_tests():
    src = Path(siegelkit.__path__[0])
    bench = Path(__file__).parent.parent / "perfbench"
    used = set()
    for path in [*src.glob("*.py"), *bench.rglob("*.py")]:
        used |= _uses(ast.parse(path.read_text()))
    unused, reexported = [], []
    for name in MODULES:
        mod = importlib.import_module(f"siegelkit.{name}")
        tree = ast.parse((src / f"{name}.py").read_text())
        imported = {a.asname or a.name for node in tree.body
                    if isinstance(node, ast.ImportFrom) for a in node.names}
        for export in getattr(mod, "__all__", ()):
            if export in imported:
                reexported.append(f"{name}.{export}")
            elif export not in used and f"{name}.{export}" not in UNCALLED_EXPORTS:
                unused.append(f"{name}.{export}")
    assert (unused, reexported) == ([], [])


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
