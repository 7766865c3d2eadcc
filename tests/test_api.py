"""Every exported name resolves, so a deleted function cannot leave its
export behind; the package root imports nothing; every exported name is
defined in its module and used by the program or its benchmark, not only by
its own tests; every imported name, in the package and in its tests, is used
or re-exported; every setting is set by the program or its benchmark, not
only by tests and not to one literal by every call, and every parameter
default is one some call of theirs leaves in place; the number of
settable values does not grow unnoticed; and every count an entry point
takes refuses what is not an integer."""

import ast
import importlib
import pkgutil
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import siegelkit
from siegelkit.bounds import DEFAULT_CONFIG, brjuno_sum, const_C
from siegelkit.cf import convergents, farey_fractions, parse_cf, special_sequence_main
from siegelkit.errors import DomainError
from siegelkit.germs import QuadraticFamily, lift_of_germ
from siegelkit.linearize import (hadamard_radius, linearization_coeffs, linearizations,
                                 pole_cancellation_probe)
from siegelkit.renorm import build_HJ, find_y0, renormalized_rotation_number
from siegelkit.scan import (DEFAULT_SCAN, ScanParams, condition_bdd_search, main_lemma_probe,
                            scan_r, smooth_disk_driver)
from siegelkit.surd import QuadraticIrrational

from .oracles import translation_lift

MODULES = sorted(m.name for m in pkgutil.iter_modules(siegelkit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"siegelkit.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_package_root_has_no_imports():
    # the root re-exports nothing, so callers name each function by its module
    tree = ast.parse(Path(siegelkit.__file__).read_text(encoding="utf-8"))
    assert [type(n).__name__ for n in ast.walk(tree)
            if isinstance(n, (ast.Import, ast.ImportFrom))] == []


# Exports the program itself never calls, kept for readers outside it: the
# artifact loaders and the certificate checker verify a run's files after the
# fact.
UNCALLED_EXPORTS = {
    "io.load_scan_csv", "io.load_renorm_report", "io.load_construction_states",
    "io.load_lift", "scan.check_construction_invariants",
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
        used |= _uses(ast.parse(path.read_text(encoding="utf-8")))
    unused, reexported = [], []
    for name in MODULES:
        mod = importlib.import_module(f"siegelkit.{name}")
        tree = ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
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
    tree = ast.parse(path.read_text(encoding="utf-8"))
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


def _is_dataclass(cls):
    """``@dataclass``, ``@dataclass(...)`` or ``@dataclasses.dataclass``."""
    tails = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return any(getattr(d, "attr", getattr(d, "id", None)) == "dataclass" for d in tails)


def _init_false(field):
    return isinstance(field.value, ast.Call) and any(
        k.arg == "init" and getattr(k.value, "value", True) is False
        for k in field.value.keywords)


def _settings(tree, module):
    """``("module.callee.name", position, is_default)`` for every parameter
    with a default (``is_default`` True) and every dataclass field a caller
    can set (False).  The callee is the class for its fields and its
    ``__init__``; position is the index of the positional argument that sets
    the value at a call, None for keyword-only."""
    out = []
    for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        if _is_dataclass(cls):
            fields = [s.target.id for s in cls.body
                      if isinstance(s, ast.AnnAssign) and not _init_false(s)]
            out += [(f"{module}.{cls.name}.{f}", i, False) for i, f in enumerate(fields)]
        for fn in cls.body:
            fn.owner = cls.name  # a method's self or cls is no call argument
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            a = fn.args
            positional = a.posonlyargs + a.args
            owner = getattr(fn, "owner", None)
            callee = owner if fn.name == "__init__" else fn.name
            shift = 0 if owner is None else 1
            out += [(f"{module}.{callee}.{x.arg}", i - shift, True)
                    for i, x in enumerate(positional)
                    if i >= len(positional) - len(a.defaults)]
            out += [(f"{module}.{callee}.{x.arg}", None, True)
                    for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


# Settings that no call in the program or its benchmark sets, and defaults
# that no such call leaves in place, each with the reason it stays; a key
# without a parameter covers every field of a class.
UNSET_SETTINGS = {
    "cli.main.argv": "tests run the command line in-process",
    "germs.RotationFamily.restriction_radius": "make_family calls the presets from a table",
    "germs.QuadraticFamily.restriction_radius": "make_family calls the presets from a table",
    "bounds.ConstantConfig": "config_from_mapping passes the fields as **kwargs",
}


def _program_calls():
    """(callee name, positional arguments, keyword arguments by name) for
    every call in the program and its benchmark; a ``**`` argument is keyed
    None and a ``*`` argument is left out."""
    src = Path(siegelkit.__path__[0])
    bench = Path(__file__).parent.parent / "perfbench"
    calls = []
    for path in [*src.glob("*.py"), *bench.rglob("*.py")]:
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Call):
                name = n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)
                calls.append((name, [x for x in n.args if not isinstance(x, ast.Starred)],
                              {k.arg: k.value for k in n.keywords}))
    return calls


def _argument(call, name, pos):
    """What ``call`` passes for the parameter ``name`` at position ``pos``
    (None for keyword-only), or None where the call leaves its default."""
    _, args, keywords = call
    if name in keywords:
        return keywords[name]
    return args[pos] if pos is not None and len(args) > pos else None


def _is_literal(node):
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return False
    return True


def test_every_setting_is_set_outside_tests():
    # a setting only tests set is one value in use: a module constant, which
    # a test reaches with monkeypatch; so is a setting that every call sets to
    # one literal and none leaves at its default; and a parameter default
    # that every call overrides is a value only tests reach
    calls = _program_calls()
    unset, one_literal, unreached = set(), [], set()
    for path in Path(siegelkit.__path__[0]).glob("*.py"):
        for key, pos, is_default in _settings(ast.parse(path.read_text(encoding="utf-8")),
                                              path.stem):
            callee, name = key.split(".")[1:]
            passed = [_argument(c, name, pos) for c in calls if c[0] == callee]
            if not any(x is not None for x in passed):
                unset.add(key)
            elif all(x is not None and _is_literal(x) for x in passed) and len(
                    {ast.dump(x) for x in passed}) == 1:
                one_literal.append(key)
            elif is_default and all(x is not None for x in passed):
                unreached.add(key)
    unexplained = sorted(k for k in unset | unreached
                         if k not in UNSET_SETTINGS and k.rsplit(".", 1)[0] not in UNSET_SETTINGS)
    stale = sorted(k for k in UNSET_SETTINGS
                   if not any(u == k or u.startswith(k + ".") for u in unset | unreached))
    assert (unexplained, stale, sorted(one_literal)) == ([], [], [])


def settable_values():
    """Parameters with a default, dataclass fields a caller can set, and CLI
    arguments, in ``src/siegelkit``.  A parameter counts once per (module,
    function name), so the overrides of one method are one setting."""
    keys, arguments = set(), 0
    for path in Path(siegelkit.__path__[0]).glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                a = node.args
                positional = a.posonlyargs + a.args
                named = positional[len(positional) - len(a.defaults):] + [
                    x for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                keys |= {(path.stem, node.name, x.arg) for x in named}
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                keys |= {(path.stem, node.name, s.target.id) for s in node.body
                         if isinstance(s, ast.AnnAssign) and not _init_false(s)}
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
                arguments += 1
    return len(keys) + arguments


def test_settable_value_count_is_pinned():
    # a change that adds or removes a setting updates this number (and the
    # count quoted in ROADMAP.md) on purpose
    assert settable_values() == 153


GOLDEN = QuadraticIrrational(-1, 1, 2, 5)
_FAMILY = QuadraticFamily()
_GERM = _FAMILY.at(GOLDEN, 8)
_SERIES = linearization_coeffs(_GERM, 32)


def _measured_setup():
    s = build_HJ(translation_lift(GOLDEN), 1)
    find_y0(s)
    return s


# every entry point that takes a count: a call with the count n, and the
# least count it takes
COUNTS = {
    "GermFamily.at": (lambda n: QuadraticFamily().at(GOLDEN, n), 1),
    "linearizations": (lambda n: linearizations([_GERM], n), 1),
    "ScanParams.order": (lambda n: ScanParams(order=n), 1),
    "ScanParams.lin_order": (lambda n: ScanParams(lin_order=n), 1),
    "ScanParams.window": (lambda n: ScanParams(window=n), 16),
    "scan_r.workers": (lambda n: scan_r(QuadraticFamily(), [GOLDEN], DEFAULT_SCAN, workers=n), 1),
    "lift_of_germ": (lambda n: lift_of_germ(_GERM, order=n), 1),
    "build_HJ": (lambda n: build_HJ(translation_lift(GOLDEN), n), 0),
    "renormalized_rotation_number": (lambda n: renormalized_rotation_number(
        _measured_setup(), 1.0, n_returns=n), 1),
    "main_lemma_probe": (lambda n: main_lemma_probe(
        QuadraticFamily(), Fraction(1, 2), "short", n, 6.3), 1),
    "smooth_disk_driver": (lambda n: smooth_disk_driver(QuadraticFamily(), GOLDEN, 0.5, n), 1),
    "condition_bdd_search": (lambda n: condition_bdd_search(
        QuadraticFamily(), GOLDEN, 0.5, qmax=n, K_est=6.3, cfg=DEFAULT_CONFIG), 1),
    "brjuno_sum": (lambda n: brjuno_sum(parse_cf("[0;(1)]"), depth=n, tol=1e-12), 0),
    "special_sequence_main": (lambda n: special_sequence_main(parse_cf("[0;(1)]"), n), 0),
    "convergents": (lambda n: convergents(parse_cf("[0;(1)]"), n), 0),
    "farey_fractions": (lambda n: farey_fractions(n), 1),
    "hadamard_radius": (lambda n: hadamard_radius(_SERIES, window=n), 16),
    "const_C": (lambda n: const_C(2.0, n, DEFAULT_CONFIG), 1),
    # p may be any integer; q | (n - 1)
    "pole_cancellation_probe.p": (lambda n: pole_cancellation_probe(_FAMILY, n, 1, 2), 0),
    "pole_cancellation_probe.q": (lambda n: pole_cancellation_probe(_FAMILY, 0, n, n + 1), 1),
    "pole_cancellation_probe.n": (lambda n: pole_cancellation_probe(_FAMILY, 0, 1, n), 2),
}


@pytest.mark.parametrize("bad", [lambda n: n + 0.5, float, np.float64, lambda n: True],
                         ids=["half", "float", "np.float64", "True"])
@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_counts_refuse_what_is_not_an_integer(entry, bad):
    # a count that operator.index refuses, or a bool, is a DomainError before
    # any work, not a TypeError deep inside or a silent order-1 run
    call, least = COUNTS[entry]
    with pytest.raises(DomainError):
        call(bad(least + 1))


@pytest.mark.parametrize("entry", ["GermFamily.at", "ScanParams.order", "ScanParams.window",
                                   "lift_of_germ", "build_HJ", "brjuno_sum",
                                   "special_sequence_main", "convergents",
                                   "farey_fractions", "hadamard_radius", "const_C",
                                   "pole_cancellation_probe.q", "pole_cancellation_probe.n"])
def test_counts_take_numpy_integers(entry):
    call, least = COUNTS[entry]
    call(np.int64(least))


def test_build_hj_refuses_a_negative_depth():
    with pytest.raises(DomainError, match="k >= 0"):
        build_HJ(translation_lift(GOLDEN), -1)
