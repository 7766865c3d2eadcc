"""Committed mutants: each breaks one rule of the program, and one named test
must fail on it.

Run from the repository root:

    python tests/mutants.py

Each entry of :data:`MUTANTS` is ``(file, old text, new text, test id)``.  For
each, the runner copies ``src/`` and ``tests/`` into a temporary directory,
replaces the one occurrence of the old text in that file with the new text,
and runs only the named test there.  A mutant is killed when pytest reports a
test failure (exit status 1) and survives when the test passes.  The runner
exits 1 when a mutant survives, when an old text does not occur exactly once
in its file (the code moved on and the entry has to follow it), or when
pytest ends any other way (a test id that names nothing, for one).

The file name does not match ``test_*.py``, so the Tier-1 run does not collect
it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINEARIZE = "src/siegelkit/linearize.py"

MUTANTS = [
    # _bisect: test the shallowest untested point of a path first
    (LINEARIZE,
     "(path[-1] for path in live)])\n"
     "        for path, ok in zip(live, verdicts):\n"
     "            i, x, _ = path.pop()",
     "(path[0] for path in live)])\n"
     "        for path, ok in zip(live, verdicts):\n"
     "            i, x, _ = path.pop(0)",
     "tests/test_linearize.py::test_escape_radii_chain_follows_sequential_path"),
    # _bisect: a staying point does not vouch for the shallower points
    (LINEARIZE,
     "                known.update(((i, y), True) for _, y, _ in path)\n",
     "",
     "tests/test_renorm.py::test_h_of_lift_matches_sequential_bisection[golden-quadratic]"),
    # _bisect: an escaping point vouches instead of a staying one
    (LINEARIZE,
     "            if ok:  # a staying point vouches",
     "            if not ok:  # a staying point vouches",
     "tests/test_linearize.py::test_escape_radii_chain_follows_sequential_path"),
    # linearization_coeffs: an unknown failure mode passes
    (LINEARIZE,
     '    if on_failure not in ("raise", "truncate"):',
     "    if False:",
     "tests/test_linearize.py::test_linearization_coeffs_refuses_an_unknown_failure_mode"),
    # linearization_coeffs: a rational runs without allow_rational
    (LINEARIZE,
     "    if isinstance(g.alpha, (int, Fraction)) and not allow_rational:",
     "    if False:",
     "tests/test_linearize.py::test_linearization_coeffs_raises_like_the_sequential_loop"
     "[no-rational-cap]"),
    # linearization_coeffs: raise mode returns the partial series
    (LINEARIZE,
     '    if phi.stop is not None and on_failure == "raise":',
     "    if False:",
     "tests/test_linearize.py::test_linearization_coeffs_raises_like_the_sequential_loop"
     "[rational-cap]"),
]


def run_mutant(path, old, new, test_id):
    """``"killed"``, ``"survived"`` or an error text for one mutant."""
    text = (ROOT / path).read_text(encoding="utf-8")
    if text.count(old) != 1:
        return f"error: the old text occurs {text.count(old)} times in {path}"
    with tempfile.TemporaryDirectory() as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, Path(tmp) / tree, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        (Path(tmp) / path).write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test_id],
            cwd=tmp, env=env, capture_output=True, text=True, encoding="utf-8")
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "survived"
    return f"error: pytest exit status {proc.returncode}\n{proc.stdout[-2000:]}"


def main():
    start = time.perf_counter()
    bad = 0
    for k, (path, old, new, test_id) in enumerate(MUTANTS, 1):
        t0 = time.perf_counter()
        verdict = run_mutant(path, old, new, test_id)
        bad += verdict != "killed"
        print(f"mutant {k} ({path}): {verdict} by {test_id} "
              f"in {time.perf_counter() - t0:.1f} s", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
