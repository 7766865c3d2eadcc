"""Tiny-size smoke runs of each workload and tests of the output checkers.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))


def tiny(name, seed=3):
    if name == "farey-scan":
        bench = run.FareyScan(wl, seed)
        bench.grid = bench.grid[:6]
    else:
        bench = run.Library(wl, name, seed)
        bench.ops = bench.ops[:2]
    return bench


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_pass_is_correct_and_traced(name):
    bench = tiny(name)
    tr = Tracer()
    with bench:
        samples = run.new_samples()
        attempted, failed, first = run.run_passes(bench, 0, tr, samples)
    assert attempted > 0 and failed == 0
    assert len(samples["w1"]) == len(samples["w2"]) == len(samples["w1_traced"]) == 1
    samples["setup"] = [0.1]
    metrics, _ = run.layer_metrics(tr, samples, bench)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert tr.spans and all(s[2] >= s[1] for s in tr.spans)


def test_library_workers_exit_with_the_run():
    bench = tiny("seq-probe")
    with bench:
        workers = list(bench.workers)
        assert len(workers) == run.WORKERS and all(w.poll() is None for w in workers)
    assert all(w.returncode == 0 for w in workers)


def test_end_to_end_result_line(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload",
                           "seq-probe", "--seed", "4", "--seconds", "0", "--trace", "0"],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "farey-scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_inputs_follow_the_seed():
    assert wl.farey_grid(7) == wl.farey_grid(7) != wl.farey_grid(8)
    assert len(set(wl.farey_grid(7))) == len(wl.farey_grid(7))
    assert len(set(wl.probe_pairs(7))) == len(wl.probe_pairs(7))
    assert wl.disk_alpha(7) == wl.disk_alpha(7)


# -- the checkers reject wrong answers ------------------------------------------------

def _scan_csv(grid):
    proc = subprocess.run([sys.executable] + wl.scan_argv(grid, 1), capture_output=True,
                          text=True, env=run.child_env(), cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_scan_checker_rejects_perturbed_rows():
    grid = wl.farey_grid(3)[:4]
    good = _scan_csv(grid)
    assert wl.check_scan(good.stdout, grid) == 0
    lines = good.stdout.splitlines(keepends=True)
    last = lines[-1].split(",")
    swapped = last[:2] + [last[3], last[2]] + last[4:]   # r_lower > r_upper
    assert wl.check_scan("".join(lines[:-1] + [",".join(swapped)]), grid) == 1
    assert wl.check_scan("".join(lines[:-1]), grid) == 1          # missing row
    bench = run.FareyScan(wl, 3)
    bench.grid = grid
    other = subprocess.CompletedProcess(good.args, 0, good.stdout.replace(last[2], "0.5", 1), "")
    assert bench.check(good, good) == (8, 0)
    assert bench.check(good, other)[1] >= 1                       # w1 and w2 differ


def test_reference_comparison_reads_values_not_bytes():
    row = ("1/3", 0.0078124921875, 0.01171873828125, "escape")
    assert wl.same([list(row)], [row])
    assert not wl.same([row], [("1/3", 0.0078124921875, 0.0117188, "escape")])


def test_probe_checker_rejects_a_wrong_sign():
    out = wl.probe_op(wl.probe_pairs(3)[1])
    assert wl.check_probe(out)
    text, sign, diff, lo, hi = out["members"][0]
    out["members"][0] = (text, -sign, diff, lo, hi)
    assert not wl.check_probe(out)


def test_disk_checker_rejects_a_perturbed_radius():
    out = {"op": "flow:x", "esc": (0.9257, 0.9266), "hadamard_upper": 3.8, "h": 0.025, "rot": []}
    assert wl.check_disk(out)
    assert not wl.check_disk(dict(out, esc=(0.5, 0.5009)))        # below e^{-2 pi h} - 0.01
    assert not wl.check_disk(dict(out, esc=(0.9, 0.95)))          # bracket wider than tol
    quad = dict(out, op="quadratic:x", esc=(0.313, 0.3139), hadamard_upper=0.328, h=0.19,
                rot=[(1e-14, 0, 0, 0, wl.DISK_RETURNS)] * 3)
    assert wl.check_disk(quad)
    assert not wl.check_disk(dict(quad, rot=[(2e-3, 0, 0, 0, wl.DISK_RETURNS)] * 3))
    assert not wl.check_disk(dict(quad, rot=[(1e-14, 1, 0, 0, wl.DISK_RETURNS)] * 3))
