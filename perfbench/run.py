"""siegelkit benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload farey-scan|seq-probe|siegel-disk \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.  With
``--trace 0`` the run reports the end-to-end metrics (wall_s, wall_w2_s,
setup_s, peak_rss_mb); with ``--trace 1`` it records spans around the
benchmark's calls into each module and reports the per-layer metrics.  See
``perfbench/NOTES.md`` for what each metric means and which it should move.
The last line of standard output is the result object; the lines before it
are a readable summary, and ``perfbench/out/`` keeps the samples, the machine
facts and the spans.
"""

import argparse
import json
import os
import platform
import resource
import selectors
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from spans import NULL, Tracer, median, tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("farey-scan", "seq-probe", "siegel-disk")
DEFAULT_SEED = 0          # the seed whose outputs reference.json holds
# Set-up samples: this many before the passes and one in every pass, so that
# they spread over the run's changing host speed as the passes do.
SETUP_FIRST = 5
# Times are reported in reference seconds: measured seconds times
# CAL_REF_S / (mean calibration time of the run); see calibrate().
CAL_REF_S = 0.4
CHILD_TIMEOUT = 150
# Every child runs single-threaded numerics, so "--workers 2" means two busy
# processes on a two-core machine.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKERS = max(1, min(2, len(os.sched_getaffinity(0))))


def child_env():
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t


def run_child(cmd, capture=True):
    """Run a child to completion.  ``subprocess.run(timeout=...)`` polls the
    child with sleeps of up to 50 ms, which would quantize every timing; a
    blocking wait with a watchdog kill keeps the timings exact."""
    pipe = subprocess.PIPE if capture else subprocess.DEVNULL
    proc = subprocess.Popen(cmd, stdout=pipe, stderr=pipe, text=True, env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def machine_facts(np_version):
    caches = {}
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        for line in text.splitlines():
            key, _, val = line.partition(":")
            if "cache" in key:
                caches[key.strip()] = val.strip()
    except (OSError, subprocess.SubprocessError):
        caches = {"lscpu": "unavailable"}
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np_version, "caches": caches, "loadavg_at_start": os.getloadavg(),
            "machine": platform.machine()}


class FareyScan:
    """The scan CLI as a subprocess, ``--workers 1`` then ``--workers 2``."""

    setup_cmd = [sys.executable, "-m", "siegelkit.cli", "const", "C", "--K", "1", "--q", "1"]
    setup_span = "cli.startup"

    def __init__(self, wl, seed):
        self.wl = wl
        self.grid = wl.farey_grid(seed)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def _cli(self, workers):
        return run_child([sys.executable] + self.wl.scan_argv(self.grid, workers))

    def w1(self, tr):
        with tr.span("cli.scan_w1"):
            return self._cli(1)

    def w2(self):
        return self._cli(WORKERS)

    def check(self, out1, out2):
        n = len(self.grid)
        failed = 0
        for proc in (out1, out2):
            failed += n if proc.returncode != 0 else min(n, self.wl.check_scan(proc.stdout, self.grid))
        if out1.returncode == out2.returncode == 0 and out1.stdout != out2.stdout:
            # criterion 12: the CSV must not depend on the worker count
            a, b = self.wl.scan_view(out1.stdout), self.wl.scan_view(out2.stdout)
            failed += max(1, sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b)))
        return 2 * n, min(failed, 2 * n)

    def view(self, out1):
        return self.wl.scan_view(out1.stdout) if out1.returncode == 0 else []

    def layers(self, tr):
        return self.wl.scan_layers(self.grid, tr)


class Library:
    """In-process operations; ``--workers 2`` is the same batch handed out to
    two worker processes (``worker.py``) that the benchmark starts once,
    before timing, and stops and waits for at the end."""

    setup_span = "bench.setup"

    def __init__(self, wl, name, seed):
        self.wl = wl
        self.name = name
        self.seed = seed
        gen, _, self.check_op, self.view_op = wl.LIBRARY_OPS[name]
        self.ops = gen(seed)
        self.setup_cmd = [sys.executable, WORKER, name]
        self.workers = []

    def __enter__(self):
        cmd = [sys.executable, WORKER, self.name, str(self.seed)]
        try:
            for _ in range(WORKERS):
                self.workers.append(subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                                     text=True, env=child_env(), cwd=ROOT))
            for w in self.workers:  # both warmed up before timing
                if w.stdout.readline() != "ready\n":
                    raise RuntimeError("benchmark worker failed to start")
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc):
        self._stop()
        return False

    def _stop(self):
        for w in self.workers:
            w.stdin.close()  # end of input: the worker exits
        for w in self.workers:
            try:
                w.wait(timeout=CHILD_TIMEOUT)
            except subprocess.TimeoutExpired:
                w.kill()
                w.wait()
            w.stdout.close()
        self.workers = []

    def w1(self, tr):
        return [self.wl.run_op((self.name, op), tr) for op in self.ops]

    def w2(self):
        """Each idle worker gets the next operation, as a pool's map would."""
        results = [None] * len(self.ops)
        todo = iter(range(len(self.ops)))
        busy = {}
        with selectors.DefaultSelector() as sel:
            def send(w):
                i = next(todo, None)
                if i is not None:
                    w.stdin.write(f"{i}\n")
                    w.stdin.flush()
                    busy[w] = i
            for w in self.workers:
                sel.register(w.stdout, selectors.EVENT_READ, w)
                send(w)
            while busy:
                for key, _ in sel.select():
                    w = key.data
                    line = w.stdout.readline()  # one reply outstanding per worker
                    if not line:
                        raise RuntimeError("benchmark worker exited")
                    results[busy.pop(w)] = tuple(json.loads(line))
                    send(w)
        return results

    def check(self, out1, out2):
        failed = 0
        for (s1, o1), (s2, o2) in zip(out1, out2):
            good1 = s1 == "ok" and self.check_op(o1)
            good2 = s2 == "ok" and self.check_op(o2)
            failed += (not good1) + (not good2)
            if good1 and good2 and not self.wl.same(self.view_op(o1), self.view_op(o2)):
                failed += 1  # one process or two must not change a result
        return 2 * len(self.ops), min(failed, 2 * len(self.ops))

    def view(self, out1):
        return [self.view_op(o) if s == "ok" else None for s, o in out1]

    def layers(self, tr):
        if self.name == "seq-probe":
            for pair in self.ops:
                self.wl.probe_replay(pair, tr)
        else:
            self.wl.flow_linearizer(self.ops[0][1], tr)
        return 0


def new_samples():
    return {"setup": [], "w1": [], "w2": [], "w1_traced": [], "cal": [],
            "setup_cal": [], "w1_cal": [], "w2_cal": []}


def calibrate():
    """Seconds for a fixed kernel of the benchmark's own code: an interpreted
    loop and small complex-array numpy steps, the mix of the program's hot
    loops.  On a shared host the machine's speed drifts by tens of percent
    over minutes; timing this next to every pass lets the run report its
    times at a reference speed."""
    t = time.perf_counter()
    acc = 0
    for i in range(800_000):
        acc += i * i % 7
    z = 0.5 * np.exp(2j * np.pi * np.arange(16) / 16)
    for _ in range(10_000):
        w = np.full_like(z, 0.1)
        for _ in range(7):
            w *= z
            w += 0.1
        np.max(np.abs(w))
    return time.perf_counter() - t


def calibrate_before(samples, key):
    """Time the kernel just before the next ``key`` sample and note its index;
    the calibration after that sample is the next one in ``samples["cal"]``."""
    samples[key + "_cal"].append(len(samples["cal"]))
    samples["cal"].append(calibrate())


def neighbour_cal(samples, key):
    """For every ``key`` sample, the mean of the calibrations timed just
    before and just after it.  The host's slow spells come in bursts of a
    second or so, so the neighbours track the speed a sample ran at better
    than the run's mean does."""
    cal = samples["cal"]
    return [(cal[i] + cal[i + 1]) / 2 for i in samples[key + "_cal"]]


def normalised(samples, key):
    """Every ``key`` sample in reference seconds."""
    return [CAL_REF_S * v / c for v, c in zip(samples[key], neighbour_cal(samples, key))]


def normalised_mean(samples, key):
    """The mean ``key`` sample in reference seconds: the run's total over the
    total of its neighbouring calibrations, so that one short calibration
    caught in a burst does not swing a whole sample."""
    return CAL_REF_S * sum(samples[key]) / sum(neighbour_cal(samples, key))


def measure_setup(bench, tr, samples, repeats):
    for _ in range(repeats):
        calibrate_before(samples, "setup")
        with tr.span(bench.setup_span):
            proc, dt = timed(run_child, bench.setup_cmd, False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up command failed: {bench.setup_cmd}")
        samples["setup"].append(dt)


def run_passes(bench, seconds, tr, samples):
    """Closed loop: passes until the next one would overrun ``seconds``.
    Returns (attempted, failed, first pass's one-worker output)."""
    attempted = failed = 0
    first = None
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        start = time.perf_counter()
        measure_setup(bench, tr, samples, 1)
        calibrate_before(samples, "w1")
        out1, dt1 = timed(bench.w1, NULL)
        calibrate_before(samples, "w2")
        out2, dt2 = timed(bench.w2)
        samples["w1"].append(dt1)
        samples["w2"].append(dt2)
        a, f = bench.check(out1, out2)
        attempted += a
        failed += f
        if first is None:
            first = out1
        if tr is not NULL:
            with tr.span("bench.pass", i):
                _, dt = timed(bench.w1, tr)
                samples["w1_traced"].append(dt)
                bad = bench.layers(tr)
            attempted += 1
            failed += bad > 0
        i += 1
        now = time.perf_counter()
        if now + (now - start) > deadline:
            samples["cal"].append(calibrate())  # the last sample's calibration after
            return attempted, failed, first


def reference_failures(bench, workload, wl, first):
    """Failed operations against the stored default-seed reference."""
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)[workload]
    got = bench.view(first)
    if len(got) != len(ref):
        return max(len(got), len(ref))
    return sum(not wl.same(g, r) for g, r in zip(got, ref))


def layer_metrics(tr, samples, bench):
    R = tr.roots("bench.pass")

    def per(name):
        return tr.per_root(name, R)

    def s(name):
        return median(per(name))

    def ms(name):
        return [1000 * d for d in tr.durations(name)]

    def diff(a, b):
        if not tr.durations(b):
            return 0.0
        return median([x - y for x, y in zip(per(a), per(b))])

    self_s = 0.0
    if tr.durations("scan.scan_r"):
        children = [per(n) for n in ("germs.at", "linearize.coeffs", "linearize.escape")]
        self_s = median([r - sum(c) for r, *c in zip(per("scan.scan_r"), *children)])
    ok = sum(tr.count_per_root("linearize.coeffs_ok", R))
    alphas = sum(tr.count_per_root("linearize.alpha", R))
    rot_time = sum(tr.durations("renorm.rotnum"))
    returns = sum(tr.count_per_root("renorm.returns", R))
    w1, w2, w1t = (median(samples[k]) for k in ("w1", "w2", "w1_traced"))
    m = {
        "cli.startup_s": (median(samples["setup"]) if bench.setup_span == "cli.startup" else 0.0, "s"),
        "scan.scan_r_s": (s("scan.scan_r"), "s"),
        "scan.self_s": (self_s, "s"),
        "scan.scaling_eff_w2": (w1 / (WORKERS * w2), "ratio"),
        "scan.probe_s": (s("scan.probe"), "s"),
        "linearize.coeffs_s": (s("linearize.coeffs"), "s"),
        "linearize.coeffs_calls": (median(tr.calls_per_root("linearize.coeffs", R)), "count"),
        "linearize.coeffs_ms.p50": (median(ms("linearize.coeffs")), "ms"),
        "linearize.coeffs_ms.tail": (tail(ms("linearize.coeffs"))[1], "ms"),
        "linearize.coeffs_useful_frac": (ok / alphas if alphas else 0.0, "ratio"),
        "linearize.escape_s": (s("linearize.escape"), "s"),
        "linearize.escape_calls": (median(tr.calls_per_root("linearize.escape", R)), "count"),
        "linearize.escape_ms.p50": (median(ms("linearize.escape")), "ms"),
        "linearize.escape_ms.tail": (tail(ms("linearize.escape"))[1], "ms"),
        "surd.exact_divisor_s": (diff("linearize.coeffs", "linearize.coeffs_float"), "s"),
        "cf.special_seq_s": (s("cf.special_seq"), "s"),
        "cf.side_and_gap_s": (s("cf.side_and_gap"), "s"),
        "germs.at_s": (s("germs.at"), "s"),
        "germs.lift_s": (s("germs.lift"), "s"),
        "series.flow_linearizer_s": (diff("series.flow_first_at", "series.flow_cached_at"), "s"),
        "renorm.h_of_lift_s": (s("renorm.h_of_lift"), "s"),
        "renorm.h_of_lift_calls": (median(tr.calls_per_root("renorm.h_of_lift", R)), "count"),
        "renorm.find_y0_s": (s("renorm.find_y0"), "s"),
        "renorm.rotnum_s": (s("renorm.rotnum"), "s"),
        "renorm.returns_per_s": (returns / rot_time if rot_time else 0.0, "1/s"),
        "io.csv_emit_s": (s("io.csv_emit"), "s"),
        "trace.overhead_frac": (w1t / w1 - 1.0, "ratio"),
    }
    notes = {name: f"p{tail(ms(span))[0]} of {len(ms(span))} calls"
             for name, span in (("linearize.coeffs_ms.tail", "linearize.coeffs"),
                                ("linearize.escape_ms.tail", "linearize.escape"))}
    return m, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "siegelkit", "__init__.py")):
        sys.stderr.write(f"perfbench: no siegelkit sources under {SRC}\n")
        return 2
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, SRC)
    import workloads as wl

    facts = machine_facts(np.__version__)
    tr = Tracer() if args.trace else NULL
    bench = (FareyScan(wl, args.seed) if args.workload == "farey-scan"
             else Library(wl, args.workload, args.seed))
    samples = new_samples()
    measure_setup(bench, tr, samples, SETUP_FIRST)
    with bench:
        attempted, failed, first = run_passes(bench, args.seconds, tr, samples)
    if args.seed == DEFAULT_SEED:
        bad = reference_failures(bench, args.workload, wl, first)
        attempted += 1
        failed += bad > 0
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    speed = CAL_REF_S / statistics.mean(samples["cal"])  # reference s per measured s

    if args.trace:
        metrics, notes = layer_metrics(tr, samples, bench)
        metrics = {k: (v * speed if u in ("s", "ms") else v / speed if u == "1/s" else v, u)
                   for k, (v, u) in metrics.items()}
    else:
        ref = {key: normalised(samples, key) for key in ("w1", "w2", "setup")}
        metrics = {"wall_s": (normalised_mean(samples, "w1"), "s"),
                   "wall_w2_s": (normalised_mean(samples, "w2"), "s"),
                   "setup_s": (median(ref["setup"]), "s"),
                   "peak_rss_mb": (rss_kb / 1024.0, "MB")}
        notes = {}
        for name, key in (("wall_s", "w1"), ("wall_w2_s", "w2"), ("setup_s", "setup")):
            vals = ref[key]
            pct, val = tail(vals)
            notes[name] = (f"median {median(vals):.4f} s, "
                           + (f"p{pct} {val:.4f} s, " if pct else "no percentile with 10 beyond, ")
                           + f"n={len(vals)}, raw median {median(samples[key]):.4f} s")
    fail_frac = failed / attempted
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    print(f"{args.workload} fail_frac = {fail_frac:.6g} ({failed}/{attempted})")
    print(f"speed: calibration mean {statistics.mean(samples['cal']):.4f} s against "
          f"{CAL_REF_S} s reference, n={len(samples['cal'])}")
    print(f"machine: {json.dumps(facts)}")

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "workers": WORKERS, "machine": facts, "samples": samples,
                   "speed": speed, "notes": notes, "fail_frac": fail_frac,
                   "metrics": {k: v for k, (v, _) in metrics.items()}}, fh, indent=1)
    if args.trace:
        tr.dump(stem + ".spans.jsonl")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
