"""The three benchmark workloads: seeded inputs, one pass, output checks.

Each workload is a closed loop driven by one client: a pass over the seed's
inputs is issued only after the previous pass has finished.  The program sees
only the generated inputs; the seed never reaches it.

* ``farey-scan``  -- the ``siegelkit scan`` CLI on a seeded rational grid, run as
  a subprocess with ``--workers 1`` and then ``--workers 2``.  Always a
  subprocess, never ``cli.main(argv)`` in-process: ``cmd_scan`` hashes
  ``sys.argv`` rather than its ``argv`` argument, so an in-process call would
  stamp the benchmark's own argv into the manifest digest.
* ``seq-probe``   -- ``scan.main_lemma_probe`` in-process on seeded (p/q, variant)
  pairs: deep quadratic surds, no poles, exact divisor reductions.
* ``siegel-disk`` -- the single-germ pipeline of acceptance criteria 5-7 on
  seeded bounded-type alpha: long surviving orbits, ``h_of_lift`` and the
  scalar return map.

Spans are recorded only around the benchmark's own calls into siegelkit's
public functions (see ``spans.py``); nothing inside ``src/`` is instrumented.
"""

import csv
import io
import math
import random
from fractions import Fraction

from siegelkit import cf, germs, linearize, renorm, scan
from siegelkit import io as skio
from siegelkit.errors import OverflowGuard, SiegelError, SmallDivisorBlowup
from siegelkit.surd import to_float

from spans import NULL

REL_TOL = 1e-9  # reference comparison of parsed floats

# -- farey-scan ----------------------------------------------------------------

SCAN_Q = range(3, 43)  # two numerators per denominator, one in each half of [0, 1)
# The CLI defaults, spelled out for the in-process replay of the same scan.
SCAN_PARAMS = scan.ScanParams(
    order=32, lin_order=48, window=24,
    escape=linearize.EscapeParams(max_iter=300, circle_samples=16, bisect_tol=4e-3),
    estimators=("escape",))


def farey_grid(seed):
    """Distinct p/q in (0, 1): for every q in SCAN_Q one numerator below q/2
    and one above, so each seed's grid has the same denominator profile."""
    rng = random.Random(seed)
    grid = []
    for q in SCAN_Q:
        ps = [p for p in range(1, q) if math.gcd(p, q) == 1]
        grid.append(Fraction(rng.choice([p for p in ps if 2 * p < q]), q))
        grid.append(Fraction(rng.choice([p for p in ps if 2 * p > q]), q))
    return grid


def scan_argv(grid, workers):
    return ["-m", "siegelkit.cli", "scan", "--family", "quadratic",
            "--format", "csv", "--grid", ",".join(str(a) for a in grid),
            "--workers", str(workers)]


def parse_scan_csv(text):
    """Rows as dicts keyed by the header; comment lines skipped.  Parsed by
    column name so that a schema bump that keeps these columns still reads."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(lines))


def check_scan(text, grid):
    """Number of failed rows: missing, wrong alpha, or 0 <= r_lower <= r_upper
    <= 1 broken.  A tagged ``escape:error:<SiegelError>`` row is a documented
    outcome, not a failure."""
    rows = parse_scan_csv(text)
    failed = abs(len(rows) - len(grid) * len(SCAN_PARAMS.estimators))
    for row, alpha in zip(rows, grid):
        if row["alpha_text"] != str(alpha):
            failed += 1
        elif row["method"].startswith("escape:error:"):
            continue
        elif not 0.0 <= float(row["r_lower"]) <= float(row["r_upper"]) <= 1.0:
            failed += 1
    return failed


def scan_view(text):
    return [(r["alpha_text"], float(r["r_lower"]), float(r["r_upper"]), r["method"])
            for r in parse_scan_csv(text)]


def _phi(fam, alpha, p, tr):
    """``scan._phi_or_none`` from outside: a raising linearization, then a
    truncating one when the raising call hits a pole or the overflow cap."""
    with tr.span("germs.at", alpha):
        g = fam.at(alpha, p.order)
    try:
        with tr.span("linearize.coeffs", alpha):
            phi = linearize.linearization_coeffs(g, p.lin_order, allow_rational=True)
        tr.count("linearize.coeffs_ok")
    except (SmallDivisorBlowup, OverflowGuard):
        with tr.span("linearize.coeffs", alpha):
            phi = linearize.linearization_coeffs(g, p.lin_order, allow_rational=True,
                                                 on_failure="truncate")
    tr.count("linearize.alpha")
    return g, phi


def scan_layers(grid, tr):
    """In-process replay of the CLI scan: ``scan_r`` at one worker, then the
    same grid call by call, then the CSV emitter.  Returns the number of rows
    on which the replay disagrees with ``scan_r``."""
    fam = families()["quadratic"]
    with tr.span("scan.scan_r"):
        rows = scan.scan_r(fam, grid, SCAN_PARAMS, workers=1)
    mismatched = 0
    with tr.span("scan.replay"):
        for alpha, row in zip(grid, rows):
            try:
                g, phi = _phi(fam, alpha, SCAN_PARAMS, tr)
                with tr.span("linearize.escape", alpha):
                    est = linearize.escape_radius(g, phi, SCAN_PARAMS.escape)
                got = (est.lower, est.upper, "escape")
            except SiegelError as exc:
                got = (0.0, math.inf, f"escape:error:{type(exc).__name__}")
            mismatched += got != (row.r_lower, row.r_upper, row.method)
    with tr.span("io.csv_emit"):
        skio.emit_scan_csv(rows, io.StringIO())
    return mismatched + abs(len(rows) - len(grid))


# -- seq-probe -------------------------------------------------------------------

PROBE_Q = range(2, 14)
PROBE_N = 4          # special-sequence members per probe
PROBE_K = 2.0        # K_est only scales the reported constants, never the radii
PROBE_PARAMS = scan.ScanParams(
    order=16, lin_order=256,
    escape=linearize.EscapeParams(max_iter=100, circle_samples=16, bisect_tol=4e-3))


def probe_pairs(seed):
    """One (p/q, variant) per q in PROBE_Q, distinct by construction."""
    rng = random.Random(seed)
    pairs = []
    for q in PROBE_Q:
        p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
        pairs.append((Fraction(p, q), rng.choice(("short", "long"))))
    return pairs


def probe_op(pair, tr=NULL):
    pq, variant = pair
    fam = families()["quadratic"]
    with tr.span("scan.probe", f"{pq}:{variant}"):
        rep = scan.main_lemma_probe(fam, pq, variant, PROBE_N, PROBE_K, p=PROBE_PARAMS)
    expansion = cf.cf_of_rational(pq, variant)
    members = []
    for n in range(1, PROBE_N + 1):
        with tr.span("cf.special_seq", f"{pq}:{variant}:{n}"):
            a = cf.special_sequence_main(expansion, n)
        with tr.span("cf.side_and_gap", f"{pq}:{variant}:{n}"):
            sign, (lo, hi) = cf.side_and_gap(a, pq)
        members.append((cf.format_exact(a), sign, float(pq) - to_float(a), float(lo), float(hi)))
    return {"pair": f"{pq}:{variant}", "tail_min": rep["tail_min"], "members": members,
            "values": [(v["alpha_text"], v["r_lower"], v["r_upper"]) for v in rep["values"]]}


def check_probe(out):
    """tail_min > 0; every exact side_and_gap sign agrees with the float
    difference, and the probe ran on the same sequence members."""
    if not out["tail_min"] > 0:
        return False
    for (text, sign, diff, lo, hi), value in zip(out["members"], out["values"]):
        if text != value[0] or diff == 0 or sign != (1 if diff > 0 else -1) or lo > hi:
            return False
    return len(out["members"]) == len(out["values"]) == PROBE_N


def probe_view(out):
    return [out["pair"], out["tail_min"], out["values"], [m[:2] for m in out["members"]]]


def probe_replay(pair, tr):
    """The probe's per-member calls, made from outside, plus the same
    linearization at the float parameter (exact divisor cost by difference)."""
    pq, variant = pair
    fam = families()["quadratic"]
    expansion = cf.cf_of_rational(pq, variant)
    for n in range(1, PROBE_N + 1):
        a = cf.special_sequence_main(expansion, n)
        g, phi = _phi(fam, a, PROBE_PARAMS, tr)
        g_float = fam.at(to_float(a), PROBE_PARAMS.order)
        with tr.span("linearize.coeffs_float", a):
            linearize.linearization_coeffs(g_float, PROBE_PARAMS.lin_order)
        with tr.span("linearize.escape", a):
            linearize.escape_radius(g, phi, PROBE_PARAMS.escape)


# -- siegel-disk -------------------------------------------------------------------

# alpha starts with the golden mean's first ten partial quotients and the seed
# draws the deeper ones (all <= 3).  The prefix sets how long orbits survive
# and the q_k of the return maps, which is most of the cost, so passes cost
# about the same across seeds while the parameters still differ.
DISK_PREFIX = (1,) * 10
DISK_FAMILIES = ("quadratic", "flow")
DISK_ORDER = {"quadratic": 8, "flow": 24}
DISK_N = 256
DISK_ESCAPE = linearize.EscapeParams(max_iter=3000, circle_samples=64)
DISK_LIFT_ORDER = 64
DISK_H = renorm.HParams(max_iter=10_000)
DISK_K = (1, 2, 3)
DISK_RETURNS = 1000


def disk_alpha(seed):
    rng = random.Random(seed)
    deep = DISK_PREFIX + tuple(rng.randint(1, 3) for _ in range(3))
    period = [rng.randint(1, 3) for _ in range(2)]
    return "[0;%s,(%s)]" % (",".join(map(str, deep)), ",".join(map(str, period)))


def disk_ops(seed):
    return [(fam, disk_alpha(seed)) for fam in DISK_FAMILIES]


def disk_op(op, tr=NULL):
    family, text = op
    alpha = cf.parse_exact(text)
    fam = families()[family]
    with tr.span("germs.at", text):
        g = fam.at(alpha, DISK_ORDER[family])
    with tr.span("linearize.coeffs", text):
        lin = linearize.linearization_coeffs(g, DISK_N)
    tr.count("linearize.coeffs_ok")
    tr.count("linearize.alpha")
    with tr.span("linearize.escape", text):
        esc = linearize.escape_radius(g, lin, DISK_ESCAPE)
    with tr.span("linearize.hadamard", text):
        had = linearize.hadamard_radius(lin, 128)
    with tr.span("germs.lift", text):
        F = germs.lift_of_germ(g, order=DISK_LIFT_ORDER)
    with tr.span("renorm.h_of_lift", text):
        h = renorm.h_of_lift(F, DISK_H)
    rot = []
    if family == "quadratic":
        for k in DISK_K:
            with tr.span("renorm.build_HJ", text):
                setup = renorm.build_HJ(F, k)
            with tr.span("renorm.find_y0", text):
                y0 = renorm.find_y0(setup)
            with tr.span("renorm.rotnum", text):
                rep = renorm.renormalized_rotation_number(
                    setup, height=y0 + 20 * abs(setup.beta), n_returns=DISK_RETURNS)
            tr.count("renorm.returns", rep.n_returns)
            rot.append((rep.error, rep.single_pass_violations, rep.budget_violations,
                        rep.undefined_returns, rep.n_returns))
    return {"op": f"{family}:{text}", "esc": (esc.lower, esc.upper),
            "hadamard_upper": had.upper, "h": h, "rot": rot}


def check_disk(out):
    """Criterion 6 (r >= e^{-2 pi h} - 0.01), criterion 7 (rotnum error < 1e-3,
    no violations, every return made), the escape bracket within bisect_tol
    and escape below the Hadamard indicator plus 0.02."""
    lower, upper = out["esc"]
    ok = (0.0 <= upper - lower <= DISK_ESCAPE.bisect_tol
          and lower >= math.exp(-2 * math.pi * out["h"]) - 0.01
          and lower <= out["hadamard_upper"] + 0.02)
    for err, single, budget, undefined, n in out["rot"]:
        ok = ok and err < 1e-3 and single == budget == undefined == 0 and n == DISK_RETURNS
    return ok and len(out["rot"]) == (len(DISK_K) if out["op"].startswith("quadratic") else 0)


def disk_view(out):
    """Brackets and counts; the rotation-number errors sit near 1e-14, where
    rounding differences are not a wrong answer, so only their check counts."""
    return [out["op"], list(out["esc"]), out["hadamard_upper"], out["h"],
            [list(r[1:]) for r in out["rot"]]]


def flow_linearizer(text, tr):
    """First ``FlowFamily.at`` (linearizer built) and a cached second call."""
    fam = germs.FlowFamily([1.0], 0.5)
    alpha = cf.parse_exact(text)
    with tr.span("series.flow_first_at", text):
        fam.at(alpha, DISK_ORDER["flow"])
    with tr.span("series.flow_cached_at", text):
        fam.at(alpha, DISK_ORDER["flow"])


# -- shared --------------------------------------------------------------------------

_FAMILIES = {}


def families():
    """The families every pass uses, built once per process."""
    if not _FAMILIES:
        _FAMILIES["quadratic"] = germs.QuadraticFamily()
        _FAMILIES["flow"] = germs.FlowFamily([1.0], 0.5)
    return _FAMILIES


def warm(workload):
    """Set-up a library workload needs before work can start: the families and
    the flow family's lazily built linearizer."""
    fam = families()
    if workload == "siegel-disk":
        fam["flow"].at(0.5, DISK_ORDER["flow"])


LIBRARY_OPS = {"seq-probe": (probe_pairs, probe_op, check_probe, probe_view),
               "siegel-disk": (disk_ops, disk_op, check_disk, disk_view)}


def run_op(task, tr=NULL):
    """One operation, also the pool's entry point: (workload, op) -> ("ok",
    output) or ("error", text)."""
    workload, op = task
    try:
        return "ok", LIBRARY_OPS[workload][1](op, tr)
    except Exception as exc:  # a failed operation is counted, not fatal
        return "error", f"{type(exc).__name__}: {exc}"


def same(a, b):
    """Structural equality with floats compared to REL_TOL (parsed values, not
    bytes; tuples and lists alike)."""
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return a == b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-300)
    return a == b
