"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they appear; every tolerance is pinned here, nothing is calibrated later.
"""

import itertools
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from siegelkit import cf as cf_module
from siegelkit import scan
from siegelkit.bounds import (
    DEFAULT_CONFIG,
    const_C,
    const_Cdoubleprime,
    const_Cprime,
)
from siegelkit.cf import (
    cf_of_exact,
    cf_of_quadratic_irrational,
    cf_of_rational,
    side_and_gap,
    special_sequence_main,
)
from siegelkit.germs import (
    FlowFamily,
    QuadraticFamily,
    RotationFamily,
    lift_of_germ,
)
from siegelkit.linearize import (
    EscapeParams,
    compose_check,
    escape_radius,
    hadamard_radius,
    linearization_coeffs,
    pole_cancellation_probe,
)
from siegelkit.renorm import (
    HParams,
    build_HJ,
    find_y0,
    h_of_lift,
    renormalized_rotation_number,
)
from siegelkit.scan import (
    ScanParams,
    check_construction_invariants,
    degenerate_probe,
    main_lemma_probe,
    smooth_disk_driver,
)
from siegelkit.surd import QuadraticIrrational, exact_cmp

from .oracles import (
    brute_force_linearization,
    const_Cprime_numeric,
    is_bounded_type,
    random_bounded_type_value,
    special_sequence_bound,
    translation_lift,
)

GOLDEN = QuadraticIrrational(1, 1, 2, 5)        # (1+sqrt5)/2
GOLDEN_FRAC = GOLDEN - 1                        # [0;(1)]
S2M1 = QuadraticIrrational(0, 1, 1, 2) - 1      # [0;(2)]
ROOT2_PLUS_1 = QuadraticIrrational(1, 1, 1, 2)  # [2;(2)], the documented default tail


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


# -- 1: CF exactness ----------------------------------------------------------


def test_criterion_01_cf_exactness_suite():
    t0 = time.time()
    rng = random.Random(101)
    checked = 0
    for _ in range(10_000):
        den = rng.randint(1, 10**40)
        num = rng.randint(-(10**40), 10**40)
        x = Fraction(num, den)
        num, den = x.numerator, x.denominator
        cf = cf_of_rational(x)
        quots = [cf.a0] + list(cf.partials)
        L = len(quots)
        # exact tails t_k = [a_k; a_{k+1}, ...] as raw integer pairs
        tails = [None] * L
        u, v = quots[-1], 1
        tails[-1] = (u, v)
        for i in range(L - 2, -1, -1):
            u, v = quots[i] * u + v, u
            tails[i] = (u, v)
        p_prev, q_prev = 1, 0
        p, q = quots[0], 1
        for n in range(L - 1):
            assert p_prev * q - p * q_prev == (-1) ** n
            tu, tv = tails[n + 1]
            assert (q * num - p * den) * (q * tu + q_prev * tv) == (-1) ** n * den * tv
            a_next = quots[n + 1]
            q_next = a_next * q + q_prev
            assert abs(q * num - p * den) * q_next <= den
            p, p_prev = a_next * p + p_prev, p
            q, q_prev = a_next * q + q_prev, q
        checked += 1
    rng2 = random.Random(202)
    surds = 0
    while surds < 1_000:
        x = QuadraticIrrational(rng2.randint(-20, 20), rng2.choice([-5, -2, 1, 3, 7]),
                                rng2.randint(1, 12), rng2.choice([2, 3, 5, 6, 7, 10, 11]))
        if isinstance(x, Fraction):
            continue
        cf = cf_of_quadratic_irrational(x)
        for n in range(1, 9):
            pn, qn = cf.convergent(n).p, cf.convergent(n).q
            pn1, qn1 = cf.convergent(n - 1).p, cf.convergent(n - 1).q
            assert pn1 * qn - pn * qn1 == (-1) ** n
            tail = -(qn1 * x - pn1) / (qn * x - pn)
            assert qn * x - pn == ((-1) ** n) / (qn * tail + qn1)
            gap = qn * x - pn
            if exact_cmp(gap, 0) < 0:
                gap = -gap
            assert exact_cmp(gap * cf.convergent(n + 1).q, 1) <= 0
        surds += 1
    dt = time.time() - t0
    verdict(1, checked == 10_000 and surds == 1_000 and dt < 30,
            f"{checked} rationals + {surds} surds, identities exact, {dt:.1f}s (< 30s)")


# -- 2: special-sequence suite --------------------------------------------------


def test_criterion_02_special_sequence_suite(monkeypatch):
    # the certificate brackets are refined to 1e-45
    monkeypatch.setattr(cf_module, "GAP_WIDTH", Fraction(1, 10**45))
    t0 = time.time()
    cf = cf_of_quadratic_irrational(GOLDEN_FRAC)

    def q(n):
        return cf.convergent(n).q

    # alpha_n = [a0; a1, ..., a_n, 1+a_{n+1}, tail] lies in alpha's depth-n
    # cylinder, an interval of length U_n; p_{n+2}/q_{n+2} lies strictly between
    # alpha and alpha_n, and alpha is farther than L_n from it.  Hence
    # L_n < |alpha_n - alpha| < U_n: the gap is pinned by the geometry, and the
    # 1e-30 certificate is asserted at the first depth where U_n < 1e-30.
    def upper(n):
        return Fraction(1, q(n) * (q(n) + q(n - 1)))

    def lower(n):
        return Fraction(1, q(n + 2) * (q(n + 2) + q(n + 3)))

    tol = Fraction(1, 10**30)
    n_cert = next(n for n in itertools.count(1) if upper(n) < tol)  # 72 here
    K = special_sequence_bound(cf, cf_of_quadratic_irrational(ROOT2_PLUS_1))
    alternation_ok = True
    bounded_ok = True
    prefix_ok = True
    bracket_ok = True
    brackets = {}
    # alternation over a range of depths; the uniform bound K there and at the
    # two certificate depths, which also get the exact CF prefix and the bracket
    for n in list(range(10)) + [40, n_cert]:
        a_n = special_sequence_main(cf, n)
        e = cf_of_exact(a_n)
        bounded_ok &= is_bounded_type(e, K)
        if n < 10:
            sign, _ = side_and_gap(GOLDEN_FRAC, a_n)
            alternation_ok &= (sign == (1 if n % 2 == 1 else -1))
            continue
        prefix_ok &= (all(e.quotient(i) == cf.quotient(i) for i in range(n + 1))
                      and e.quotient(n + 1) == 1 + cf.quotient(n + 1))
        _, (lo, hi) = side_and_gap(GOLDEN_FRAC, a_n)
        bracket_ok &= lower(n) < lo and hi < upper(n)
        brackets[n] = (lo, hi)
    lo40, hi40 = brackets[40]
    hi_cert = brackets[n_cert][1]
    gap_ok = hi_cert < tol
    dt = time.time() - t0
    detail = (f"alternation {alternation_ok}, bounded-type(K={K}) {bounded_ok}, "
              f"prefix {prefix_ok}, gap(depth 40) in [{float(lo40):.3e}, {float(hi40):.3e}] "
              f"inside (L_40, U_40) = ({float(lower(40)):.3e}, {float(upper(40)):.3e}) is {bracket_ok}, "
              f"gap(depth {n_cert}) = {float(hi_cert):.3e} < 1e-30 is {gap_ok}, "
              f"{dt:.1f}s (< 10s)")
    verdict(2, alternation_ok and bounded_ok and prefix_ok and bracket_ok and gap_ok
            and dt < 10, detail)


def test_criterion_02_supplement_convergence_depth(monkeypatch):
    # not an acceptance criterion: criterion 2 certifies 1e-30 at the first
    # depth with U_n < 1e-30 (72 for the golden mean); this pins the same
    # tolerance at depth 75 and the depth-40 certificate's order of magnitude
    # without going through the convergent bounds
    monkeypatch.setattr(cf_module, "GAP_WIDTH", Fraction(1, 10**45))
    cf = cf_of_quadratic_irrational(GOLDEN_FRAC)
    a75 = special_sequence_main(cf, 75)
    _, (lo, hi) = side_and_gap(GOLDEN_FRAC, a75)
    print(f"\n[criterion 02 supplement] gap(depth 75) = {float(hi):.3e} < 1e-30: "
          f"{hi < Fraction(1, 10**30)}")
    assert hi < Fraction(1, 10**30)
    a40 = special_sequence_main(cf, 40)
    _, (_, hi40) = side_and_gap(GOLDEN_FRAC, a40)
    assert hi40 < Fraction(1, 10**17)


# -- 3: linearization oracle equivalence ----------------------------------------


def test_criterion_03_linearization_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(33)
    nprng = np.random.default_rng(33)
    worst_rel = 0.0
    worst_resid = 0.0
    for _ in range(50):
        alpha = random_bounded_type_value(rng)
        deg = rng.randint(2, 5)
        coeffs = 0.7 * (nprng.normal(size=deg - 1) + 1j * nprng.normal(size=deg - 1))
        from siegelkit.germs import Germ
        g = Germ(alpha=alpha, coeffs=coeffs)
        N = 30
        lin = linearization_coeffs(g, N)
        bf = brute_force_linearization(g, N)
        for n in range(2, N + 1):
            rel = abs(lin.a[n] - bf[n]) / max(1e-300, abs(bf[n]))
            worst_rel = max(worst_rel, rel)
        resid = compose_check(g, lin)
        scale = max(1.0, float(np.max(np.abs(lin.a))))
        worst_resid = max(worst_resid, resid / scale)
    dt = time.time() - t0
    verdict(3, worst_rel < 1e-12 and worst_resid <= 1e-10 and dt < 60,
            f"50 germs: worst rel dev {worst_rel:.2e} (< 1e-12), "
            f"worst scaled residual {worst_resid:.2e} (<= 1e-10), {dt:.1f}s (< 60s)")


# -- 4: pole dichotomy -----------------------------------------------------------


def test_criterion_04_pole_dichotomy():
    t0 = time.time()
    quad = QuadraticFamily()
    ratio_ok = True
    a2_first = a2_last = None
    for j in range(1, 9):
        alpha = Fraction(1, 10 ** j)
        g = quad.at(alpha, 8)
        lin = linearization_coeffs(g, 2, allow_rational=True)
        rho = g.multiplier()
        closed = 1.0 / abs(rho ** 2 - rho)
        ratio = abs(lin.a[2]) / closed
        ratio_ok &= abs(ratio - 1.0) < 0.01
        if j == 1:
            a2_first = abs(lin.a[2])
        a2_last = abs(lin.a[2])
    grows = a2_last > 1e5 * a2_first
    fam = FlowFamily([0.0, 0.0, 1.0], restriction_radius=0.5)  # R_{1/3}-invariant
    rep = pole_cancellation_probe(fam, 1, 3, 4)
    p_abs = [r["P_abs"] for r in rep["rows"]]
    flow_ok = rep["verdict"] == "cancellation" and p_abs[-1] < 1e-3 * p_abs[0]
    dt = time.time() - t0
    verdict(4, ratio_ok and grows and flow_ok and dt < 60,
            f"|a_2| within 1% of closed form and -> inf; flow |P_4| "
            f"{p_abs[0]:.2e} -> {p_abs[-1]:.2e} (cancellation), {dt:.1f}s (< 60s)")


# -- 5: radius sanity --------------------------------------------------------------


def test_criterion_05_radius_sanity():
    t0 = time.time()
    rot_ok = True
    for alpha in (GOLDEN_FRAC, S2M1, Fraction(1, 3)):
        g = RotationFamily().at(alpha, 16)
        lin = linearization_coeffs(g, 32, allow_rational=True)
        est = escape_radius(g, lin, EscapeParams(max_iter=2000))
        rot_ok &= est.lower >= 0.999
    quad = QuadraticFamily()
    uppers = {}
    for pq in (Fraction(0), Fraction(1, 2), Fraction(1, 3)):
        g = quad.at(pq, 8)
        part = linearization_coeffs(g, 64, allow_rational=True, on_failure="truncate")
        est = escape_radius(g, part, EscapeParams(max_iter=100_000))
        uppers[pq] = est.upper
    parab_ok = all(u <= 1e-2 for u in uppers.values())
    g = quad.at(GOLDEN_FRAC, 8)
    lin = linearization_coeffs(g, 512)
    esc = escape_radius(g, lin, EscapeParams(max_iter=10_000))
    had = hadamard_radius(lin, 128)
    bracket_ok = (esc.upper - esc.lower) / esc.upper <= 0.1
    cross_ok = esc.lower <= had.upper + 0.02
    dt = time.time() - t0
    verdict(5, rot_ok and parab_ok and bracket_ok and cross_ok and dt < 300,
            f"rotation lower >= 0.999; parabolic uppers "
            f"{[float(f'{u:.2e}') for u in uppers.values()]} <= 1e-2; golden bracket "
            f"[{esc.lower:.4f},{esc.upper:.4f}] vs hadamard {had.upper:.4f}, "
            f"{dt:.1f}s (< 300s)")


# -- 6: r-h consistency --------------------------------------------------------------


def test_criterion_06_r_h_consistency():
    t0 = time.time()
    benchmarks = [
        ("rotation@golden", RotationFamily(), GOLDEN_FRAC),
        ("quadratic@golden", QuadraticFamily(), GOLDEN_FRAC),
        ("quadratic@sqrt2-1", QuadraticFamily(), S2M1),
        ("flow@golden", FlowFamily([1.0], 0.5), GOLDEN_FRAC),
        ("flow@sqrt2-1", FlowFamily([1.0], 0.5), S2M1),
    ]
    lines = []
    ok = True
    for name, fam, alpha in benchmarks:
        g = fam.at(alpha, 128)
        lin = linearization_coeffs(g, 256)
        r_est = escape_radius(g, lin, EscapeParams(max_iter=10_000)).lower
        h_est = h_of_lift(lift_of_germ(g, order=160), HParams(max_iter=10_000))
        floor = math.exp(-2 * math.pi * h_est)
        ok &= r_est >= floor - 1e-2
        lines.append(f"{name}: r={r_est:.3f} >= e^(-2 pi h)={floor:.3f} - 0.01")
    dt = time.time() - t0
    verdict(6, ok and dt < 300, "; ".join(lines) + f", {dt:.1f}s (< 300s)")


# -- 7: renormalized rotation number ---------------------------------------------------


def test_criterion_07_renormalization_rotation_number():
    t0 = time.time()
    trans_ok = True
    for alpha in (GOLDEN_FRAC, S2M1):
        F = translation_lift(alpha)
        for k in (1, 2, 3):
            s = build_HJ(F, k)
            find_y0(s)
            rep = renormalized_rotation_number(s, height=1.0, n_returns=1000)
            trans_ok &= rep.error < 1e-12
    g = QuadraticFamily().at(GOLDEN_FRAC, 8)
    F = lift_of_germ(g, order=128)
    quad_ok = True
    errs = []
    for k in (1, 2, 3):
        s = build_HJ(F, k)
        y0 = find_y0(s)
        rep = renormalized_rotation_number(s, height=y0 + 20 * abs(s.beta),
                                           n_returns=1000)
        errs.append(rep.error)
        quad_ok &= (rep.error < 1e-3 and rep.single_pass_violations == 0
                    and rep.budget_violations == 0 and rep.undefined_returns == 0)
    dt = time.time() - t0
    verdict(7, trans_ok and quad_ok and dt < 300,
            f"translation errors < 1e-12; golden-quadratic k=1..3 errors "
            f"{[f'{e:.1e}' for e in errs]} < 1e-3, zero violations, {dt:.1f}s (< 300s)")


# -- 8: main-lemma trend ------------------------------------------------------------


def test_criterion_08_main_lemma_trend():
    t0 = time.time()
    quad = QuadraticFamily()
    K = max(1.0, quad.lipschitz_bound())
    p = ScanParams(order=16, lin_order=96,
                   escape=EscapeParams(max_iter=3000, circle_samples=24,
                                       bisect_tol=2e-3))
    tails = []
    for pq in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5),
               Fraction(3, 8), Fraction(5, 13)):
        rep = main_lemma_probe(quad, pq, "short", 12, K, p=p)
        tails.append((pq.denominator, rep["tail_min"]))
    positive = all(t > 0 for _, t in tails)
    monotone = all(tails[i + 1][1] >= tails[i][1] - 0.05 for i in range(len(tails) - 1))
    dt = time.time() - t0
    verdict(8, positive and monotone and dt < 600,
            f"tail-min by q: {[(q, round(t, 4)) for q, t in tails]}, positive and "
            f"nondecreasing within 0.05, {dt:.1f}s (< 600s)")


# -- 9: degenerate-family sharpness ----------------------------------------------------


def test_criterion_09_degenerate_sharpness(monkeypatch):
    monkeypatch.setattr(scan, "TAIL_WINDOW", 3)
    t0 = time.time()
    fam = FlowFamily([1.0], restriction_radius=0.5)
    p = ScanParams(order=96, lin_order=128,
                   escape=EscapeParams(max_iter=2000, circle_samples=16,
                                       bisect_tol=2e-3))
    monkeypatch.setattr(scan, "DEFAULT_SCAN", p)
    rep = degenerate_probe(fam, [GOLDEN_FRAC, S2M1, QuadraticIrrational(0, 1, 3, 3)])
    spread_ok = rep["spread"] < 0.05
    r_flow = max(r["r_lower"] for r in rep["rows"])
    delta = (1.0 - r_flow) / 2
    K = max(1.0, fam.lipschitz_bound())
    ml = main_lemma_probe(fam, Fraction(1, 2), "short", 8, K, p=p)
    sharp_ok = ml["tail_min"] <= 1.0 - delta
    dt = time.time() - t0
    verdict(9, spread_ok and sharp_ok and delta > 0 and dt < 300,
            f"flow spread {rep['spread']:.4f} < 0.05; tail-min {ml['tail_min']:.4f} "
            f"<= 1 - {delta:.4f} (radius stays below 1), {dt:.1f}s (< 300s)")


# -- 10: constants ----------------------------------------------------------------------


def test_criterion_10_constants():
    t0 = time.time()
    agree = True
    for K in (1.0, 3.0, 30.0, 300.0):
        for q in (1, 7, 101):
            a = const_Cprime(K, q, DEFAULT_CONFIG)
            b = const_Cprime_numeric(K, q)
            agree &= abs(a - b) < 1e-10
    from siegelkit.bounds import _cprime_objective
    convex = True
    for q in (1, 4, 40):
        eps = [0.02 * j for j in range(1, 49)]
        vals = [_cprime_objective(e, 5.0, q, DEFAULT_CONFIG) for e in eps]
        convex &= all(vals[i - 1] - 2 * vals[i] + vals[i + 1] > 0
                      for i in range(1, len(vals) - 1))
    trends = True
    for fn in (const_C, const_Cprime, const_Cdoubleprime):
        vals = [fn(10.0, 2 ** j, DEFAULT_CONFIG) for j in range(1, 14)]
        trends &= vals[-1] < 1e-2 and all(vals[i + 1] < vals[i] + 1e-12
                                          for i in range(len(vals) - 1))
    dt = time.time() - t0
    verdict(10, agree and convex and trends and dt < 5,
            f"closed form vs golden-section < 1e-10 on 12-pt grid; convex; "
            f"C, C', C'' -> 0 along q = 2^j, {dt:.2f}s (< 5s)")


# -- 11: construction driver --------------------------------------------------------------


def test_criterion_11_construction_driver():
    t0 = time.time()
    quad = QuadraticFamily()
    states = smooth_disk_driver(quad, GOLDEN_FRAC, 0.5, stages=3)
    rho = states[0].rho_target
    check_construction_invariants(states, rho)
    ladders = all(all(g <= t for g, t in zip(st.deriv_gaps, st.thresholds))
                  for st in states)
    lengths = all((st.interval[1] - st.interval[0]) <= Fraction(1, 2 ** st.stage)
                  for st in states)
    ks = [st.k_chosen for st in states]
    dt = time.time() - t0
    verdict(11, len(states) == 3 and ks == [2, 5, 7] and ladders and lengths and dt < 900,
            f"3 stages, k = {ks}, ladder and exact "
            f"interval certificates all pass, {dt:.1f}s (< 900s)")


# -- 12: determinism ------------------------------------------------------------------------


def test_criterion_12_scan_determinism(tmp_path):
    t0 = time.time()
    payloads = []
    for workers, name in ((1, "w1.csv"), (8, "w8.csv")):
        path = tmp_path / name
        cmd = [sys.executable, "-m", "siegelkit.cli", "scan",
               "--family", "quadratic", "--grid", "farey:Q=64",
               "--format", "csv", "--workers", str(workers), "--out", str(path)]
        proc = subprocess.run(cmd, capture_output=True, encoding="utf-8", timeout=580)
        assert proc.returncode == 0, proc.stderr
        payloads.append(path.read_bytes())
    identical = payloads[0] == payloads[1]
    rows = payloads[0].count(b"\n") - 4  # 3 comment lines + header
    dt = time.time() - t0
    verdict(12, identical and rows > 1200 and dt < 600,
            f"Farey-64 scan ({rows} rows), workers 1 vs 8 byte-identical, "
            f"{dt:.1f}s (< 600s)")
