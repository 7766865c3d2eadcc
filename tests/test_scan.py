import math
import os
import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from siegelkit.cf import (cf_of_rational, farey_fractions, parse_cf,
                          special_sequence_main)
from siegelkit import linearize, scan
from siegelkit.errors import DomainError, FamilyUnsuitable, StageFailed, TargetAboveRadius
from siegelkit.germs import FlowFamily, GermFamily, QuadraticFamily, RotationFamily
from siegelkit.linearize import EscapeParams, linearization_coeffs
from siegelkit.scan import (
    ConstructionState,
    ScanParams,
    check_construction_invariants,
    condition_bdd_search,
    degenerate_probe,
    estimate_radii,
    main_lemma_probe,
    scan_r,
    smooth_disk_driver,
)
from siegelkit.surd import QuadraticIrrational, bracket, exact_cmp

from .oracles import expansion_below_by_comparison, mobius_radius, sequential_escape_radius

GOLDEN = QuadraticIrrational(-1, 1, 2, 5)
S2M1 = QuadraticIrrational(0, 1, 1, 2) - 1
S3 = QuadraticIrrational(-3, 1, 2, 13)      # [0;(3)]
BIGQ = QuadraticIrrational(-25, 1, 2, 629)  # [0;(25)], strongly different radius

CHEAP = ScanParams(order=16, lin_order=48, window=24,
                   escape=EscapeParams(max_iter=300, circle_samples=16,
                                       bisect_tol=4e-3))
MEDIUM = ScanParams(order=32, lin_order=96,
                    escape=EscapeParams(max_iter=2000, circle_samples=24,
                                        bisect_tol=2e-3))


def test_scan_rotation_all_near_one():
    rows = scan_r(RotationFamily(), farey_fractions(5), CHEAP)
    assert all(r.r_lower >= 1 - 1e-2 for r in rows)
    assert all(r.method == "escape" for r in rows)


def test_scan_row_ordering_and_methods():
    p = ScanParams(order=16, lin_order=48, window=24, estimators=("escape", "hadamard"),
                   escape=EscapeParams(max_iter=200, circle_samples=8, bisect_tol=1e-2))
    rows = scan_r(QuadraticFamily(), [GOLDEN, Fraction(1, 2)], p)
    assert [r.method for r in rows][:2] == ["escape", "hadamard"]
    assert rows[2].method == "escape"
    assert rows[3].method.startswith("hadamard:error:")  # no full series at 1/2
    assert rows[0].alpha_text == "(-1+1*sqrt(5))/2"
    assert abs(rows[0].alpha_float - float(GOLDEN)) < 1e-15


def _sequential_bracket(fam, alpha, p):
    """(lower, upper) of the one-at-a-time escape bisection of one parameter."""
    g = fam.at(alpha, p.order)
    phi = linearization_coeffs(g, p.lin_order, allow_rational=True, on_failure="truncate")
    return sequential_escape_radius(g, phi, p.escape)[:2]


@pytest.mark.parametrize("call", [
    lambda: ScanParams(order=0),
    lambda: ScanParams(lin_order=0),
    lambda: ScanParams(window=15),
    lambda: scan_r(RotationFamily(), [GOLDEN], CHEAP, workers=0),
    lambda: main_lemma_probe(RotationFamily(), Fraction(1, 2), "short", 0, 6.3, p=CHEAP),
    lambda: ScanParams(lin_order=48, window=64, estimators=("escape", "hadamard")),
    lambda: ScanParams(estimators=("foo",)),
    lambda: ScanParams(estimators=("escape", "escape")),
    lambda: ScanParams(estimators="escape"),
    lambda: degenerate_probe(RotationFamily(), []),
])
def test_sizes_below_their_least_value_are_rejected(call):
    with pytest.raises(DomainError):
        call()


def test_scan_rows_match_sequential_bisection():
    # the chunk bisects in lock step; each row must equal its parameter's
    # one-at-a-time bracket (rationals with partial charts, surds with full ones)
    grid = farey_fractions(7) + [GOLDEN, S2M1]
    fam = QuadraticFamily()
    rows = scan_r(fam, grid, CHEAP)
    assert [r.alpha_float for r in rows] == [float(a) for a in grid]
    for alpha, row in zip(grid, rows):
        assert (row.r_lower, row.r_upper, row.method) == (
            *_sequential_bracket(fam, alpha, CHEAP), "escape")


def test_scan_worker_determinism():
    # 7 parameters over 2 and 3 workers: uneven interleaved chunks, two rows
    # per parameter, merged back in input order
    grid = [Fraction(1, 2), GOLDEN, Fraction(1, 3), S2M1, Fraction(2, 5), BIGQ,
            Fraction(3, 4)]
    p = replace(CHEAP, estimators=("escape", "hadamard"))
    rows1 = scan_r(QuadraticFamily(), grid, p, workers=1)
    assert len(rows1) == 14
    for workers in (2, 3):
        assert scan_r(QuadraticFamily(), grid, p, workers=workers) == rows1
        _assert_no_child_left()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_GRID3 = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]


def _in_children_only(monkeypatch, name, act):
    """Patch ``scan.<name>`` so that a forked child runs ``act()`` first;
    the calling process keeps the real function."""
    parent, real = os.getpid(), getattr(scan, name)

    def patched(*args):
        if os.getpid() != parent:
            act()
        return real(*args)

    monkeypatch.setattr(scan, name, patched)


def _raise_lookup_error():
    raise LookupError("raised in a child")


def test_child_error_reaches_the_caller_with_its_type(monkeypatch):
    _in_children_only(monkeypatch, "escape_radii", _raise_lookup_error)
    with pytest.raises(LookupError, match="raised in a child"):
        scan_r(RotationFamily(), _GRID3, CHEAP, workers=3)
    _assert_no_child_left()


def test_child_that_ends_without_rows_makes_the_scan_raise(monkeypatch):
    _in_children_only(monkeypatch, "_scan_chunk", lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="exit status 3"):
        scan_r(RotationFamily(), _GRID3, CHEAP, workers=2)
    _assert_no_child_left()


def test_error_in_the_callers_chunk_kills_the_running_children(monkeypatch):
    parent, real = os.getpid(), scan._scan_chunk

    def chunk(*args):
        if os.getpid() != parent:
            time.sleep(60)
        raise LookupError("raised in the caller")

    monkeypatch.setattr(scan, "_scan_chunk", chunk)
    start = time.monotonic()
    with pytest.raises(LookupError, match="raised in the caller"):
        scan_r(RotationFamily(), _GRID3, CHEAP, workers=3)
    assert time.monotonic() - start < 30  # the sleeping children were killed
    _assert_no_child_left()


def test_workers_beyond_the_grid_fork_one_child_per_extra_chunk(monkeypatch):
    forks, real = [], os.fork

    def fork():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    rows = scan_r(RotationFamily(), _GRID3, CHEAP, workers=8)
    assert len(forks) == 2
    _assert_no_child_left()
    assert rows == scan_r(RotationFamily(), _GRID3, CHEAP)


def test_scan_without_fork_runs_every_chunk_in_the_caller(monkeypatch):
    rows1 = scan_r(RotationFamily(), _GRID3, CHEAP)
    monkeypatch.delattr(os, "fork")
    assert scan_r(RotationFamily(), _GRID3, CHEAP, workers=3) == rows1


def test_scan_never_aborts_on_row_failure():
    class ExplodingFamily(GermFamily):
        def __init__(self):
            super().__init__((), (), 1.0)  # the rotation

        def at(self, alpha, order):
            if alpha == Fraction(1, 2):
                raise TargetAboveRadius("boom")
            if alpha == Fraction(3, 4):
                raise FamilyUnsuitable("later boom")
            return super().at(alpha, order)

    rows = scan_r(ExplodingFamily(), [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)], CHEAP)
    assert len(rows) == 3
    assert rows[1].method == "escape:error:TargetAboveRadius"
    assert rows[0].r_lower > 0.9 and rows[2].r_lower > 0.9
    # outside a scan the first failing parameter's error raises
    with pytest.raises(TargetAboveRadius):
        estimate_radii(ExplodingFamily(), [Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)],
                       CHEAP)


def test_comb_interleaving_windows():
    # each refinement window around golden holds a near-zero row (a low-q
    # rational tooth gap) and a clearly positive row (bounded-type teeth)
    windows = [
        [Fraction(1, 2), GOLDEN],
        [Fraction(2, 3), GOLDEN, S2M1 + Fraction(1, 4)],
        [Fraction(3, 5), GOLDEN],
    ]
    p = ScanParams(order=16, lin_order=96,
                   escape=EscapeParams(max_iter=20_000, circle_samples=24,
                                       bisect_tol=2e-3))
    eps, delta = 0.12, 0.2
    for grid in windows:
        rows = scan_r(QuadraticFamily(), grid, p)
        assert any(r.r_upper < eps for r in rows)
        assert any(r.r_lower > delta for r in rows)


def test_monotone_escape_upper_in_max_iter():
    uppers = []
    for it in (200, 2000, 20000):
        p = ScanParams(order=16, lin_order=48,
                       escape=EscapeParams(max_iter=it, circle_samples=16,
                                           bisect_tol=2e-3))
        uppers.append(scan_r(QuadraticFamily(), [Fraction(1, 3)], p)[0].r_upper)
    assert uppers[0] >= uppers[1] >= uppers[2] - 1e-12


# -- condition_bdd_search ------------------------------------------------------


def test_cond_bdd_rotation_degenerate(monkeypatch):
    monkeypatch.setattr(scan, "DEFAULT_SCAN", CHEAP)
    rep = condition_bdd_search(RotationFamily(), GOLDEN, rho_frac=0.5, qmax=8, K_est=6.3)
    assert rep["verdict"] == "FamilyLooksDegenerate"


def _coarse_cut_search(monkeypatch, p):
    """condition_bdd_search at budgets ``p``, emitting two members; a caller
    coarsens the grid with a smaller qmax."""
    monkeypatch.setattr(scan, "DEFAULT_SCAN", p)
    monkeypatch.setattr(scan, "SEQ_INDICES", (0, 1))


def test_cond_bdd_quadratic_finds_cut(monkeypatch):
    _coarse_cut_search(monkeypatch, MEDIUM)
    rep = condition_bdd_search(QuadraticFamily(), GOLDEN, rho_frac=0.5, qmax=5, K_est=6.3)
    assert rep["verdict"] == "ok"
    assert rep["rho"] > 0
    assert rep["cut_r_lower"] >= rep["rho"]
    assert rep["left_neighbor_r_lower"] < rep["rho"]
    assert all(item["bounded_type"] for item in rep["sequence"])
    assert rep["cut_denominator"] == Fraction(rep["cut"]).denominator <= 8 * 5
    assert rep["band_endpoints"][0] < rep["band_endpoints"][1] == rep["rho"]


# the four alphas of the cut table (quadratic, qmax 8, rho_frac 0.5, K from the
# Lipschitz bound, DEFAULT_SCAN): the cut and its band
CUT_TABLE = [
    ("[0;(1)]", "38/63", (0.1075, 0.1509)),
    ("[0;(2)]", "25/62", (0.1070, 0.1509)),
    ("[0;(3)]", "17/59", (0.1038, 0.1484)),
    ("[0;1,1,1,7,(1)]", "37/59", (0.0973, 0.1392)),
]


@pytest.mark.parametrize("alpha,cut,band", CUT_TABLE, ids=[a for a, _, _ in CUT_TABLE])
def test_cond_bdd_cut_has_a_usable_denominator(alpha, cut, band):
    rep = condition_bdd_search(QuadraticFamily(), parse_cf(alpha).value(), 0.5, 8, None)
    assert rep["verdict"] == "ok" and rep["cut"] == cut
    lo, hi = rep["band_endpoints"]
    assert lo < hi and (lo, hi) == pytest.approx(band, abs=5e-5)
    assert rep["cut_denominator"] <= 64
    members = rep["sequence"]
    assert len({m["alpha_float"] for m in members}) == len(members) == 4
    # member n is [cut's expansion below it; n + 2, 2, 2, ...]
    top = max(scan._expansion_below(Fraction(cut)).partials)
    assert [m["bt_bound"] for m in members] == [max(top, m["n"] + 2) for m in members]


@pytest.mark.parametrize("alpha,qmax,rho_frac", [
    (GOLDEN, 3, 0.7),          # the cut is the seventh grid point
    (GOLDEN, 8, 0.95),         # the fourth
    (GOLDEN, 2, 0.7),          # no grid point passes
    (Fraction(2, 7), 4, 0.5),  # a rational alpha; the first point passes
], ids=["golden-q3", "golden-q8", "golden-q2-none", "2/7-q4"])
def test_cut_grid_is_walked_up_to_the_first_pass(alpha, qmax, rho_frac, monkeypatch):
    # the grid is the Farey fractions of order 8 qmax strictly inside (b, alpha),
    # ascending; the search estimates them one at a time, in that order, and
    # every point below the cut misses rho
    walked = []
    real = scan.estimate_radii

    def recorded(fam, alphas, p):
        ests = real(fam, alphas, p)
        walked.append((alphas, ests))
        return ests

    monkeypatch.setattr(scan, "estimate_radii", recorded)
    _coarse_cut_search(monkeypatch, CHEAP)
    rep = condition_bdd_search(QuadraticFamily(), alpha, rho_frac, qmax, 6.3)
    b, Q = Fraction(rep["b"]), 8 * qmax
    grid = scan._cut_grid(b, alpha, Q)
    assert grid == sorted(set(grid))
    assert all(b < x and exact_cmp(x, alpha) < 0 and x.denominator <= Q for x in grid)
    assert grid == [f for f in farey_fractions(Q) if b < f and exact_cmp(f, alpha) < 0]
    # the first call estimates alpha and b, and the last the members of a cut
    found = rep["verdict"] == "ok"
    points = [(x, est.lower) for xs, ests in walked[1:len(walked) - found]
              for x, est in zip(xs, ests) if len(xs) == 1]
    assert len(points) == len(walked) - 1 - found
    assert [x for x, _ in points] == grid[:len(points)]
    if found:
        assert points[-1] == (Fraction(rep["cut"]), rep["cut_r_lower"])
        assert points[-1][1] >= rep["rho"]
        below = points[:-1]
    else:
        assert rep["verdict"] == "NoRationalCut" and rep["cut"] is None
        assert rep["sequence"] == [] and len(points) == len(grid)
        below = points
    assert all(r < rep["rho"] for _, r in below)


class _RationalsAtOneHalf(GermFamily):
    """The quadratic family, but every rational parameter gets the germ at 1/2
    (a pole at n = 3), so no rational grid point reaches rho and the search
    ends without a cut."""

    def __init__(self):
        super().__init__((), (1.0,), 1.0)

    def at(self, alpha, order):
        return super().at(Fraction(1, 2) if isinstance(alpha, Fraction) else alpha, order)


def test_cond_bdd_linearizes_each_parameter_once(monkeypatch):
    # in test_cond_bdd_quadratic_finds_cut's setting the cut is a grid point;
    # with every rational at 1/2 no grid point passes
    calls = []
    real = scan.linearizations

    def counted(germs, *args, **kwargs):
        calls.extend(g.alpha for g in germs)
        return real(germs, *args, **kwargs)

    monkeypatch.setattr(scan, "linearizations", counted)
    _coarse_cut_search(monkeypatch, MEDIUM)
    for fam, verdict in ((QuadraticFamily(), "ok"), (_RationalsAtOneHalf(), "NoRationalCut")):
        calls.clear()
        rep = condition_bdd_search(fam, GOLDEN, rho_frac=0.5, qmax=5, K_est=6.3)
        assert rep["verdict"] == verdict
        # the second family's rationals all linearize at 1/2: count the rest
        counts = Counter(a for a in calls if not (verdict != "ok" and isinstance(a, Fraction)))
        assert GOLDEN in counts and set(counts.values()) == {1}


def test_cond_bdd_estimates_alpha_and_b_in_one_call(monkeypatch):
    calls = []
    real = scan.estimate_radii

    def counted(fam, alphas, p):
        calls.append(list(alphas))
        return real(fam, alphas, p)

    monkeypatch.setattr(scan, "estimate_radii", counted)
    _coarse_cut_search(monkeypatch, CHEAP)
    rep = condition_bdd_search(QuadraticFamily(), GOLDEN, rho_frac=0.5, qmax=5, K_est=6.3)
    assert rep["b"] == "3/5" and calls[0] == [GOLDEN, Fraction(3, 5)]


def _no_work(*args, **kwargs):
    raise AssertionError("work done before the input check")


@pytest.mark.parametrize("call", [
    lambda: smooth_disk_driver(QuadraticFamily(), GOLDEN, 0.5, stages=0),
    lambda: smooth_disk_driver(QuadraticFamily(), GOLDEN, 0.5, stages=-2),
    lambda: smooth_disk_driver(QuadraticFamily(), GOLDEN, 0.0, stages=1),
    lambda: smooth_disk_driver(QuadraticFamily(), GOLDEN, math.nan, stages=1),
    lambda: condition_bdd_search(QuadraticFamily(), GOLDEN, 1.0, 8, 6.3),
    lambda: condition_bdd_search(QuadraticFamily(), GOLDEN, 0.5, 0, 6.3),
    lambda: condition_bdd_search(QuadraticFamily(), GOLDEN, 0.5, 8, 0.5),
    lambda: condition_bdd_search(QuadraticFamily(), GOLDEN, 0.5, 8, math.nan),
    lambda: main_lemma_probe(QuadraticFamily(), Fraction(1, 3), "short", 2, 0.5, p=CHEAP),
    lambda: main_lemma_probe(QuadraticFamily(), Fraction(1, 3), "short", 2, math.inf, p=CHEAP),
    # without a K, before the Lipschitz bound too
    lambda: main_lemma_probe(QuadraticFamily(), Fraction(2, 5), "short", 0, None),
    lambda: condition_bdd_search(QuadraticFamily(), GOLDEN, 1.0, 8, None),
    lambda: condition_bdd_search(QuadraticFamily(), GOLDEN, 0.5, 0, None),
], ids=["stages-0", "stages-neg", "driver-rho-0", "driver-rho-nan", "search-rho-1",
        "search-qmax-0", "search-K-half", "search-K-nan", "probe-K-half", "probe-K-inf",
        "probe-N-0-no-K", "search-rho-1-no-K", "search-qmax-0-no-K"])
def test_bad_input_is_refused_before_any_linearization(call, monkeypatch):
    monkeypatch.setattr(scan, "linearizations", _no_work)
    monkeypatch.setattr(GermFamily, "lipschitz_bound", _no_work)
    with pytest.raises(DomainError):
        call()


def test_probes_without_K_take_the_familys_lipschitz_bound(monkeypatch):
    # the K that reaches C(K, q) and C'(K, q), read at their shared check
    seen = []

    def stop(K, q):
        seen.append(K)
        raise DomainError("stop")

    monkeypatch.setattr(scan, "_check_Kq", stop)
    monkeypatch.setattr(scan, "linearizations", _no_work)
    for fam in (QuadraticFamily(), FlowFamily([1.0], 0.5)):
        seen.clear()
        with pytest.raises(DomainError, match="stop"):
            main_lemma_probe(fam, Fraction(1, 3), "short", 2, None)
        with pytest.raises(DomainError, match="stop"):
            condition_bdd_search(fam, GOLDEN, 0.5, 8, None)
        with pytest.raises(DomainError, match="stop"):
            condition_bdd_search(fam, GOLDEN, 0.5, 8, 2.5)
        assert seen == [max(1.0, fam.lipschitz_bound())] * 2 + [2.5]


def test_the_expansion_below_a_rational_has_odd_length():
    # the parity rule against the exact comparison of member 0 with c, on
    # integers, halves and random rationals of both signs
    rng = random.Random(34)
    cases = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2)]
    cases += [Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6)) for _ in range(2000)]
    for c in cases:
        cf = scan._expansion_below(c)
        assert cf == expansion_below_by_comparison(c) and cf.value() == c


def test_cond_bdd_target_above_radius(monkeypatch):
    monkeypatch.setattr(scan, "DEFAULT_SCAN", CHEAP)
    with pytest.raises(TargetAboveRadius):
        condition_bdd_search(QuadraticFamily(), Fraction(1, 2), rho_frac=0.5, qmax=8,
                             K_est=6.3)


# -- main lemma probe ------------------------------------------------------------


def test_main_lemma_rotation_trivial(monkeypatch):
    monkeypatch.setattr(scan, "TAIL_WINDOW", 2)
    rep = main_lemma_probe(RotationFamily(), Fraction(1, 2), "short", 4, K_est=6.3, p=CHEAP)
    assert rep["tail_min"] >= 1 - 1e-2


def test_main_lemma_quadratic_small_vs_larger_q(monkeypatch):
    monkeypatch.setattr(scan, "TAIL_WINDOW", 3)
    rep2 = main_lemma_probe(QuadraticFamily(), Fraction(1, 2), "short", 6, K_est=6.3, p=MEDIUM)
    rep5 = main_lemma_probe(QuadraticFamily(), Fraction(2, 5), "short", 6, K_est=6.3, p=MEDIUM)
    assert rep2["tail_min"] > 0 and rep5["tail_min"] > 0
    assert rep5["tail_min"] >= rep2["tail_min"] - 0.05
    assert rep2["bound_C"] < rep5["bound_C"]  # exp(-C(K,q)) grows with q
    assert rep2["weak_h_bound"] > 0


def test_main_lemma_probe_linearizes_in_one_pass(monkeypatch):
    # the 4 members share one pass of the recursion
    passes = []
    real = linearize._recursion

    def counted(germs, *args):
        passes.append(len(germs))
        return real(germs, *args)

    monkeypatch.setattr(linearize, "_recursion", counted)
    main_lemma_probe(QuadraticFamily(), Fraction(2, 5), "short", 4, K_est=6.3, p=CHEAP)
    assert passes == [4]


def test_probes_match_sequential_bisection(monkeypatch):
    # each probe bisects its members in one lock-step batch; every value must
    # equal the member's one-at-a-time bracket
    fam = QuadraticFamily()
    rep = main_lemma_probe(fam, Fraction(2, 5), "short", 4, K_est=6.3, p=CHEAP)
    cf = cf_of_rational(Fraction(2, 5), "short")
    assert [(v["r_lower"], v["r_upper"]) for v in rep["values"]] == [
        _sequential_bracket(fam, special_sequence_main(cf, n), CHEAP) for n in range(1, 5)]
    ts = [GOLDEN, S2M1, BIGQ, GOLDEN]
    monkeypatch.setattr(scan, "DEFAULT_SCAN", CHEAP)
    rows = degenerate_probe(fam, ts)["rows"]
    assert [(r["r_lower"], r["r_upper"]) for r in rows] == [
        _sequential_bracket(fam, t, CHEAP) for t in ts]


# -- degenerate probe -------------------------------------------------------------


def test_degenerate_probe_flow_flat(monkeypatch):
    fam = FlowFamily([1.0], restriction_radius=0.5)
    monkeypatch.setattr(scan, "DEFAULT_SCAN", ScanParams(
        order=96, lin_order=96,
        escape=EscapeParams(max_iter=1500, circle_samples=16, bisect_tol=2e-3)))
    rep = degenerate_probe(fam, [GOLDEN, S2M1, QuadraticIrrational(0, 1, 3, 3)])
    assert rep["degenerate_flag"]
    assert rep["spread"] < 0.05


@pytest.mark.parametrize("c_prime", [0.5, 1.0, 2.0])
def test_flow_brackets_contain_the_mobius_radius(c_prime):
    p = ScanParams(escape=EscapeParams(max_iter=1000))
    alphas = [GOLDEN, S2M1, S3, parse_cf("[0;5,(1)]").value(), parse_cf("[0;20,(1)]").value()]
    ests = estimate_radii(FlowFamily([c_prime], 1.0), alphas, p)
    r_star = mobius_radius(c_prime)
    assert all(e.lower <= r_star <= e.upper for e in ests)


def test_degenerate_probe_flow_at_order_256(monkeypatch):
    # a flow is degenerate whatever c' is: its disk has radius r* at every t
    monkeypatch.setattr(scan, "DEFAULT_SCAN",
                        ScanParams(order=256, escape=EscapeParams(max_iter=300)))
    rep = degenerate_probe(FlowFamily([3.0], 1.0), [GOLDEN, S2M1, S3])
    assert rep["degenerate_flag"] and rep["spread"] == 0.0
    r_star = mobius_radius(3.0)
    assert all(r["r_lower"] <= r_star <= r["r_upper"] for r in rep["rows"])


def test_degenerate_probe_rotation_zero_spread(monkeypatch):
    monkeypatch.setattr(scan, "DEFAULT_SCAN", CHEAP)
    rep = degenerate_probe(RotationFamily(), [GOLDEN, S2M1])
    assert rep["spread"] <= 1e-9


def test_degenerate_probe_quadratic_spreads(monkeypatch):
    monkeypatch.setattr(scan, "DEFAULT_SCAN", MEDIUM)
    rep = degenerate_probe(QuadraticFamily(), [GOLDEN, S2M1, BIGQ])
    assert not rep["degenerate_flag"]
    assert rep["spread"] > 0.2


# -- construction driver -----------------------------------------------------------


def test_driver_two_stages_with_certificates(monkeypatch):
    monkeypatch.setattr(scan, "DRIVER_SCAN", ScanParams(
        order=32, lin_order=192,
        escape=EscapeParams(max_iter=4000, circle_samples=24, bisect_tol=1e-3)))
    states = smooth_disk_driver(QuadraticFamily(), GOLDEN, 0.5, stages=2)
    assert len(states) == 2
    rho = states[0].rho_target
    check_construction_invariants(states, rho)
    # exact certificates, re-derived here
    s1, s2 = states
    assert s2.interval[0] > s1.interval[0] and s2.interval[1] < s1.interval[1]
    assert (s1.interval[1] - s1.interval[0]) <= Fraction(1, 2)
    assert (s2.interval[1] - s2.interval[0]) <= Fraction(1, 4)
    assert exact_cmp(s1.interval[0], s1.theta) < 0 < exact_cmp(s1.interval[1], s1.theta)
    assert s1.rho_sched > s2.rho_sched > rho


def test_driver_rotation_unsuitable(monkeypatch):
    monkeypatch.setattr(scan, "DRIVER_SCAN", CHEAP)
    with pytest.raises(FamilyUnsuitable):
        smooth_disk_driver(RotationFamily(), GOLDEN, 0.5, stages=1)


def test_driver_target_above_radius(monkeypatch):
    # at 1/2 the quadratic germ has a pole, so no radius is valid and no
    # target lies below the estimate
    monkeypatch.setattr(scan, "DRIVER_SCAN", CHEAP)
    with pytest.raises(TargetAboveRadius):
        smooth_disk_driver(QuadraticFamily(), Fraction(1, 2), 0.5, stages=1)


@pytest.mark.parametrize("rho_frac", [0.0, -0.5, 1.0, 2.0, math.nan])
def test_rho_frac_outside_the_unit_interval_is_a_domain_error(rho_frac):
    with pytest.raises(DomainError):
        smooth_disk_driver(QuadraticFamily(), GOLDEN, rho_frac, stages=1)
    with pytest.raises(DomainError):
        condition_bdd_search(QuadraticFamily(), GOLDEN, rho_frac, 8, 6.3)


def test_driver_refuses_a_partial_series_at_theta0(monkeypatch):
    # 13/34 has a pole at n = 35 < lin_order, but a radius below which the
    # partial series passes the residual test
    monkeypatch.setattr(scan, "DRIVER_SCAN", CHEAP)
    with pytest.raises(StageFailed, match="no full linearization series at theta0"):
        smooth_disk_driver(QuadraticFamily(), Fraction(13, 34), 0.5, stages=1)


def _from_second_call(monkeypatch, name, change):
    """Patch scan.<name> so that each call after the first returns
    ``change(result)``."""
    real, calls = getattr(scan, name), []

    def patched(*args):
        calls.append(args)
        out = real(*args)
        return out if len(calls) == 1 else change(out)

    monkeypatch.setattr(scan, name, patched)


@pytest.mark.parametrize("name, change, reason", [
    ("_linearize", lambda phis: [replace(phi, stop=StageFailed("cut")) for phi in phis],
     "no full series"),
    ("escape_radius", lambda est: replace(est, lower=0.0), "at or below target"),
], ids=["partial-series", "radius-below-target"])
def test_driver_candidates_refused_for_each_reason(monkeypatch, name, change, reason):
    # theta0's own series and estimate are the first calls and stay as they are
    monkeypatch.setattr(scan, "DRIVER_SCAN", CHEAP)
    _from_second_call(monkeypatch, name, change)
    with pytest.raises(StageFailed, match=f"k=2: [^;]*{reason}") as exc:
        smooth_disk_driver(QuadraticFamily(), GOLDEN, 0.1, stages=1)
    assert str(exc.value).count(reason) == 11  # k = 2..12


def test_driver_candidates_outside_the_parent_interval_are_refused(monkeypatch):
    # a stage-1 interval far narrower than any candidate's distance from
    # theta_1 leaves every stage-2 candidate outside it
    monkeypatch.setattr(scan, "DRIVER_SCAN", CHEAP)
    monkeypatch.setattr(scan, "_interval_around",
                        lambda theta, stage, parent: bracket(theta, 400))
    with pytest.raises(StageFailed, match="stage 2: k=2: outside parent interval") as exc:
        smooth_disk_driver(QuadraticFamily(), GOLDEN, 0.1, stages=2)
    assert str(exc.value).count("outside parent interval") == 11


def test_driver_ladder_rejects_nan_gaps(monkeypatch):
    monkeypatch.setattr(scan, "_deriv_gaps", lambda *args: [math.nan, math.nan])
    monkeypatch.setattr(scan, "DRIVER_SCAN", CHEAP)
    with pytest.raises(StageFailed, match="ladder failed"):
        smooth_disk_driver(QuadraticFamily(), GOLDEN, 0.1, stages=1)


def test_invariant_checker_catches_violations(monkeypatch):
    monkeypatch.setattr(scan, "DRIVER_SCAN", ScanParams(
        order=32, lin_order=192,
        escape=EscapeParams(max_iter=2000, circle_samples=16, bisect_tol=2e-3)))
    states = smooth_disk_driver(QuadraticFamily(), GOLDEN, 0.5, stages=1)
    bad = states[0]
    rho = bad.rho_target
    bad.deriv_gaps = [g + 1.0 for g in bad.deriv_gaps]
    with pytest.raises(AssertionError):
        check_construction_invariants([bad], rho)
    bad.deriv_gaps = [math.nan] * len(bad.deriv_gaps)
    with pytest.raises(AssertionError):
        check_construction_invariants([bad], rho)


def _certified(stage, interval, rho_sched):
    """A stage around the golden mean that passes every check at target 0.25."""
    return ConstructionState(stage=stage, theta=GOLDEN, rho=0.5, rho_sched=rho_sched,
                             rho_target=0.25, interval=interval,
                             deriv_gaps=[0.0] * (stage + 1),
                             thresholds=[2.0 ** -(stage + j) for j in range(stage + 1)],
                             k_chosen=2)


@pytest.mark.parametrize("fault", ["measured rho at or below target",
                                   "schedule not strictly decreasing"])
def test_invariant_checker_refuses_a_broken_radius(fault):
    parent = _certified(1, (Fraction(9, 20), Fraction(7, 10)), 0.4)
    child = _certified(2, (Fraction(3, 5), Fraction(13, 20)), 0.3)
    broken = {"measured rho at or below target": replace(child, rho=0.25),
              "schedule not strictly decreasing": replace(child, rho_sched=0.4)}[fault]
    with pytest.raises(AssertionError, match=f"stage 2: {fault}"):
        check_construction_invariants([parent, broken], 0.25)


@pytest.mark.parametrize("fault", ["interval too long", "theta outside interval",
                                   "not nested", "closure meets"])
def test_invariant_checker_refuses_a_broken_interval(fault):
    parent = _certified(1, (Fraction(9, 20), Fraction(7, 10)), 0.4)
    child = _certified(2, (Fraction(3, 5), Fraction(13, 20)), 0.3)
    check_construction_invariants([parent, child], 0.25)
    lo, hi = child.interval
    broken = {"interval too long": replace(child, interval=(lo - Fraction(1, 4), hi)),
              "theta outside interval": replace(child, theta=hi),
              "not nested": replace(child, interval=parent.interval),
              "closure meets": replace(child, interval=(Fraction(1, 2), hi))}[fault]
    with pytest.raises(AssertionError, match=f"stage 2: {fault}"):
        check_construction_invariants([parent, broken], 0.25)
