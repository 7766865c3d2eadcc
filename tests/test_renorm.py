import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siegelkit import renorm
from siegelkit.cf import cf_of_exact, parse_cf
from siegelkit.errors import (
    BudgetExceeded,
    ConditionsNeverMet,
    DomainError,
    InsufficientDepth,
    NoAdmissibleHeight,
    UndefinedReturn,
)
from siegelkit.germs import FlowFamily, LiftMap, QuadraticFamily, lift_of_germ
from siegelkit.renorm import (
    HParams,
    RenormSetup,
    _heights_admissible,
    _lands_again,
    build_HJ,
    find_y0,
    h_of_lift,
    renormalized_rotation_number,
    return_map,
)
from siegelkit.linearize import _orbits_stay
from siegelkit.surd import QuadraticIrrational, exact_sign, to_float

from .oracles import (
    in_fundamental_domain_exact,
    lands_again_exact,
    map_with_derivative,
    mobius_height,
    sampled_conditions_hold,
    sequential_h_bisection,
    sequential_h_of_lift,
    translation_lift,
)

GOLDEN = QuadraticIrrational(-1, 1, 2, 5)
S2M1 = QuadraticIrrational(0, 1, 1, 2) - 1


def golden_quadratic_lift(order=128):
    return lift_of_germ(QuadraticFamily().at(GOLDEN, 8), order=order)


def return_and_second_pass(s, Z):
    """The return trace of Z, and whether one of the 4 hops past its landing
    lands in the strip again."""
    sample, trace = return_map(s, Z)
    return trace, _lands_again(s, sample.RZ, 4)


# -- lift orbits / h_of_lift ----------------------------------------------------


def test_translation_never_escapes():
    # every orbit point keeps its height: the kernel's inside test is the level
    F = translation_lift(GOLDEN)
    Z = np.array([[0.3 + 0.5j, 0.9 + 0.5j]])
    assert _orbits_stay(lambda Z, _: F.eval_vec(Z - np.floor(Z.real)), Z, 500,
                        inside=lambda Z: np.abs(Z.imag - 0.5) < 1e-12)[0]
    assert _heights_admissible(F, [0.5], HParams(max_iter=500)) == [True]


def test_displacement_bounded_by_h_norm():
    F = golden_quadratic_lift()
    bound = float(np.sum(np.abs(F.h_coeffs) *
                         np.exp(-2 * math.pi * np.arange(1, len(F.h_coeffs) + 1) * 1.5)))
    for re in (0.0, 0.3, 0.7):
        Z = complex(re, 1.5)
        assert abs(F(Z) - Z - F.alpha) <= bound * 1.0001


def test_parabolic_lift_escapes_low(monkeypatch):
    monkeypatch.setattr(renorm, "RE_SAMPLES", 8)
    g = QuadraticFamily().at(Fraction(1, 2), 8)
    F = lift_of_germ(g, order=128)
    assert _heights_admissible(F, [0.02], HParams(max_iter=10_000)) == [False]


def test_h_of_translation_zero():
    assert h_of_lift(translation_lift(GOLDEN)) == 0.0


@pytest.mark.parametrize("bad", [
    {"max_iter": math.nan}, {"max_iter": math.inf}, {"max_iter": -math.inf},
    {"max_iter": -1}, {"max_iter": 0}, {"max_iter": -5},
    {"max_iter": 2.5}, {"max_iter": True}, {"max_iter": 100.0},
])
def test_hparams_reject_bad_values(bad):
    with pytest.raises(DomainError):
        HParams(**bad)


def test_hparams_take_numpy_integers():
    assert HParams(max_iter=np.int64(7)).max_iter == 7


def test_h_of_lift_nan_coefficient_has_no_admissible_height():
    F = LiftMap(alpha=to_float(GOLDEN), h_coeffs=np.array([0.1, math.nan]))
    with pytest.raises(NoAdmissibleHeight):
        h_of_lift(F, HParams(max_iter=50))


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@pytest.mark.parametrize("make_lift", [
    golden_quadratic_lift,
    lambda: lift_of_germ(FlowFamily([1.0], 0.5).at(GOLDEN, 24), order=64),
    lambda: lift_of_germ(QuadraticFamily().at(Fraction(1, 2), 8), order=128),
    lambda: LiftMap(alpha=to_float(GOLDEN), h_coeffs=np.array([0.1, math.nan])),
], ids=["golden-quadratic", "golden-flow", "parabolic-1/2", "nan-coefficient"])
def test_h_of_lift_matches_sequential_bisection(make_lift):
    F = make_lift()
    params = HParams(max_iter=200)
    assert _outcome(lambda: h_of_lift(F, params)) == \
        _outcome(lambda: sequential_h_of_lift(F, params))


_KERNEL_PARAMS = HParams(max_iter=200)
_KERNEL_HEIGHTS = (0.0125, 0.02, 0.03, 0.06, 0.1, 0.2, 0.22, 0.25, 0.27, 0.3, 0.8)


def _kernel_pool():
    """Golden quadratic, flow and parabolic lifts with each pool height's
    verdict tested alone."""
    lifts = [golden_quadratic_lift(),
             lift_of_germ(FlowFamily([1.0], 0.5).at(GOLDEN, 24), order=64),
             lift_of_germ(QuadraticFamily().at(Fraction(1, 2), 8), order=128)]
    return [(F, [_heights_admissible(F, [h], _KERNEL_PARAMS)[0] for h in _KERNEL_HEIGHTS])
            for F in lifts]


_KERNEL_POOL = _kernel_pool()


def test_kernel_pool_mixes_verdicts():
    assert all(set(alone) == {True, False} for _, alone in _KERNEL_POOL)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, len(_KERNEL_POOL) - 1),
       st.lists(st.integers(0, len(_KERNEL_HEIGHTS) - 1), min_size=1, max_size=8))
def test_heights_admissible_batch_independent(lift, picks):
    # random subsets, orders and duplicates: each verdict is its height's own
    F, alone = _KERNEL_POOL[lift]
    assert _heights_admissible(F, [_KERNEL_HEIGHTS[i] for i in picks], _KERNEL_PARAMS) == \
        [alone[i] for i in picks]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, len(_KERNEL_POOL) - 1), st.integers(1, 300), st.integers(1, 300))
def test_h_monotone_in_budget_pairs(lift, a, b):
    # a height admissible at the larger budget is admissible at the smaller
    # one, so the larger budget's h is at least the smaller's (no admissible
    # height at all reads as inf)
    F = _KERNEL_POOL[lift][0]
    h_small, h_big = (_outcome(lambda: h_of_lift(F, HParams(max_iter=it)))
                      for it in sorted((a, b)))
    assert (math.inf if isinstance(h_small, tuple) else h_small) <= \
        (math.inf if isinstance(h_big, tuple) else h_big)


# Verdict tables that are not monotone in height.  Doubling tests 0.05, 0.1,
# 0.2 (all inadmissible, each with the descent below it) and 0.4; the
# sequential bisection then asks 0.2 again.
#  - "island": the descent below 0.3 holds admissible 0.225 and 0.2125 under
#    the inadmissible 0.25, off the bisection's path, so h = 0.3 is not the
#    smallest admissible height tested;
#  - "long-chain": 0.3 down to 0.20625 admissible (0.26 to 0.3 is not), so
#    0.4 and its whole descent share one call.
_TABLES = {
    "island": lambda h: h >= 0.3 or 0.21 < h < 0.24,
    "long-chain": lambda h: h >= 0.3 or 0.205 < h < 0.26,
}


@pytest.mark.parametrize("name", sorted(_TABLES))
def test_h_of_lift_chain_follows_sequential_path(monkeypatch, name):
    table = _TABLES[name]
    asked = []
    sequential = sequential_h_bisection(lambda h: asked.append(h) or table(h))
    calls = []

    def kernel(F, hs, p):
        calls.append(list(hs))
        return [table(h) for h in hs]

    monkeypatch.setattr(renorm, "_heights_admissible", kernel)
    h = h_of_lift(golden_quadratic_lift(order=16), HParams())
    assert h == sequential
    assert len(calls) < len(asked)
    if name == "long-chain":
        # the last call: 0.4 and every later height asked but the known 0.2
        assert calls[3:] == [[x for x in asked[3:] if x != asked[2]]]
    tested = [x for hs in calls for x in hs]
    assert len(set(tested)) == len(tested)  # no height is tested twice
    # the contract: h is admissible, and a height at most IM_BISECT below it
    # was found inadmissible, or h <= IM_BISECT
    tol = renorm.IM_BISECT
    assert table(h)
    assert h <= tol or any(not table(x) for x in asked if 0 < h - x <= tol)


def test_h_golden_quadratic_stable():
    F = golden_quadratic_lift()
    h1 = h_of_lift(F, HParams(max_iter=10_000))
    h2 = h_of_lift(F, HParams(max_iter=40_000))
    assert math.isfinite(h1) and h1 > 0
    assert abs(h1 - h2) <= 0.05


def test_h_estimates_shrink_with_budget():
    # escape can only be detected, never undone: fewer iterations, lower h
    F = golden_quadratic_lift()
    h_small = h_of_lift(F, HParams(max_iter=300))
    h_big = h_of_lift(F, HParams(max_iter=20_000))
    assert h_small <= h_big + 1e-12


_BOUNDED_TYPE = ["[0;(1)]", "[0;(2)]", "[0;(3)]", "[0;5,(1)]", "[0;20,(1)]"]


@pytest.mark.parametrize("c_prime", [0.5, 1.0, 2.0])
def test_h_of_the_mobius_flow_lift_is_pinned(c_prime):
    # a flow's admissible height is h* at every t; the bisection stops at
    # most IM_BISECT above it
    h_star = mobius_height(c_prime)
    for text in _BOUNDED_TYPE:
        germ = FlowFamily([c_prime / 0.5], 0.5).at(parse_cf(text).value(), 128)
        h = h_of_lift(lift_of_germ(germ, order=160), HParams(max_iter=1000))
        assert h_star <= h <= h_star + renorm.IM_BISECT, text


def test_r_h_consistency_single():
    from siegelkit.linearize import EscapeParams, escape_radius, linearization_coeffs
    g = QuadraticFamily().at(GOLDEN, 8)
    lin = linearization_coeffs(g, 256)
    r_est = escape_radius(g, lin, EscapeParams(max_iter=4000)).lower
    h_est = h_of_lift(golden_quadratic_lift(), HParams(max_iter=4000))
    assert r_est >= math.exp(-2 * math.pi * h_est) - 1e-2


# -- build_HJ -------------------------------------------------------------------


def test_translation_setup_exact():
    F = translation_lift(GOLDEN)
    for k in (0, 1, 2, 3):
        s = build_HJ(F, k)
        Z = 0.1 + 0.8j
        assert abs(s.H(Z) - Z - s.beta) < 1e-12
        assert abs(s.J(Z) - Z - s.beta_prime) < 1e-12
        beta_direct = s.q_k * to_float(GOLDEN) - s.p_k
        assert abs(s.beta - beta_direct) < 1e-12


def test_order_one_renormalization_shape():
    # k = 0: J = T^{-1}, H = T^{-a0} o F
    F = translation_lift(GOLDEN)  # a0 = 0
    s = build_HJ(F, 0)
    assert s.p_prev == 1 and s.q_prev == 0 and s.q_k == 1
    Z = 0.4 + 1.1j
    assert abs(s.J(Z) - (Z - 1)) < 1e-15
    assert abs(s.H(Z) - F(Z)) < 1e-15


def test_beta_signs_alternate():
    F = translation_lift(GOLDEN)
    for k in (1, 2, 3, 4):
        s = build_HJ(F, k)
        assert s.beta * s.beta_prime < 0
        assert (s.beta > 0) == (k % 2 == 0)


def test_beta_bracket_identity():
    # 1/2 <= q_{k+1} |beta| <= 1, checked exactly
    from siegelkit.surd import exact_cmp
    cf = cf_of_exact(GOLDEN)
    F = translation_lift(GOLDEN)
    for k in (0, 1, 2, 5):
        s = build_HJ(F, k)
        q_next = cf.convergent(k + 1).q
        gap = s.beta_exact if exact_sign(s.beta_exact) > 0 else -s.beta_exact
        val = q_next * gap
        assert exact_cmp(val, Fraction(1, 2)) >= 0
        assert exact_cmp(val, 1) <= 0


def test_insufficient_depth_guards():
    F = translation_lift(Fraction(2, 5))  # [0;2,2]: two quotients
    with pytest.raises(InsufficientDepth):
        build_HJ(F, 2)
    with pytest.raises(InsufficientDepth):
        build_HJ(F, 2 - 1 + 1)
    s = build_HJ(F, 1)
    assert s.q_k == 2
    with pytest.raises(InsufficientDepth):
        build_HJ(LiftMap(alpha=0.5, h_coeffs=np.zeros(0)), 1)  # no exact handle


def test_beta_zero_guard():
    F = translation_lift(Fraction(2, 5))
    # k = 2 would have alpha equal to its own convergent; depth guard fires first
    with pytest.raises(InsufficientDepth):
        build_HJ(F, 2)


# surds with small terms: the period of the expansion grows with sqrt(b^2 d c^2)
_ALPHAS = st.fractions(max_denominator=10 ** 6) | st.builds(
    QuadraticIrrational, st.integers(-100, 100), st.integers(1, 5) | st.integers(-5, -1),
    st.integers(1, 100) | st.integers(-100, -1), st.integers(2, 50))


@settings(max_examples=150, deadline=None)
@given(_ALPHAS)
def test_every_accepted_depth_has_alternating_convergent_errors(alpha):
    # the fact build_HJ relies on instead of checking: for every k the depth
    # check accepts, beta != 0 and beta, beta' have opposite signs (at k = 0,
    # beta' = -1 and beta = frac(alpha) > 0)
    cf = cf_of_exact(alpha)
    depth = len(cf.partials) if cf.is_finite else 12
    F = translation_lift(alpha)
    for k in range(depth):
        s = build_HJ(F, k)
        assert exact_sign(s.beta_exact) * exact_sign(s.beta_prime_exact) < 0
    if cf.is_finite:
        with pytest.raises(InsufficientDepth):
            build_HJ(F, depth)


# -- find_y0 --------------------------------------------------------------------


def test_find_y0_translation_zero():
    F = translation_lift(GOLDEN)
    s = build_HJ(F, 1)
    assert find_y0(s) == 0.0


def test_find_y0_passes_over_heights_where_the_pair_overflows():
    # at height 0.01 one step of h = 1000 w sends Im to about -900, and the
    # next step's exponential overflows: those heights fail, higher ones hold
    s = build_HJ(LiftMap(alpha=to_float(GOLDEN), h_coeffs=[1000.0], alpha_exact=GOLDEN), 2)
    with pytest.raises(OverflowError):
        for x in np.arange(8) / 8:
            s.H(complex(x, 0.01))
    assert 1.0 < find_y0(s) < renorm.HEIGHT_CEILING


def test_find_y0_rejects_nan_lift():
    # abs(nan) > tol is False, so only "not <= tol" refuses a NaN lift
    F = LiftMap(alpha=to_float(GOLDEN), h_coeffs=[math.nan], alpha_exact=GOLDEN)
    with pytest.raises(ConditionsNeverMet):
        find_y0(build_HJ(F, 2))


def test_find_y0_golden_quadratic_and_recheck():
    F = golden_quadratic_lift()
    s = build_HJ(F, 3)
    y0 = find_y0(s)
    assert 0 < y0 < 3
    # re-verification on a finer grid, from y0 itself
    assert sampled_conditions_hold(s, y0, res=np.linspace(0, 1, 16, endpoint=False),
                                   dys=(0.0, 0.005, 0.11, 0.45))


def test_jump_condition_uses_hop_beta_on_the_right():
    # craft a lift whose jump error sits between |beta|/10 and |beta'|/10:
    # conditions must fail (the right-hand side uses the hop's beta)
    F = golden_quadratic_lift()
    s = build_HJ(F, 3)  # |beta| = 0.1459, |beta'| = 0.2361
    y0 = find_y0(s)
    tol_beta = abs(s.beta) / 10
    tol_beta_prime = abs(s.beta_prime) / 10
    assert tol_beta < tol_beta_prime
    probe = complex(0.2, y0 + 0.01)
    jz, _ = map_with_derivative(s, probe, jump=True)
    assert abs(jz - probe - s.beta_prime) <= tol_beta  # the strict form held


@pytest.mark.parametrize("fam, order, expected", [
    (QuadraticFamily(), 8, [0.394, 0.394, 0.518, 0.593]),
    (FlowFamily([1.0], 0.5), 24, [0.088, 0.088, 0.200, 0.262]),
])
def test_find_y0_golden_values(fam, order, expected):
    # lift order 64 at the golden mean, k = 0..3; a sampled search read
    # 0.394 at every k for the quadratic, below what the bound certifies at k >= 2
    F = lift_of_germ(fam.at(GOLDEN, order), order=64)
    assert [round(find_y0(build_HJ(F, k)), 3) for k in range(4)] == expected


def test_orbit_bound_holds_where_the_orbit_nearly_attains_it():
    # h(w) = -i w^13 at alpha = (3 - sqrt 5)/2, where 13 alpha is within
    # 0.034 of an integer: from Z = i y the first step drops Im by the full
    # majorant A(y) and the second, at 12 degrees, nearly attains
    # A(y - A(y)); so at k = 1 (two steps a hop) the chain bound is nearly
    # attained, and a bound without the chain's descent is not a bound
    alpha = QuadraticIrrational(3, -1, 2, 5)
    s = build_HJ(LiftMap(alpha=to_float(alpha), h_coeffs=[0.0] * 12 + [-1j],
                         alpha_exact=alpha), 1)
    assert s.q_k == 2
    ys = np.linspace(0.05, 0.4, 36)
    disp, der = renorm._orbit_bound(s.F, ys, s.q_k)
    W, dW = map_with_derivative(s, 1j * ys, jump=False)
    actual_disp, actual_der = np.abs(W - 1j * ys - s.beta), np.abs(dW - 1)
    assert np.all(actual_disp <= disp) and np.all(actual_der <= der)
    assert np.all(actual_disp >= 0.95 * disp) and np.all(actual_der >= 0.95 * der)
    # the descent counts: low down, the orbit moves more than twice as far as
    # two steps of A(y) would allow
    A = np.exp(-2 * math.pi * 13 * ys)
    assert np.max(actual_disp / (2 * A)) > 2


def test_find_y0_bounds_the_jump_on_its_own_steps():
    # every setup build_HJ makes has q_prev <= q_k, so J's sums are partial
    # sums of H's; a jump longer than the hop raises y0 by itself
    s = build_HJ(golden_quadratic_lift(), 2)
    y0 = find_y0(s)
    longer = dataclasses.replace(s, q_prev=s.q_k + 4)
    assert find_y0(longer) > y0


def test_conditions_never_met(monkeypatch):
    # a germ so rough that no sampled height below the tiny ceiling works
    monkeypatch.setattr(renorm, "HEIGHT_CEILING", 0.01)
    g = QuadraticFamily().at(GOLDEN, 8)
    F = lift_of_germ(g, order=64)
    s = build_HJ(F, 3)
    with pytest.raises(ConditionsNeverMet):
        find_y0(s)


# -- return map -------------------------------------------------------------------


def test_return_map_translation_closed_form():
    F = translation_lift(GOLDEN)
    for k in (1, 2, 3):
        s = build_HJ(F, k)
        find_y0(s)
        Z = complex(0.0, 1.0)
        sample, _ = return_map(s, Z)
        disp = sample.RZ - Z
        expected = s.beta_prime + sample.hops * s.beta
        assert abs(disp - expected) < 1e-12
        # hops is minimal: one fewer hop would not land in the strip
        assert not s.in_fundamental_domain(Z + s.beta_prime + (sample.hops - 1) * s.beta) \
            or sample.hops == 0


def test_return_map_requires_strip_start():
    F = translation_lift(GOLDEN)
    s = build_HJ(F, 1)
    find_y0(s)
    with pytest.raises(DomainError):
        return_map(s, complex(0.9, 5.0))  # outside the fundamental strip


def test_return_map_high_points_within_budget():
    F = golden_quadratic_lift()
    s = build_HJ(F, 2)
    y0 = find_y0(s)
    budget = s.default_budget()
    for j in range(40):
        Z = complex(0.0, y0 + 5 * abs(s.beta) + 0.04 * j)
        sample, _ = return_map(s, Z)
        assert sample.hops <= budget


def test_return_map_undefined_near_floor():
    # with y0 forced below the 1/10-condition height the map is wild there and
    # low starts drop out of the domain; high starts keep working
    F = golden_quadratic_lift()
    s = build_HJ(F, 3)
    y0_legit = find_y0(s)
    s.y0 = 0.1
    undefined = 0
    for re in np.linspace(0, 0.9, 12):
        Z = complex(re * s.beta, 0.11)
        if not s.in_fundamental_domain(Z):
            continue
        try:
            return_map(s, Z)
        except UndefinedReturn:
            undefined += 1
        except BudgetExceeded:
            pass
    assert undefined > 0
    s.y0 = y0_legit
    high = complex(0.0, y0_legit + 10 * abs(s.beta))
    sample, _ = return_map(s, high)  # defined for high enough starts
    assert sample.hops >= 0


def test_budget_exceeded_raises(monkeypatch):
    F = translation_lift(GOLDEN)
    s = build_HJ(F, 2)
    find_y0(s)
    monkeypatch.setattr(s, "default_budget", lambda: 0)
    with pytest.raises(BudgetExceeded):
        return_map(s, complex(0.0, 2.0))


# -- single pass -------------------------------------------------------------------


def test_single_pass_translations():
    F = translation_lift(GOLDEN)
    s = build_HJ(F, 2)
    find_y0(s)
    for j in range(10):
        _, again = return_and_second_pass(s, complex(0.0, 1.0 + 0.3 * j))
        assert not again


def test_single_pass_many_quadratic_starts():
    F = golden_quadratic_lift()
    s = build_HJ(F, 2)
    y0 = find_y0(s)
    violations = 0
    for j in range(200):
        Z = complex(0.0, y0 + 2 * abs(s.beta) + 0.013 * j)
        try:
            _, again = return_and_second_pass(s, Z)
        except (UndefinedReturn, BudgetExceeded):
            continue
        violations += again
    assert violations == 0


def test_single_pass_detects_synthetic_violation(monkeypatch):
    F = translation_lift(GOLDEN)
    s = build_HJ(F, 1)
    find_y0(s)
    inside = complex(0.1 * s.beta, 1.0)
    assert s.in_fundamental_domain(inside)
    assert not _lands_again(s, inside, 3)  # a translation's hops leave the strip
    # a strip test that takes in every point forces a re-entry at the first
    # hop; the hop bound, which would rule that re-entry out, is made +inf
    hops = []
    real_H = s.H
    monkeypatch.setattr(s, "H", lambda W: hops.append(W) or real_H(W))
    monkeypatch.setattr(s, "in_fundamental_domain", lambda W: True)
    monkeypatch.setattr(s, "hop_bound", lambda y, n, re: math.inf)
    assert _lands_again(s, inside, 3) and hops == [inside]


def test_cone_property_on_hops():
    # above y0 each hop advances Re by >= 9|beta|/10 and moves Im by <= |beta|/10
    F = golden_quadratic_lift()
    s = build_HJ(F, 2)
    y0 = find_y0(s)
    Z = complex(0.0, y0 + 10 * abs(s.beta))
    _, trace = return_map(s, Z)
    hops = trace[1:]
    for A, B in zip(hops, hops[1:]):
        d = B - A
        assert d.real * math.copysign(1, s.beta) >= 0.9 * abs(s.beta) - 1e-12
        assert abs(d.imag) <= abs(s.beta) / 10 + 1e-12


# -- iterates and rescalings -------------------------------------------------------


def test_iterate_rotation_number_scaling():
    F = golden_quadratic_lift()
    alpha = F.alpha
    K_samples = []
    ref = alpha + 0.01
    zs = [complex(x, 1.2) for x in np.linspace(0, 1, 8, endpoint=False)]
    M = max(abs(F(Z) - Z - alpha) for Z in zs)
    K = M / abs(alpha - ref)
    for k_pow in (2, 3, 5):
        disp = []
        for Z in zs:
            W = Z
            for _ in range(k_pow):
                W = F(W)
            disp.append(abs(W - Z - k_pow * alpha))
        assert max(disp) <= K * abs(k_pow * alpha - k_pow * ref) + 1e-12


def test_rescaling_rotation_number():
    F = golden_quadratic_lift()
    b, a = 2.5, 0.3 + 0.1j
    lam = lambda Z: b * Z + a
    lam_inv = lambda W: (W - a) / b
    G = lambda W: lam(F(lam_inv(W)))
    W = lam(complex(0.2, 6.0))
    assert abs((G(W) - W) - b * F.alpha) < 1e-8


# -- renormalized rotation number ---------------------------------------------------


def test_rotnum_translation_exact():
    for alpha in (GOLDEN, S2M1):
        F = translation_lift(alpha)
        for k in (1, 2, 3):
            s = build_HJ(F, k)
            find_y0(s)
            rep = renormalized_rotation_number(s, height=1.0, n_returns=300)
            assert rep.error < 1e-12
            assert rep.single_pass_violations == 0
            assert rep.budget_violations == 0
            # expected equals -[a_{k+1}; a_{k+2}, ...] by the tail identity
            cf = cf_of_exact(alpha)
            tail = -(cf.convergent(k - 1).q * alpha - cf.convergent(k - 1).p) / \
                (cf.convergent(k).q * alpha - cf.convergent(k).p)
            assert abs(rep.expected_alpha_prime - (-to_float(tail))) < 1e-12


def test_rotnum_golden_quadratic():
    F = golden_quadratic_lift()
    for k in (1, 2, 3):
        s = build_HJ(F, k)
        y0 = find_y0(s)
        rep = renormalized_rotation_number(s, height=y0 + 20 * abs(s.beta), n_returns=400)
        assert rep.error < 1e-3
        assert rep.single_pass_violations == 0 and rep.budget_violations == 0
        assert rep.y2 > rep.y1 > rep.y0


def test_rotnum_error_improves_with_height():
    F = golden_quadratic_lift()
    s = build_HJ(F, 2)
    y0 = find_y0(s)
    e1 = renormalized_rotation_number(s, height=y0 + 6 * abs(s.beta), n_returns=200).error
    e2 = renormalized_rotation_number(s, height=y0 + 12 * abs(s.beta), n_returns=200).error
    assert e2 <= e1 + 1e-9


def test_strip_and_rotnum_need_y0():
    s = build_HJ(translation_lift(GOLDEN), 1)
    for call in (lambda: s.lam(1j), lambda: s.in_fundamental_domain(1j),
                 lambda: renormalized_rotation_number(s, height=1.0, n_returns=5)):
        with pytest.raises(DomainError, match="y0 not set|run find_y0 first"):
            call()


def test_rotnum_start_must_lie_in_the_strip():
    s = build_HJ(golden_quadratic_lift(), 1)
    y0 = find_y0(s)
    assert y0 > 0
    with pytest.raises(DomainError, match="measurement height"):
        renormalized_rotation_number(s, height=y0, n_returns=5)


def test_rotnum_needs_one_return():
    s = build_HJ(translation_lift(GOLDEN), 1)
    find_y0(s)
    with pytest.raises(DomainError):
        renormalized_rotation_number(s, height=1.0, n_returns=0)


@pytest.mark.parametrize("error", [UndefinedReturn, BudgetExceeded])
def test_rotnum_without_a_completed_return_raises(monkeypatch, error):
    # a report would have no measurement (NaN), so the stopping error goes up;
    # after one completed return the abort gives a partial report
    s = build_HJ(translation_lift(GOLDEN), 1)
    find_y0(s)
    real = renorm.return_map
    allowed = []

    def stops(setup, Z):
        if not allowed:
            raise error("stopped")
        allowed.pop()
        return real(setup, Z)

    monkeypatch.setattr(renorm, "return_map", stops)
    with pytest.raises(error):
        renormalized_rotation_number(s, height=1.0, n_returns=5)
    allowed.append(True)
    rep = renormalized_rotation_number(s, height=1.0, n_returns=5)
    assert rep.n_returns == 1 and rep.error < 1e-12
    assert rep.undefined_returns + rep.budget_violations == 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_strip_tests_with_and_without_the_bound_match_the_exact_edge(monkeypatch, k):
    # three runs: as shipped (the hop bound decides, the edge is computed only
    # in its band), with the bound +inf so that every strip test computes the
    # edge, and with the exact oracle
    F = golden_quadratic_lift()

    def run():
        s = build_HJ(F, k)
        y0 = find_y0(s)
        height = y0 + 20 * abs(s.beta)
        rep = renormalized_rotation_number(s, height=height, n_returns=200)
        traces = [return_and_second_pass(s, complex(0.0, height + 0.07 * j))
                  for j in range(8)]
        return dataclasses.asdict(rep), traces

    bound_rep, bound_traces = run()
    monkeypatch.setattr(RenormSetup, "hop_bound", lambda self, y, n, re: math.inf)
    edge_rep, edge_traces = run()
    monkeypatch.setattr(RenormSetup, "in_fundamental_domain", in_fundamental_domain_exact)
    exact_rep, exact_traces = run()
    assert bound_rep == edge_rep == exact_rep
    assert bound_traces == edge_traces == exact_traces


# -- the hop bound -------------------------------------------------------------------


def _bound_pool():
    """Setups whose strip tests are checked against the exact edge: the golden
    quadratic, FlowFamily([3.0], 1.0) and translation lifts at k = 0..3 with
    the y0 find_y0 picks, and a lift whose steps dip far: h(w) = -w/4 i at
    alpha = 1 - golden, k = 1 (two steps a hop), floor 0.  Just above that
    floor H's first step lowers Im by about 1/4, and its second moves Re by
    0.81, more than the 0.5 both steps could at the start height."""
    pool = []
    for F in (golden_quadratic_lift(),
              lift_of_germ(FlowFamily([3.0], 1.0).at(GOLDEN, 24), order=64),
              translation_lift(GOLDEN)):
        for k in range(4):
            s = build_HJ(F, k)
            find_y0(s)
            pool.append(s)
    alpha = QuadraticIrrational(3, -1, 2, 5)
    dip = build_HJ(LiftMap(alpha=to_float(alpha), h_coeffs=[-0.25j], alpha_exact=alpha), 1)
    dip.y0 = 0.0
    return pool + [dip]


_BOUND_POOL = _bound_pool()


def _exact_x_edge(s, y):
    return s.H(1j * y).real / s.beta


def _strip_tests_agree(s, y, ts):
    """For each t, the strip test and the single-pass check at height y agree
    with the exact edge at x = t, at x = 1 + t (edge - 1) (around the edge),
    at x = 1 + t d (across the bound's band) and, for the single pass, at
    x = t (edge - 1) and t d (near the left edge, where a hop can land)."""
    edge = _exact_x_edge(s, y)
    d = s.hop_bound(y, 0, 0.0)
    for t in ts:
        xs = [t, 1 + t * (edge - 1), t * (edge - 1)]
        if d < math.inf:
            xs += [1 + t * d, t * d]
        for x in xs:
            Z = complex(x * s.beta, y)
            assert s.in_fundamental_domain(Z) == in_fundamental_domain_exact(s, Z), (x, y)
            assert _lands_again(s, Z, 3) == lands_again_exact(s, Z, 3), (x, y)


def test_bound_pool_reaches_the_bound():
    # the band sweep below is a real test: near the floor of the dipping lift
    # the bound is +inf, and above it the edge is off 1 by most of the bound
    dip = _BOUND_POOL[-1]
    assert dip.hop_bound(1e-6, 0, 0.0) == math.inf
    assert any(abs(_exact_x_edge(s, s.y0 + 0.5) - 1) > 0.6 * s.hop_bound(s.y0 + 0.5, 0, 0.0)
               for s in _BOUND_POOL)


@pytest.mark.parametrize("i", range(len(_BOUND_POOL)))
def test_strip_tests_match_the_exact_edge_across_the_band(i):
    s = _BOUND_POOL[i]
    ts = np.linspace(-0.5, 1.5, 41)
    for offset in (1e-12, 1e-6, 0.01, 0.03, 0.1, 0.3, 1.0):
        _strip_tests_agree(s, s.y0 + offset, ts)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, len(_BOUND_POOL) - 1),
       st.one_of(st.floats(0.0, 1e-6), st.floats(0.0, 3.0)),
       st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=6))
def test_strip_tests_match_the_exact_edge(i, offset, ts):
    s = _BOUND_POOL[i]
    _strip_tests_agree(s, s.y0 + offset, ts)


@pytest.mark.parametrize("i", range(len(_BOUND_POOL)))
def test_certified_y0_passes_the_sampled_check_and_a_dense_sweep(i):
    # the sampled check find_y0 made before it certified the conditions, and
    # 256 real parts at 16 heights from y0 to y0 + 3
    s = build_HJ(_BOUND_POOL[i].F, _BOUND_POOL[i].k)
    y0 = find_y0(s)
    assert sampled_conditions_hold(s, y0)
    assert sampled_conditions_hold(s, y0, res=np.arange(256) / 256,
                                   dys=np.r_[0.0, np.geomspace(1e-6, 3.0, 15)])


def test_hop_bound_is_inf_for_a_non_finite_lift():
    s = build_HJ(LiftMap(alpha=to_float(GOLDEN), h_coeffs=[math.nan], alpha_exact=GOLDEN), 1)
    s.y0 = 0.5
    assert s.hop_bound(3.0, 0, 0.0) == math.inf


def test_non_finite_points_are_outside_the_strip(monkeypatch):
    # refused before the bound: a NaN x falls in no side of the band, so it
    # would otherwise pay for an edge
    s = build_HJ(translation_lift(GOLDEN), 1)
    find_y0(s)
    edges = []
    monkeypatch.setattr(s, "H", lambda W: edges.append(W) or W)
    for Z in (complex(math.nan, 1.0), complex(0.0, math.nan), complex(0.0, math.inf),
              complex(-math.inf, 1.0)):
        assert not s.in_fundamental_domain(Z)
    assert edges == []


def test_a_nan_jump_is_an_undefined_return(monkeypatch):
    # NaN > y0 is False, so the return stops at once instead of hopping a NaN
    # until the budget runs out
    s = build_HJ(translation_lift(GOLDEN), 1)
    find_y0(s)
    hops = []
    monkeypatch.setattr(s, "J", lambda Z: complex(math.nan, math.nan))
    monkeypatch.setattr(s, "H", lambda W: hops.append(W) or W)
    with pytest.raises(UndefinedReturn):
        return_map(s, complex(0.0, 1.0))
    assert hops == []
