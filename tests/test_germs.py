import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siegelkit import germs, series
from siegelkit.errors import DomainError, FactorizationError, OverflowGuard
from siegelkit.germs import (
    FlowFamily,
    Germ,
    GermFamily,
    QuadraticFamily,
    RotationFamily,
    alpha_frac_float,
    lift_of_germ,
    phase_fracs,
)
from siegelkit.surd import QuadraticIrrational

from .oracles import finite_difference_sup, lift_with_derivative, mobius_germ

GOLDEN = QuadraticIrrational(-1, 1, 2, 5)  # frac of the golden mean
TWO_PI = 2 * math.pi


def horner(g, z):
    """Horner evaluation of the truncation at one point."""
    return series.polyval_scalar(g.full_coeffs().tolist(), z)


def test_rotation_family_trivial():
    g = RotationFamily().at(GOLDEN, 256)
    assert len(g.coeffs) == 0
    z = 0.3 + 0.2j
    assert horner(g, z) == g.multiplier() * z


def test_quadratic_coefficients():
    g = QuadraticFamily().at(Fraction(1, 7), 256)
    assert list(g.coeffs) == [1.0]
    assert abs(horner(QuadraticFamily().at(Fraction(0), 256), 0.5) - 0.75) < 1e-15
    g2 = QuadraticFamily(restriction_radius=0.25).at(Fraction(1, 7), 256)
    assert list(g2.coeffs) == [0.25]


@pytest.mark.parametrize("radius", [0.25, 1.0])
@pytest.mark.parametrize("order", [2, 8, 256])
def test_one_class_with_b_2_is_the_quadratic_germ(radius, order):
    # bit for bit: the same order-2 germ, whatever the truncation order
    for alpha in (Fraction(1, 7), GOLDEN, 0.37):
        g = GermFamily((), (1.0,), radius).at(alpha, order)
        want = Germ(alpha, [radius])
        assert g.order == want.order == 2
        assert g.coeffs.tobytes() == want.coeffs.tobytes()
        assert g.coeffs.tobytes() == QuadraticFamily(radius).at(alpha, order).coeffs.tobytes()


@pytest.mark.parametrize("eps", [1e-2, 1e-6])
def test_flow_plus_eps_z2_adds_to_the_flow_germ_alone(eps):
    fam = GermFamily([1.0], (eps,), 0.5)
    flow = FlowFamily([1.0], 0.5)
    for alpha, order in ((GOLDEN, 24), (Fraction(2, 7), 64), (0.37, 1)):
        g, f = fam.at(alpha, order), flow.at(alpha, order)
        want = f.coeffs.copy()
        want[:1] += eps * 0.5
        assert g.coeffs.tobytes() == want.tobytes()
    # b does not depend on alpha, so it leaves d f / d alpha alone
    assert fam.lipschitz_bound() == flow.lipschitz_bound()


def test_quadratic_germ_at_order_one_is_the_rotation_germ():
    # b_2 z^2 lies past order 1, so truncation drops it
    for radius in (0.25, 1.0):
        g = QuadraticFamily(radius).at(GOLDEN, 1)
        assert g.order == 1 and len(g.coeffs) == 0
        assert g.full_coeffs().tobytes() == RotationFamily().at(GOLDEN, 1).full_coeffs().tobytes()


def test_eval_random_polynomial_against_power_sum():
    rng = np.random.default_rng(2)
    coeffs = 0.5 * (rng.normal(size=6) + 1j * rng.normal(size=6))
    g = Germ(alpha=0.37, coeffs=coeffs)
    for _ in range(20):
        z = complex(*rng.uniform(-0.6, 0.6, 2))
        naive = g.multiplier() * z + sum(c * z ** (m + 2) for m, c in enumerate(coeffs))
        assert abs(horner(g, z) - naive) < 1e-14


def test_multiplier_exact_for_exact_handles():
    for alpha in (Fraction(2, 7), GOLDEN, Fraction(-1, 3)):
        g = QuadraticFamily().at(alpha, 256)
        from siegelkit.surd import to_float, floor_exact
        frac = to_float(alpha - floor_exact(alpha))
        assert abs(g.multiplier() - cmath.exp(2j * math.pi * frac)) < 1e-15


def test_family_continuity_in_alpha():
    zs = 0.9 * np.exp(2j * np.pi * np.arange(32) / 32)
    for fam in (RotationFamily(), QuadraticFamily(), FlowFamily([1.0], 0.5)):
        base = fam.at(0.37, 64)
        gaps = []
        for eps in (1e-2, 1e-4, 1e-6):
            near = fam.at(0.37 + eps, 64)
            diff = (series.polyval_vec(base.full_coeffs(), zs)
                    - series.polyval_vec(near.full_coeffs(), zs))
            gaps.append(float(np.max(np.abs(diff))))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-4


# -- flow maps ---------------------------------------------------------------


def test_empty_field_germ_is_the_rotation_preset_germ():
    for radius in (0.5, 1.0):
        g = FlowFamily([], radius).at(0.77, 12)
        assert len(g.coeffs) == 0
        assert g.full_coeffs().tobytes() == RotationFamily().at(0.77, 12).full_coeffs().tobytes()
    assert abs(g.multiplier() - cmath.exp(2j * math.pi * 0.77)) < 1e-15


def test_flow_closed_form_quadratic_field():
    # chi = 2 pi i z + z^2 integrates to u z / (1 - z (u - 1)/(2 pi i))
    t = 0.29
    g = FlowFamily([1.0], 1.0).at(t, 28)
    u = cmath.exp(2j * math.pi * t)
    for z in (0.1, -0.05 + 0.2j, 0.25j):
        closed = u * z / (1 - z * (u - 1) / (2j * math.pi))
        assert abs(horner(g, z) - closed) < 1e-12


@pytest.mark.parametrize("order", [64, 128, 256])
@pytest.mark.parametrize("c_prime", [0.5, 1.0, 2.0, 3.0])
def test_flow_germ_matches_mobius_closed_form(c_prime, order):
    # at c' = 3 the coefficients of psi^{-1} fall to 1e-82 by order 256, and
    # the composition amplifies an absolute error in them by up to (1+|b|)^order
    g = FlowFamily([c_prime], 1.0).at(GOLDEN, order)
    want = np.array(mobius_germ(c_prime, float(GOLDEN), order))
    assert np.max(np.abs(g.coeffs - want)) <= 1e-14 * np.max(np.abs(want))


def test_flow_group_law():
    chi = [1.0, 0.3j, -0.2]
    f1 = FlowFamily(chi, 1.0).at(0.21, 20)
    f2 = FlowFamily(chi, 1.0).at(0.33, 20)
    f12 = FlowFamily(chi, 1.0).at(0.54, 20)
    f1f2 = series.compose(f1.full_coeffs(), f2.full_coeffs(), 20)
    resid = np.max(np.abs(f1f2 - f12.full_coeffs()))
    assert resid < 1e-10


def test_flow_rotation_invariance_kills_coefficients():
    g = FlowFamily([0.0, 0.0, 1.0], 1.0).at(0.4, 17)  # chi invariant under R_{1/3}
    full = g.full_coeffs()
    for m in range(2, 18):
        if m % 3 != 1:
            assert abs(full[m]) < 1e-13


def test_flow_at_symmetric_rational_is_rotation():
    g = FlowFamily([0.0, 0.0, 1.0], 1.0).at(Fraction(1, 3), 16)
    assert np.max(np.abs(g.coeffs)) < 1e-12


# -- Lipschitz bounds ---------------------------------------------------------


def test_lipschitz_rotation_two_pi():
    assert RotationFamily().lipschitz_bound() == TWO_PI * 0.999


def test_lipschitz_quadratic_same_as_rotation():
    for radius in (1.0, 0.25):
        assert QuadraticFamily(radius).lipschitz_bound() == TWO_PI * 0.999


def test_lipschitz_flow_matches_field_sup():
    # the central difference averages d f / d alpha over [a - h, a + h], so
    # up to rounding it never exceeds the bound; its h^2 error shrinks fourfold from 2h to h,
    # so the bound sits above the sup at h by less than the sup moved
    for chi, radius in (([1.0], 0.5), ([1.0], 1.0), ([3.0], 1.0), ([0.0, 0.0, 1.0], 0.5)):
        fam = FlowFamily(chi, radius)
        K = fam.lipschitz_bound()
        sup_h = finite_difference_sup(fam, 1e-4)
        sup_2h = finite_difference_sup(fam, 2e-4)
        assert sup_2h < sup_h <= K * (1 + 1e-12), chi
        assert K - sup_h < sup_h - sup_2h, chi
    assert abs(FlowFamily([3.0], 1.0).lipschitz_bound() / 1259.870845 - 1) < 1e-6


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
def test_flow_rejects_bad_restriction_radius(radius):
    with pytest.raises(DomainError):
        FlowFamily([1.0], restriction_radius=radius)


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
def test_every_family_rejects_bad_restriction_radius(radius):
    # one check: the rotation, whose map ignores s, refuses it too
    for make in (RotationFamily, lambda s: GermFamily((), (1.0,), s),
                 lambda s: GermFamily([1.0], (1e-2,), s)):
        with pytest.raises(DomainError):
            make(radius)


@pytest.mark.parametrize("chi, b, radius", [([1.0, 1.0], (), 1e300), ((), (1.0, 1.0), 1e300),
                                            ([1e300], (), 1e10), ((), (1e300,), 1e10)])
def test_a_conjugated_coefficient_past_float_range_is_a_numeric_error(chi, b, radius):
    # s^2 overflows (a tagged error, not Python's OverflowError), or c s does
    with pytest.raises(OverflowGuard):
        GermFamily(chi, b, radius)


@pytest.mark.parametrize("chi", [[math.nan], [1.0, complex(0, math.inf)]])
def test_flow_rejects_non_finite_field(chi):
    with pytest.raises(DomainError):
        FlowFamily(chi, 0.5)


@pytest.mark.parametrize("chi, b", [((), [math.nan]), ([1.0], [0.0, complex(0, math.inf)])])
def test_family_rejects_non_finite_b(chi, b):
    with pytest.raises(DomainError):
        GermFamily(chi, b, 0.5)


@pytest.mark.parametrize("c, order", [(1e300, 8), (100.0, 256), (1e300, None), (1e10, None)])
def test_flow_linearizer_overflow_is_tagged(c, order):
    # psi itself overflows at c = 1e300; at c = 100 psi and psi^{-1} are
    # finite (psi^{-1} reaches 1e230) and the germ composed of them is not.
    # Order None is the Lipschitz bound, whose psi overflows at both c.
    fam = FlowFamily([c], 0.5)
    with pytest.raises(OverflowGuard):
        fam.lipschitz_bound() if order is None else fam.at(GOLDEN, order)


def test_orders_below_one_are_rejected():
    # an order-0 lift has an empty h, which h_of_lift would read as an exact
    # translation ("every height is admissible"); an order-0 germ is refused
    # by every family
    for fam in (RotationFamily(), QuadraticFamily(), FlowFamily([1.0], 0.5),
                GermFamily([1.0], (1e-2,), 0.5)):
        with pytest.raises(DomainError):
            fam.at(GOLDEN, 0)
    with pytest.raises(DomainError):
        lift_of_germ(QuadraticFamily().at(GOLDEN, 8), order=0)
    assert len(lift_of_germ(QuadraticFamily().at(GOLDEN, 8), order=1).h_coeffs) == 1


# -- lifts --------------------------------------------------------------------


def test_lift_of_rotation_is_translation():
    L = lift_of_germ(RotationFamily().at(GOLDEN, 32), order=32)
    assert np.max(np.abs(L.h_coeffs)) == 0.0
    Z = 0.3 + 0.7j
    assert abs(L(Z) - (Z + L.alpha)) < 1e-15


def test_lift_conjugacy_residual():
    g = QuadraticFamily().at(GOLDEN, 8)
    L = lift_of_germ(g, order=160)
    rng = np.random.default_rng(4)
    for _ in range(30):
        Z = complex(rng.uniform(0, 1), rng.uniform(0.2, 2.0))
        lhs = cmath.exp(2j * math.pi * L(Z))
        rhs = horner(g, cmath.exp(2j * math.pi * Z))
        assert abs(lhs - rhs) < 1e-10


def test_lift_derivative_matches_finite_difference():
    g = QuadraticFamily().at(GOLDEN, 8)
    L = lift_of_germ(g, order=128)
    Z = 0.4 + 0.6j
    _, der = lift_with_derivative(L, Z)
    h = 1e-6
    fd = (L(Z + h) - L(Z - h)) / (2 * h)
    assert abs(der - fd) < 1e-8


def test_lift_lipschitz_transfer():
    # |f_n - R_alpha| <= K |alpha_n - alpha| transfers to
    # |F_n(Z) - Z - alpha| <= 2 K |alpha_n - alpha| on the half-plane
    alpha = float(GOLDEN)
    K = TWO_PI
    rng = np.random.default_rng(8)
    for eps in (1e-2, 1e-3):
        alpha_n = alpha + eps
        F = lift_of_germ(RotationFamily().at(alpha_n, 64), order=64)
        # compare to the target translation T_alpha
        for _ in range(20):
            Z = complex(rng.uniform(0, 1), rng.uniform(0.05, 2.0))
            assert abs(F(Z) - Z - alpha) <= 2 * K * eps


def test_lift_factorization_error(monkeypatch):
    monkeypatch.setattr(germs, "CHECK_HEIGHT", 0.05)
    g = Germ(alpha=0.3, coeffs=np.array([9.0]))  # |g-1| = 9|w| reaches 1
    with pytest.raises(FactorizationError):
        lift_of_germ(g, order=32)
    # NaN fails every comparison, so a plain ">= 1" test would let it through
    with pytest.raises(FactorizationError):
        lift_of_germ(Germ(alpha=0.3, coeffs=np.array([math.nan])), order=32)


def test_lift_refuses_a_germ_a_sampled_circle_passes():
    # u = g - 1 = 2.7 (w + w^2 - w^3): on |w| = e^{-0.4 pi} its 128-point sup
    # is 0.929, but its majorant 2.7 (r + r^2 + r^3) is 1.049
    rho = Germ(alpha=0.3, coeffs=np.zeros(0)).multiplier()
    g = Germ(alpha=0.3, coeffs=rho * 2.7 * np.array([1.0, 1.0, -1.0]))
    with pytest.raises(FactorizationError, match="majorant 1.049"):
        lift_of_germ(g, order=32)


# ---------------------------------------------------------------------------
# batched phases
# ---------------------------------------------------------------------------


def _bits(xs):
    return [x.hex() for x in xs]


def _per_index(alpha, K):
    return [alpha_frac_float(k * alpha) for k in range(K)]


def _sqrt2_convergent(min_q: int) -> Fraction:
    """First convergent P/Q of sqrt(2) with Q >= min_q; |sqrt(2) - P/Q| < 1/Q^2."""
    p, q = 1, 1
    while q < min_q:
        p, q = p + 2 * q, p + q
    return Fraction(p, q)


# sqrt(2) - P/Q lies within 2**-140 of 0, far inside the 2**-128 bracket
_EPS = QuadraticIrrational(0, 1, 1, 2) - _sqrt2_convergent(2 ** 70)


def _counting_fallback(monkeypatch):
    """Record every index phase_fracs hands to alpha_frac_float."""
    calls = []

    def counted(x):
        calls.append(x)
        return alpha_frac_float(x)

    monkeypatch.setattr(germs, "alpha_frac_float", counted)
    return calls


def test_phase_fallback_at_rounding_midpoint(monkeypatch):
    # frac(alpha) sits within 2**-140 of the midpoint 1/2 + 2**-54 between
    # the floats 1/2 and 1/2 + 2**-53, so the bracket's two ends round apart
    alpha = Fraction(2 ** 53 + 1, 2 ** 54) + _EPS
    lo, hi, den = alpha.int_bracket(germs._PHASE_BITS)
    (q_lo, r_lo), (q_hi, r_hi) = divmod(lo, den), divmod(hi, den)
    assert q_lo == q_hi and r_lo / den != r_hi / den
    calls = _counting_fallback(monkeypatch)
    phases = phase_fracs(alpha, 3)
    assert calls == [alpha]                       # only index 1 falls back
    assert _bits(phases) == _bits(_per_index(alpha, 3))
    assert phases[1] in (0.5, 0.5 + 2 ** -53)


@pytest.mark.parametrize("alpha", [
    3 + _EPS,                                            # ends straddle 3
    QuadraticIrrational(0, 1 << germs._PHASE_BITS, 1, 2),  # ends a whole turn apart
], ids=["straddle", "whole-turn"])
def test_phase_fallback_when_integer_parts_differ(monkeypatch, alpha):
    lo, hi, den = alpha.int_bracket(germs._PHASE_BITS)
    assert lo // den != hi // den
    calls = _counting_fallback(monkeypatch)
    phases = phase_fracs(alpha, 4)
    assert calls == [alpha, 2 * alpha, 3 * alpha]
    assert _bits(phases) == _bits(_per_index(alpha, 4))


def test_phase_fast_path_takes_every_ordinary_index(monkeypatch):
    surds = (GOLDEN, QuadraticIrrational(1760, -1, 4562, 2))
    expected = [_bits(_per_index(alpha, 257)) for alpha in surds]
    calls = _counting_fallback(monkeypatch)
    assert [_bits(phase_fracs(alpha, 257)) for alpha in surds] == expected
    assert calls == []


_INTS = st.integers(-10 ** 9, 10 ** 9)
_NONZERO = st.integers(1, 10 ** 9) | st.integers(-10 ** 9, -1)
_SURDS = st.builds(QuadraticIrrational, _INTS, _NONZERO, _NONZERO, st.integers(2, 10 ** 6))
# squares of primes above surd._SPLIT_BOUND stay inside the stored radicand
_BIG_PRIMES = st.sampled_from([10007, 10009, 65537, 999983])
_HIDDEN_SQUARES = st.builds(
    lambda a, b, c, p, d0: QuadraticIrrational(a, b, c, p * p * d0),
    _INTS, _NONZERO, _NONZERO, _BIG_PRIMES, st.integers(2, 1000))
_RATIONAL_OR_FLOAT = (st.fractions(max_denominator=10 ** 12) | _INTS
                      | st.floats(-1e6, 1e6, allow_nan=False))


@settings(max_examples=40, deadline=None)
@given(_SURDS | _RATIONAL_OR_FLOAT, st.integers(0, 130))
def test_phase_fracs_bit_identical_to_per_index(alpha, K):
    assert _bits(phase_fracs(alpha, K)) == _bits(_per_index(alpha, K))


@settings(max_examples=40, deadline=None)
@given(_HIDDEN_SQUARES, st.integers(0, 130))
def test_phase_fracs_bit_identical_with_hidden_squares(alpha, K):
    assert _bits(phase_fracs(alpha, K)) == _bits(_per_index(alpha, K))
