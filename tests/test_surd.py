import math
import operator
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from siegelkit.surd import (
    QuadraticIrrational,
    _squarefree_split,
    bracket,
    exact_cmp,
    exact_sign,
    floor_exact,
    frac_exact,
    sqrt_exact,
    to_float,
)

S2 = sqrt_exact(2)
S5 = sqrt_exact(5)


def test_canonical_form():
    x = QuadraticIrrational(2, 4, -6, 8)  # (2 + 4*sqrt(8)) / -6
    # sqrt(8) = 2 sqrt(2): (2 + 8 sqrt 2)/-6 -> (-1 - 4 sqrt 2)/3
    assert (x.a, x.b, x.c, x.d) == (-1, -4, 3, 2)


def test_perfect_square_demotes_to_fraction():
    assert QuadraticIrrational(1, 2, 3, 9) == Fraction(7, 3)
    assert isinstance(QuadraticIrrational(0, 5, 5, 4), Fraction)


def test_rational_results_demote():
    assert (1 + S2) + (1 - S2) == 2
    assert (1 + S2) * (1 - S2) == Fraction(-1)
    assert S2 * S2 == 2


def test_field_arithmetic_random():
    rng = random.Random(7)
    for _ in range(200):
        a = QuadraticIrrational(rng.randint(-9, 9), rng.randint(1, 9),
                                rng.randint(1, 9), 2)
        b = QuadraticIrrational(rng.randint(-9, 9), rng.randint(1, 9),
                                rng.randint(1, 9), 2)
        # (a + b) - b == a, (a * b) / b == a
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert abs(float(a + b) - (float(a) + float(b))) < 1e-12
        assert abs(float(a * b) - float(a) * float(b)) < 1e-10


def test_cross_field_comparison():
    golden = QuadraticIrrational(1, 1, 2, 5)
    assert exact_cmp(1 + S2, golden) > 0
    assert exact_cmp(golden, 1 + S2) < 0
    assert exact_cmp(S2, Fraction(141421356, 100000000)) > 0
    assert exact_cmp(S2, S2) == 0


def test_hidden_square_factors_unify():
    # both are sqrt(2); the primes 10007 and 10009 lie above the trial-division
    # bound, so each keeps its square factor in the radicand
    x = QuadraticIrrational(0, 1, 10007, 2 * 10007 ** 2)
    y = QuadraticIrrational(0, 1, 10009, 2 * 10009 ** 2)
    assert x.d != y.d
    for check in (lambda: x == y, lambda: exact_cmp(x, y) == 0, lambda: x - y == 0,
                  lambda: exact_cmp(y, S2 + Fraction(1, 10**12)) < 0):
        start = time.perf_counter()
        assert check()
        assert time.perf_counter() - start < 1.0
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


def test_pickle_round_trip():
    # exact values survive pickling (forked scan workers inherit their grid
    # and send back only rows, but a caller may still ship parameters)
    for x in (S2, -S5 / 7 + Fraction(3, 4), QuadraticIrrational(0, 1, 10007, 2 * 10007 ** 2)):
        y = pickle.loads(pickle.dumps(x))
        assert type(y) is QuadraticIrrational
        assert (y.a, y.b, y.c, y.d) == (x.a, x.b, x.c, x.d)


def test_signs():
    assert exact_sign(S2 - 1) == 1
    assert exact_sign(S2 - 2) == -1
    assert exact_sign(Fraction(0)) == 0
    assert exact_sign(QuadraticIrrational(-17, 12, 1, 2)) == -1  # 12 sqrt2 = 16.97


def test_floor_matches_float():
    rng = random.Random(3)
    for _ in range(300):
        x = QuadraticIrrational(rng.randint(-50, 50), rng.choice([-9, -3, 1, 5, 9]),
                                rng.randint(1, 9), rng.choice([2, 3, 5, 7]))
        if isinstance(x, Fraction):
            continue
        f = floor_exact(x)
        assert f <= float(x) < f + 1 + 1e-9
        fr = frac_exact(x)
        assert exact_sign(fr) >= 0 and exact_cmp(fr, 1) < 0


def test_float_handles_cancellation():
    # a + b sqrt2 with a huge and nearly cancelling
    b = 10**30
    a = -math.isqrt(2 * b * b)  # ~ -b sqrt2
    x = QuadraticIrrational(a, b, 1, 2)
    lo, hi = bracket(x, 256)
    assert lo <= x <= hi or (float(lo) <= float(x) <= float(hi))
    assert abs(float(x) - float((lo + hi) / 2)) < 1e-12


def test_bracket_contains_value():
    x = QuadraticIrrational(3, -2, 7, 3)
    lo, hi = bracket(x, 64)
    assert exact_cmp(lo, x) <= 0 <= exact_cmp(hi, x)
    assert float(hi - lo) < 1e-15


def test_to_float_kinds():
    assert to_float(Fraction(1, 3)) == 1 / 3
    assert to_float(2) == 2.0
    assert abs(to_float(S5) - math.sqrt(5)) < 1e-15
    assert to_float(0.25) == 0.25


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        (1 + S2) / 0
    with pytest.raises(ZeroDivisionError):
        QuadraticIrrational(1, 1, 0, 2)


def test_immutability_and_hash():
    x = 1 + S2
    with pytest.raises(AttributeError):
        x.a = 5
    assert hash(1 + S2) == hash((3 + 3 * S2) / 3)


_INTS = st.integers(-10 ** 9, 10 ** 9)
_NONZERO = st.integers(1, 10 ** 9) | st.integers(-10 ** 9, -1)
# radicands with and without a square factor above the split's trial bound
_RADICANDS = st.integers(2, 10 ** 6) | st.builds(
    lambda p, d0: p * p * d0, st.sampled_from([10007, 65537, 999983]), st.integers(2, 1000))
_SURDS = st.builds(QuadraticIrrational, _INTS, _NONZERO, _NONZERO, _RADICANDS).filter(
    lambda x: isinstance(x, QuadraticIrrational))


@settings(max_examples=40, deadline=None)
@given(_SURDS, _INTS, _NONZERO, _NONZERO, st.fractions(max_denominator=10 ** 6))
def test_stored_radicand_is_split_fixed_point(x, a, b, c, q):
    # arithmetic builds its results over the operand's radicand without
    # splitting it again; that is exact only if the split leaves it as it is
    y = QuadraticIrrational(a, b, c, x.d)
    results = [x, y, -x, x.conjugate(), x + y, x - y, x * y, x / y, q / x, x + q, x * q]
    for r in results:
        if isinstance(r, QuadraticIrrational):
            assert r.d == x.d
            assert _squarefree_split(r.d) == (1, r.d)
            again = QuadraticIrrational(r.a, r.b, r.c, r.d)
            assert (again.a, again.b, again.c, again.d) == (r.a, r.b, r.c, r.d)


# each operation is monotone in each argument on a box that keeps the divisor
# off 0, so its interval hull is spanned by the four corners
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@settings(max_examples=200, deadline=None)
@given(_SURDS, _INTS, _NONZERO, _NONZERO, st.sampled_from(sorted(_OPS)))
def test_field_arithmetic_meets_fraction_brackets(x, a, b, c, op):
    # the exact result's bracket meets the Fraction interval arithmetic of
    # the operands' brackets
    y = QuadraticIrrational(a, b, c, x.d)
    xbr, ybr = bracket(x, 64), bracket(y, 64)
    if op == "/" and ybr[0] <= 0 <= ybr[1]:
        return
    corners = [_OPS[op](u, v) for u in xbr for v in ybr]
    lo, hi = bracket(_OPS[op](x, y), 64)
    assert lo <= max(corners) and min(corners) <= hi
