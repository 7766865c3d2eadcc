import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from siegelkit.cf import (
    CFExpansion,
    LONG_FORM,
    SHORT_FORM,
    cf_of_quadratic_irrational,
    cf_of_rational,
    convergents,
    eval_cf,
    farey_fractions,
    format_cf,
    format_exact,
    parse_cf,
    parse_exact,
    side_and_gap,
    special_sequence_main,
    theta_sequence,
)
from siegelkit.errors import DepthExceeded, DomainError, RationalInput
from siegelkit.surd import QuadraticIrrational, exact_cmp, sqrt_exact

S2 = sqrt_exact(2)
GOLDEN = QuadraticIrrational(1, 1, 2, 5)          # (1+sqrt5)/2 = [1;(1)]
GOLDEN_FRAC = GOLDEN - 1                           # [0;(1)]


def euclid_oracle(p, q):
    """Independent Euclidean algorithm for the short expansion."""
    out = []
    while True:
        a, r = divmod(p, q)
        out.append(a)
        if r == 0:
            return out
        p, q = q, r


# -- cf_of_rational ---------------------------------------------------------


def test_zero_both_expansions():
    assert format_cf(cf_of_rational(Fraction(0))) == "[0]"
    assert format_cf(cf_of_rational(Fraction(0), LONG_FORM)) == "[-1;1]"


def test_half_both_expansions():
    assert format_cf(cf_of_rational(Fraction(1, 2))) == "[0;2]"
    assert format_cf(cf_of_rational(Fraction(1, 2), LONG_FORM)) == "[0;1,1]"


def test_355_113_short():
    cf = cf_of_rational(Fraction(355, 113))
    assert [cf.a0] + list(cf.partials) == euclid_oracle(355, 113) == [3, 7, 16]


def test_both_variants_evaluate_back():
    rng = random.Random(11)
    for _ in range(100):
        q = rng.randint(1, 10**6)
        p = rng.randint(-10**6, 10**6)
        x = Fraction(p, q)
        s = cf_of_rational(x, SHORT_FORM)
        l = cf_of_rational(x, LONG_FORM)
        assert s.value() == x == l.value()
        if s.partials:
            assert s.partials[-1] >= 2
        assert l.partials[-1] == 1


# -- convergents ------------------------------------------------------------


def test_golden_convergents_are_fibonacci():
    cf = parse_cf("[1;(1)]")
    ps = [c.p for c in convergents(cf, 5)]
    qs = [c.q for c in convergents(cf, 5)]
    assert ps == [1, 2, 3, 5, 8, 13]
    assert qs == [1, 1, 2, 3, 5, 8]


def test_convergents_recurrence_oracle():
    cf = parse_cf("[3;7,16]")
    cs = convergents(cf, 2)
    assert [(c.p, c.q) for c in cs] == [(3, 1), (22, 7), (355, 113)]
    # direct recurrence with p_{-1}/q_{-1} = 1/0
    p2 = 16 * 22 + 3
    q2 = 16 * 7 + 1
    assert (p2, q2) == (355, 113)


def test_determinant_identity_random():
    rng = random.Random(5)
    for _ in range(50):
        x = Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9))
        cf = cf_of_rational(x)
        n = len(cf.partials)
        cs = [cf.convergent(k) for k in range(-1, n + 1)]
        for k in range(0, n + 1):
            # cs[k] is the (k-1)-th convergent: p_{k-1} q_k - p_k q_{k-1} = (-1)^k
            lhs = cs[k].p * cs[k + 1].q - cs[k + 1].p * cs[k].q
            assert lhs == (-1) ** k


def test_depth_exceeded():
    with pytest.raises(DepthExceeded):
        convergents(cf_of_rational(Fraction(22, 7)), 9)


# -- eval_cf ----------------------------------------------------------------


def test_eval_with_surd_tail():
    cf = parse_cf("[0]")
    val = eval_cf(cf, 0, 2 + S2)
    assert val == QuadraticIrrational(2, -1, 2, 2)  # 1/(2+sqrt2) = (2-sqrt2)/2


def test_eval_single_step():
    cf = parse_cf("[7]")
    assert eval_cf(cf, 0, Fraction(3)) == 7 + Fraction(1, 3)
    assert abs(eval_cf(cf, 0, 2.0) - 7.5) < 1e-15


def test_eval_matches_periodic_roundtrip():
    cf = parse_cf("[0;2]")
    val = eval_cf(cf, 1, 1 + S2)
    assert val == parse_cf("[0;2,(2)]").value() == S2 - 1


# -- special sequences ------------------------------------------------------


def test_special_sequence_rational_zero():
    zero_s = cf_of_rational(Fraction(0))
    zero_l = cf_of_rational(Fraction(0), LONG_FORM)
    for n in range(4):
        assert special_sequence_main(zero_s, n) == 1 / (n + 1 + S2)
        assert special_sequence_main(zero_l, n) == -1 / (n + 2 + S2)


def test_special_sequence_golden_substitution():
    cf = cf_of_quadratic_irrational(GOLDEN)
    a2 = special_sequence_main(cf, 2)
    manual = eval_cf(cf, 2, 2 + 1 / (1 + S2))  # [1;1,1,2,1+sqrt2]
    assert a2 == manual


def test_special_sequence_alternates_and_converges():
    cf = cf_of_quadratic_irrational(GOLDEN_FRAC)
    prev_hi = None
    for n in range(8):
        an = special_sequence_main(cf, n)
        sign, (lo, hi) = side_and_gap(GOLDEN_FRAC, an)
        assert sign == (1 if n % 2 == 1 else -1)
        if prev_hi is not None and n >= 2:
            assert hi < prev_hi
        prev_hi = hi


def test_special_sequence_custom_tail():
    cf = cf_of_quadratic_irrational(GOLDEN_FRAC)
    val = special_sequence_main(cf, 1, tail=GOLDEN)  # golden-mean tail variant
    assert isinstance(val, QuadraticIrrational)
    assert val.d == 5


def test_theta_sequence_values_and_sides():
    cf = parse_cf("[0;(2)]")  # sqrt2 - 1
    th2 = theta_sequence(cf, 2)
    assert format_cf(cf_of_quadratic_irrational(th2)) == "[0;2,2,3,(1)]"
    base = S2 - 1
    for n in range(6):
        sign, _ = side_and_gap(base, theta_sequence(cf, n))
        assert sign == (1 if n % 2 == 1 else -1)


def test_theta_rejects_rational():
    with pytest.raises(RationalInput):
        theta_sequence(cf_of_rational(Fraction(1, 2)), 1)


# -- cf of quadratic irrationals --------------------------------------------


def test_known_expansions():
    assert format_cf(cf_of_quadratic_irrational(1 + S2)) == "[2;(2)]"
    assert format_cf(cf_of_quadratic_irrational(GOLDEN)) == "[1;(1)]"
    assert format_cf(cf_of_quadratic_irrational(S2)) == "[1;(2)]"


def test_roundtrip_random_surds():
    rng = random.Random(23)
    for _ in range(60):
        x = QuadraticIrrational(rng.randint(-20, 20), rng.choice([-7, -2, 1, 3, 8]),
                                rng.randint(1, 15), rng.choice([2, 3, 5, 6, 7, 11]))
        if isinstance(x, Fraction):
            continue
        e = cf_of_quadratic_irrational(x)
        assert e.value() == x
        # negative a0 allowed, later quotients >= 1 enforced by construction
        assert all(a >= 1 for a in e.partials) and all(a >= 1 for a in e.period)


# -- side_and_gap -----------------------------------------------------------


def test_side_trivial_positive():
    sign, (lo, hi) = side_and_gap(Fraction(0), 1 / (2 + S2))
    assert sign == 1
    assert lo > 0


def test_side_constant_for_rational_variant():
    x = Fraction(2, 5)
    for variant, expected in ((SHORT_FORM, None), (LONG_FORM, None)):
        cf = cf_of_rational(x, variant)
        signs = {side_and_gap(x, special_sequence_main(cf, n))[0] for n in range(5)}
        assert len(signs) == 1  # one side per variant
    s_short = side_and_gap(x, special_sequence_main(cf_of_rational(x, SHORT_FORM), 0))[0]
    s_long = side_and_gap(x, special_sequence_main(cf_of_rational(x, LONG_FORM), 0))[0]
    assert s_short == -s_long


def test_side_golden_vs_theta2():
    cf = cf_of_quadratic_irrational(GOLDEN_FRAC)
    sign, _ = side_and_gap(GOLDEN_FRAC, theta_sequence(cf, 2))
    assert sign == -1  # even index sits below


def test_equal_values_sign_zero():
    sign, (lo, hi) = side_and_gap(1 + S2, (2 + 2 * S2) / 2)
    assert sign == 0 and lo == hi == 0


def test_gap_certificate_width():
    cf = cf_of_quadratic_irrational(GOLDEN_FRAC)
    a6 = special_sequence_main(cf, 6)
    _, (lo, hi) = side_and_gap(GOLDEN_FRAC, a6, width=Fraction(1, 10**60))
    assert hi - lo <= Fraction(1, 10**60)
    assert lo > 0


# -- exact identities (module invariants) ------------------------------------


def test_convergent_error_identities_surd():
    x = GOLDEN_FRAC
    cf = cf_of_quadratic_irrational(x)
    for n in range(1, 12):
        pn, qn = cf.convergent(n).p, cf.convergent(n).q
        pn1, qn1 = cf.convergent(n - 1).p, cf.convergent(n - 1).q
        # exact tail after position n
        tail = -(qn1 * x - pn1) / (qn * x - pn)
        lhs = qn * x - pn
        rhs = ((-1) ** n) / (qn * tail + qn1)
        assert lhs == rhs
        # |q_n alpha - p_n| <= 1/q_{n+1}
        qn_next = cf.convergent(n + 1).q
        gap = lhs if exact_cmp(lhs, 0) > 0 else -lhs
        assert exact_cmp(gap, Fraction(1, qn_next)) <= 0


# -- text formats -----------------------------------------------------------


def test_parse_format_roundtrip():
    for text in ["[0]", "[-1;1]", "[3;7,16]", "[0;2,(2)]", "[1;(1)]", "[0;1,2,(3,4)]"]:
        assert format_cf(parse_cf(text)) == text


_QUOTIENTS = st.lists(st.integers(1, 10**6), max_size=6).map(tuple)


@given(st.integers(-10**6, 10**6), _QUOTIENTS, _QUOTIENTS)
def test_parse_cf_inverts_format_cf(a0, partials, period):
    cf = CFExpansion(a0, partials, period)
    assert parse_cf(format_cf(cf)) == cf


_RATIONALS = st.fractions(max_denominator=10**9)
_SURDS = st.builds(QuadraticIrrational, st.integers(-10**6, 10**6),
                   st.integers(1, 10**6) | st.integers(-10**6, -1),
                   st.integers(1, 10**6) | st.integers(-10**6, -1),
                   st.integers(2, 10**6))


@given(_RATIONALS | _SURDS)
def test_parse_exact_inverts_format_exact(x):
    assert parse_exact(format_exact(x)) == x


def test_parse_exact_forms():
    assert parse_exact("22/7") == Fraction(22, 7)
    assert parse_exact("-3") == Fraction(-3)
    assert parse_exact("(1+1*sqrt(2))/1") == 1 + S2
    assert parse_exact("[0;2,(2)]") == S2 - 1
    assert format_exact(S2 - 1) == "(-1+1*sqrt(2))/1"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cf("[1;2,,3]")
    with pytest.raises(ValueError):
        parse_exact("sqrt(2)/oops")


def test_farey_grid():
    f = farey_fractions(5)
    assert f[0] == 0 and f[-1] == 1
    assert Fraction(2, 5) in f and Fraction(1, 2) in f
    assert all(f[i] < f[i + 1] for i in range(len(f) - 1))
    assert len(f) == 1 + sum(1 for q in range(1, 6) for p in range(0, q + 1)
                             if math.gcd(p, q) == 1 and p <= q) - 1
    assert farey_fractions(1) == [Fraction(0), Fraction(1)]
    for qmax in (0, -5):
        with pytest.raises(DomainError):
            farey_fractions(qmax)
