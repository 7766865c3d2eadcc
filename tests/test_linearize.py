import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from siegelkit import linearize
from siegelkit.cf import (
    LONG_FORM,
    SHORT_FORM,
    CFExpansion,
    cf_of_quadratic_irrational,
    cf_of_rational,
    special_sequence_main,
)
from siegelkit.errors import DomainError, OverflowGuard, SmallDivisorBlowup
from siegelkit.germs import (
    TWO_PI_I,
    FlowFamily,
    Germ,
    QuadraticFamily,
    RotationFamily,
    phase_fracs,
)
from siegelkit.linearize import (
    EscapeParams,
    LinearizationSeries,
    _bisect,
    _divisor,
    _orbits_stay,
    compose_check,
    escape_radii,
    escape_radius,
    hadamard_radius,
    linearization_coeffs,
    linearizations,
    pole_cancellation_probe,
)
from siegelkit.series import circle_majorants, polyval_vec
from siegelkit.surd import QuadraticIrrational

from .oracles import (
    mobius_psi_inv,
    sequential_escape_bisection,
    sequential_escape_radius,
    sequential_linearization_coeffs,
    small_divisor,
)

GOLDEN = QuadraticIrrational(-1, 1, 2, 5)
QUAD = QuadraticFamily()


def brute_force_coeffs(g, N):
    """Independent undetermined-coefficients solve with plain python lists."""
    rho = g.multiplier()
    deg = g.order
    b = [0j] * (deg + 1)
    for m in range(2, deg + 1):
        b[m] = complex(g.coeffs[m - 2])
    a = [0j] * (N + 1)
    a[1] = 1.0 + 0j
    for n in range(2, N + 1):
        phi = a[:n]  # known coefficients, indices 0..n-1
        total = 0j
        power = phi[:]
        for m in range(2, min(deg, n) + 1):
            new = [0j] * (n + 1)
            for i, ci in enumerate(power):
                if ci == 0:
                    continue
                for j, cj in enumerate(phi):
                    if i + j <= n:
                        new[i + j] += ci * cj
            power = new
            total += b[m] * power[n]
        a[n] = total / (rho ** n - rho)
    return a


def random_bounded_type(rng):
    a0 = 0
    pre = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 3)))
    per = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
    return CFExpansion(a0, pre, per).value()


def test_rotation_series_is_identity():
    lin = linearization_coeffs(RotationFamily().at(GOLDEN, 8), 12)
    assert np.all(lin.a[2:] == 0)
    assert compose_check(RotationFamily().at(GOLDEN, 8), lin) == 0.0


def test_a2_closed_form():
    g = QUAD.at(GOLDEN, 8)
    lin = linearization_coeffs(g, 4)
    rho = g.multiplier()
    assert abs(lin.a[2] - 1.0 / (rho ** 2 - rho)) < 1e-14


def test_recursion_matches_brute_force_random():
    rng = random.Random(42)
    nprng = np.random.default_rng(42)
    for _ in range(12):
        alpha = random_bounded_type(rng)
        deg = rng.randint(2, 5)
        coeffs = 0.6 * (nprng.normal(size=deg - 1) + 1j * nprng.normal(size=deg - 1))
        g = Germ(alpha=alpha, coeffs=coeffs)
        N = 25
        lin = linearization_coeffs(g, N)
        bf = brute_force_coeffs(g, N)
        for n in range(2, N + 1):
            rel = abs(lin.a[n] - bf[n]) / max(1e-30, abs(bf[n]))
            assert rel < 1e-12, (n, alpha)
        resid = compose_check(g, lin)
        assert resid <= 1e-10 * max(1.0, float(np.max(np.abs(lin.a))))


def test_compose_check_detects_corruption():
    g = QUAD.at(GOLDEN, 8)
    lin = linearization_coeffs(g, 30)
    lin.a[2] += 1e-3
    assert compose_check(g, lin) >= 1e-4


def test_small_divisor_exact_predicate():
    # for rational p/q the divisor vanishes exactly iff q | (n-1), n > 1
    g = QUAD.at(Fraction(2, 5), 8)
    try:
        lin = linearization_coeffs(g, 12, allow_rational=True)
        sd = lin.small_divisor_log
        top = lin.order
    except SmallDivisorBlowup:
        lin = linearization_coeffs(g, 12, allow_rational=True, on_failure="truncate")
        sd = lin.small_divisor_log
        top = lin.order
    for n in range(2, top + 1):
        if (n - 1) % 5 == 0:
            assert sd[n] == -math.inf
        else:
            assert math.isfinite(sd[n])


@pytest.mark.parametrize("alpha", [
    Fraction(2, 7), GOLDEN,
    special_sequence_main(cf_of_rational(Fraction(1, 3), SHORT_FORM), 2),
    special_sequence_main(cf_of_rational(Fraction(5, 8), LONG_FORM), 3),
    special_sequence_main(cf_of_rational(Fraction(7, 13), SHORT_FORM), 4),
    -0.6180339887498949,
], ids=["2/7", "golden", "seq-1/3", "seq-5/8", "seq-7/13", "float"])
def test_divisor_matches_per_index_reference(alpha):
    rho = RotationFamily().at(alpha, 8).multiplier()
    phases = phase_fracs(alpha, 300)
    for n in range(2, 301):
        assert _divisor(phases[n - 1], rho) == small_divisor(alpha, n)


def test_rational_requires_opt_in():
    with pytest.raises(DomainError):
        linearization_coeffs(QUAD.at(Fraction(1, 2), 8), 8)


def test_order_below_one_is_rejected():
    with pytest.raises(DomainError):
        linearization_coeffs(QUAD.at(GOLDEN, 8), 0)
    assert linearization_coeffs(QUAD.at(GOLDEN, 8), 1).order == 1


def test_blowup_and_truncate_modes():
    g = QUAD.at(Fraction(1, 2), 8)
    with pytest.raises(SmallDivisorBlowup):
        linearization_coeffs(g, 8, allow_rational=True)
    part = linearization_coeffs(g, 8, allow_rational=True, on_failure="truncate")
    assert part.order == 2  # pole at n = 3 for q = 2


def test_overflow_guard(monkeypatch):
    monkeypatch.setattr(linearize, "MAG_CAP", 1.0)
    g = QUAD.at(GOLDEN, 8)
    with pytest.raises(OverflowGuard):
        linearization_coeffs(g, 64)


def test_rotation_pole_probe_trivial():
    rep = pole_cancellation_probe(RotationFamily(), 0, 1, 2)
    assert all(r["P_abs"] == 0.0 for r in rep["rows"])
    assert rep["verdict"] == "cancellation"


def test_quadratic_pole_probe():
    rep = pole_cancellation_probe(QUAD, 0, 1, 2)
    assert rep["verdict"] == "pole"
    # |a_2| ~ 1/|rho^2 - rho| grows along the approach
    a_abs = [r["a_abs"] for r in rep["rows"]]
    assert a_abs[-1] > 100 * a_abs[0]


def test_flow_pole_probe_cancellation():
    fam = FlowFamily([0.0, 0.0, 1.0], restriction_radius=0.5)
    rep = pole_cancellation_probe(fam, 1, 3, 4)
    assert rep["verdict"] == "cancellation"
    p_abs = [r["P_abs"] for r in rep["rows"]]
    assert p_abs[-1] < 1e-3 * p_abs[0]


def test_pole_probe_validates_indices():
    with pytest.raises(DomainError):
        pole_cancellation_probe(QUAD, 1, 3, 5)  # 3 does not divide 4


def test_pole_probe_reports_an_offset_that_stops_below_n():
    # 2/5 + 1/10 = 1/2 has its pole at n = 3; the other offsets reach n = 6
    # with the values they get alone, and the verdict reads only them
    rep = pole_cancellation_probe(QUAD, 2, 5, 6)
    stopped, *rest = rep["rows"]
    assert stopped["alpha"] == "1/2" and "P_abs" not in stopped
    assert stopped["stop"].startswith("SmallDivisorBlowup: pole at n=3")
    for row in rest:
        alone = linearization_coeffs(QUAD.at(Fraction(row["alpha"]), 8), 6, allow_rational=True)
        assert (row["P_abs"], row["a_abs"]) == (float(alone.numerators[6]), float(abs(alone.a[6])))
    assert rep["verdict"] == "pole"


def test_pole_probe_with_no_offset_reaching_n_raises_the_first_stop(monkeypatch):
    monkeypatch.setattr(linearize, "MAG_CAP", 1e-3)
    with pytest.raises(OverflowGuard, match="a_2"):
        pole_cancellation_probe(QUAD, 0, 1, 2)


# -- lock-step batches ---------------------------------------------------------

# One order N = 40 for the pool: quadratic germs (order 2), flow germs of
# order 24 (c_2 = 3 gives numerical poles at rationals), a rotation (order 1,
# no power table) and a cubic with a float alpha whose phase (n-1) alpha
# rounds to 0 at n = 11.  Rationals, surds and floats; at the default cap a
# pole ends 8 of the 16 series, at cap 1e3 five overflow (5/13 before its pole).
_LIN_N = 40
_LIN_POOL = (
    [QUAD.at(a, 8) for a in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 7),
                             GOLDEN, QuadraticIrrational(0, 1, 1, 2) - 1,
                             0.3183098861837907, 0.25 + 1e-9, Fraction(5, 13))]
    + [FlowFamily([1.0], 0.5).at(a, 24) for a in (GOLDEN, Fraction(1, 3))]
    + [FlowFamily([3.0], 0.5).at(a, 24) for a in (Fraction(2, 7), Fraction(1, 3), GOLDEN)]
    + [RotationFamily().at(GOLDEN, 8), Germ(0.1, np.array([0.3 - 0.2j, 0.5j]))])
_LIN_CAPS = (linearize.MAG_CAP, 1e3)


def _same_series(x, y):
    return (x.order == y.order
            and (type(x.stop), str(x.stop)) == (type(y.stop), str(y.stop))
            and x.a.tobytes() == y.a.tobytes()
            and x.small_divisor_log.tobytes() == y.small_divisor_log.tobytes()
            and x.numerators.tobytes() == y.numerators.tobytes())


def _oracle(i, **options):
    """The pool germ's sequential series, or its (type, message) failure."""
    try:
        return sequential_linearization_coeffs(_LIN_POOL[i], _LIN_N, **options)
    except Exception as exc:
        return type(exc), str(exc)


def _table_bytes(germs_per_block):
    """A budget that fits this many quadratic germs' tables at order
    _LIN_N (a flow germ's table is larger: one germ a block)."""
    return germs_per_block * 16 * 3 * (_LIN_N + 1)


def test_lin_pool_spans_poles_and_overflow():
    for cap, failures in zip(_LIN_CAPS, ({SmallDivisorBlowup: 8}, {SmallDivisorBlowup: 7,
                                                                    OverflowGuard: 5})):
        out = [_oracle(i, allow_rational=True, mag_cap=cap) for i in range(len(_LIN_POOL))]
        kinds = [o[0] for o in out if isinstance(o, tuple)]
        assert {k: kinds.count(k) for k in set(kinds)} == failures


_picks = st.lists(st.integers(0, len(_LIN_POOL) - 1), min_size=1, max_size=10)


@settings(max_examples=40, deadline=None)
@given(_picks, st.sampled_from(_LIN_CAPS), st.sampled_from([None, 1, 2, 3]))
def test_linearizations_match_sequential_oracle(picks, cap, per_block):
    # mixed batches, truncating at poles and overflow, in one block or in
    # blocks of 1-3 germs: bit for bit the per-germ loop's series
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linearize, "MAG_CAP", cap)
        if per_block is not None:
            mp.setattr(linearize, "TABLE_BYTES", _table_bytes(per_block))
        got = linearizations([_LIN_POOL[i] for i in picks], _LIN_N, allow_rational=True,
                             on_failure="truncate")
    for i, phi in zip(picks, got):
        assert _same_series(phi, _oracle(i, allow_rational=True, mag_cap=cap,
                                         on_failure="truncate")), i


@settings(max_examples=30, deadline=None)
@given(_picks)
def test_linearizations_batch_independent(picks):
    # random subsets, orders and duplicates: each series is the germ's own
    got = linearizations([_LIN_POOL[i] for i in picks], _LIN_N, allow_rational=True,
                         on_failure="truncate")
    for i, phi in zip(picks, got):
        alone = linearization_coeffs(_LIN_POOL[i], _LIN_N, allow_rational=True,
                                     on_failure="truncate")
        assert _same_series(phi, alone)


@settings(max_examples=40, deadline=None)
@given(_picks, st.sampled_from(_LIN_CAPS), st.booleans(), st.sampled_from([None, 1, 2]))
@example([0, 2], _LIN_CAPS[0], True, None)    # the earlier germ fails first
@example([2, 0], _LIN_CAPS[0], True, None)    # the later germ fails first
@example([4, 8], _LIN_CAPS[1], True, None)    # both overflow at n = 12
@example([7, 1], _LIN_CAPS[1], False, None)   # overflow before a refused rational
@example([1, 7], _LIN_CAPS[1], False, None)
def test_linearizations_raise_like_the_sequential_loop(picks, cap, allow_rational,
                                                       per_block):
    # the first germ in input order that fails raises its own error, whatever
    # later germs do and at whatever index; without allow_rational a
    # rational fails before its recursion starts
    expected = [_oracle(i, allow_rational=allow_rational, mag_cap=cap) for i in picks]
    failures = [e for e in expected if isinstance(e, tuple)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linearize, "MAG_CAP", cap)
        if per_block is not None:
            mp.setattr(linearize, "TABLE_BYTES", _table_bytes(per_block))
        if failures:
            with pytest.raises(failures[0][0]) as info:
                linearizations([_LIN_POOL[i] for i in picks], _LIN_N,
                               allow_rational=allow_rational)
            assert str(info.value) == failures[0][1]
        else:
            got = linearizations([_LIN_POOL[i] for i in picks], _LIN_N,
                                 allow_rational=allow_rational)
            assert all(_same_series(x, y) for x, y in zip(got, expected))


def test_linearizations_split_into_blocks(monkeypatch):
    # five quadratic germs in blocks of two; the flow germs, whose tables are
    # larger, and the rotation one a block each
    calls = []
    real = linearize._recursion

    def counted(germs, *args):
        calls.append([g.alpha for g in germs])
        return real(germs, *args)

    monkeypatch.setattr(linearize, "_recursion", counted)
    monkeypatch.setattr(linearize, "TABLE_BYTES", _table_bytes(2))
    picks = [4, 9, 5, 0, 10, 6, 1, 14]
    got = linearizations([_LIN_POOL[i] for i in picks], _LIN_N, allow_rational=True,
                         on_failure="truncate")
    assert sorted(map(len, calls)) == [1, 1, 1, 1, 2, 2]
    for i, phi in zip(picks, got):
        assert _same_series(phi, _oracle(i, allow_rational=True, on_failure="truncate"))


def test_linearizations_of_no_germs():
    assert linearizations([], 8) == []


# -- hadamard ----------------------------------------------------------------


def test_hadamard_rotation_degenerate():
    lin = linearization_coeffs(RotationFamily().at(GOLDEN, 8), 64)
    est = hadamard_radius(lin, window=32)
    assert est.upper == math.inf
    assert "degenerate" in est.diagnostics


def test_hadamard_golden_window_stability():
    lin = linearization_coeffs(QUAD.at(GOLDEN, 8), 512)
    r128 = hadamard_radius(lin, 128).upper
    r256 = hadamard_radius(lin, 256).upper
    assert abs(r128 - r256) / r256 < 0.02


def test_hadamard_deterministic():
    lin1 = linearization_coeffs(QUAD.at(QuadraticIrrational(0, 1, 1, 2) - 1, 8), 256)
    lin2 = linearization_coeffs(QUAD.at(QuadraticIrrational(0, 1, 1, 2) - 1, 8), 256)
    assert hadamard_radius(lin1, 96).upper == hadamard_radius(lin2, 96).upper


def test_hadamard_window_validation():
    lin = linearization_coeffs(QUAD.at(GOLDEN, 8), 64)
    with pytest.raises(DomainError):
        hadamard_radius(lin, 8)
    with pytest.raises(DomainError):
        hadamard_radius(lin, 128)


# -- escape ------------------------------------------------------------------


def test_escape_rotation_full_disk():
    g = RotationFamily().at(GOLDEN, 8)
    lin = linearization_coeffs(g, 32)
    est = escape_radius(g, lin, EscapeParams(max_iter=1500))
    assert est.lower >= 1 - 2e-3
    assert est.upper == 1.0


def test_escape_bracket_and_cross_consistency():
    g = QUAD.at(GOLDEN, 8)
    lin = linearization_coeffs(g, 256)
    est = escape_radius(g, lin, EscapeParams(max_iter=4000))
    had = hadamard_radius(lin, 128)
    assert 0 < est.lower <= est.upper
    assert est.upper - est.lower <= 2 * 1e-3
    assert est.lower <= had.upper + 0.02


def test_escape_parabolic_half():
    g = QUAD.at(Fraction(1, 2), 8)
    part = linearization_coeffs(g, 64, allow_rational=True, on_failure="truncate")
    est = escape_radius(g, part, EscapeParams(max_iter=100_000))
    assert est.lower < 1e-2  # non-linearizable verdict at tolerance
    assert est.upper <= 1e-2


def test_escape_upper_monotone_in_max_iter():
    g = QUAD.at(Fraction(0), 8)
    part = linearization_coeffs(g, 16, allow_rational=True, on_failure="truncate")
    uppers = [escape_radius(g, part, EscapeParams(max_iter=it)).upper
              for it in (100, 1000, 10000)]
    assert all(uppers[i + 1] <= uppers[i] + 1e-12 for i in range(len(uppers) - 1))


def test_orbit_kernel_checks_every_step():
    # w -> r w with r = 2, 2, 1, nan: groups leave at steps 2 and 3, the
    # third stays and the NaN orbit counts as escaped after its first step
    w = np.array([[0.3 + 0j], [0.2 + 0j], [0.9 + 0j], [0.1 + 0j]])
    rows = np.array([[2.0], [2.0], [1.0], [math.nan]])
    scale = lambda w, r: r * w
    assert list(_orbits_stay(scale, w, 1, rows=rows)) == [True, True, True, False]
    assert list(_orbits_stay(scale, w, 2, rows=rows)) == [False, True, True, False]
    assert list(_orbits_stay(scale, w, 3, rows=rows)) == [False, False, True, False]


def _nan_in_chart():
    g = QUAD.at(GOLDEN, 8)
    lin = linearization_coeffs(g, 48)
    lin.a[5] = complex(math.nan, 0.0)
    return g, lin


def _nan_in_germ():
    chart = LinearizationSeries(np.array([0, 1], dtype=complex), np.zeros(2), np.zeros(2),
                                None)
    return Germ(GOLDEN, np.array([math.nan + 0j])), chart


@pytest.mark.parametrize("case", [_nan_in_chart, _nan_in_germ])
def test_escape_nan_is_never_valid(case):
    g, phi = case()
    est = escape_radius(g, phi, EscapeParams(max_iter=50, circle_samples=8))
    assert est.diagnostics == "NoValidRadius: non-linearizable at tolerance"
    assert est.lower == 0.0


@pytest.mark.parametrize("order", [64, 128])
@pytest.mark.parametrize("c_prime", [0.5, 1.0, 2.0])
def test_flow_series_is_the_inverse_linearizer(c_prime, order):
    # a flow's linearization is psi^{-1}; at c' = 3 the recursion's own
    # rounding leaves 1e-7 at order 64 even on the closed-form germ
    phi = linearization_coeffs(FlowFamily([c_prime], 1.0).at(GOLDEN, order), order)
    assert phi.order == order
    assert np.max(np.abs(phi.a - mobius_psi_inv(c_prime, order))) <= 1e-15


# -- metamorphic relations: no oracle, bit for bit --------------------------------
# Restricting a germ to radius s conjugates it by z -> s z, so the series
# scales as a_n(s) = a_n(1) s^(n-1), and at s a power of two the recursion
# rounds both alike.  The multiplier reads alpha mod 1, so alpha and alpha + 1
# give one germ and one series.


@pytest.mark.parametrize("fam_1,fam_s,s,order,N", [
    (QuadraticFamily(1.0), QuadraticFamily(0.5), 0.5, 128, 128),
    (QuadraticFamily(1.0), QuadraticFamily(0.25), 0.25, 128, 128),
    (FlowFamily([3.0], 1.0), FlowFamily([3.0], 0.5), 0.5, 32, 64),
], ids=["quadratic-0.5", "quadratic-0.25", "flow-c3-0.5"])
def test_restriction_scales_the_series(fam_1, fam_s, s, order, N):
    a_1 = linearization_coeffs(fam_1.at(GOLDEN, order), N).a
    a_s = linearization_coeffs(fam_s.at(GOLDEN, order), N).a
    assert a_s.tobytes() == (a_1 * s ** (np.arange(N + 1) - 1.0)).tobytes()


@pytest.mark.parametrize("alpha", [GOLDEN, Fraction(2, 7)], ids=["golden", "2/7"])
@pytest.mark.parametrize("fam,order,N", [(QuadraticFamily(), 128, 128),
                                         (FlowFamily([3.0], 1.0), 32, 64)],
                         ids=["quadratic", "flow-c3"])
def test_alpha_and_alpha_plus_one_give_one_germ_and_series(fam, order, N, alpha):
    g, g_1 = fam.at(alpha, order), fam.at(alpha + 1, order)
    assert g_1.multiplier() == g.multiplier() and g_1.coeffs.tobytes() == g.coeffs.tobytes()
    phi, phi_1 = (linearization_coeffs(x, N, allow_rational=True, on_failure="truncate")
                  for x in (g, g_1))
    assert _same_series(phi_1, phi)


def test_escape_params_record_the_cap(monkeypatch):
    # a radius valid at the cap reads the cap as its lower end
    monkeypatch.setattr(linearize, "ESCAPE_CAP", 0.9)
    g = RotationFamily().at(GOLDEN, 8)
    p = EscapeParams(max_iter=20, circle_samples=8)
    est = escape_radius(g, linearization_coeffs(g, 16), p)
    assert (est.lower, est.upper) == (0.9, 1.0)
    assert est.params == {"max_iter": 20, "circle_samples": 8, "bisect_tol": 1e-3,
                          "residual_tol": 1e-8}


def test_escape_radii_match_sequential_bisection():
    # one lock-step call over germ rows of three lengths (quadratic 3, flow 25
    # via the power table, rotation 2), full and partial charts; every
    # bracket must equal the one-at-a-time loop's
    flow = FlowFamily([1.0], 0.5)
    germs = [QUAD.at(a, 8) for a in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5),
                                     GOLDEN, QuadraticIrrational(-1, 1, 1, 2))]
    germs += [flow.at(a, 24) for a in (GOLDEN, Fraction(1, 3))]
    germs.append(RotationFamily().at(GOLDEN, 8))
    phis = [linearization_coeffs(g, 48, allow_rational=True, on_failure="truncate")
            for g in germs]
    p = EscapeParams(max_iter=300, circle_samples=16, bisect_tol=4e-3)
    got = [(e.lower, e.upper, e.diagnostics) for e in escape_radii(germs, phis, p)]
    assert got == [sequential_escape_radius(g, phi, p) for g, phi in zip(germs, phis)]
    assert {d.split(":")[0] for _, _, d in got} == {
        "NoValidRadius", "bracket from bisection", "valid up to the cap"}


# Orbit verdicts by radius, not monotone, for rotation germs (one with a zero
# z^2 term, a longer coefficient row) under the chart phi(z) = c z: c = 2
# leaves the disk from r = 1/2 on, and c = 1 passes the chart and residual
# screens exactly.
_ESCAPE_TABLES = [
    (1, lambda r: r < 0.3 or 0.5 < r < 0.7),          # island above a gap
    (2, lambda r: not 0.2 < r < 0.25),                # chart failures above 1/2
    (1, lambda r: r > 0.9),                           # valid at the cap
    (1, lambda r: False),                             # no valid radius
    (1, lambda r: r < 0.45 or 0.8 < r < 0.85),        # longer row
    (2, lambda r: 0.1 < r < 0.15 or 0.3 < r),         # chart and orbit gaps
]


def test_escape_radii_chain_follows_sequential_path(monkeypatch):
    p = EscapeParams(max_iter=1, circle_samples=8, bisect_tol=1e-2)
    alphas = [Fraction(1, k) for k in range(3, 3 + len(_ESCAPE_TABLES))]
    germs = [Germ(a, np.zeros(int(k == 4), dtype=complex)) for k, a in enumerate(alphas)]
    phis = [LinearizationSeries(np.array([0, c], dtype=complex), np.zeros(2), np.zeros(2), None)
            for c, _ in _ESCAPE_TABLES]
    which = {g.multiplier(): k for k, g in enumerate(germs)}
    ring = np.exp(TWO_PI_I * np.arange(p.circle_samples) / p.circle_samples)
    calls = []

    def kernel(step, w, max_iter, rows=None, inside=None):
        tested = []
        for start, row in zip(w, rows):
            k = which[row[0, 1]]
            # the start point phi(r) = c r is exact, so is the radius read back
            tested.append((k, abs(start[0]) / _ESCAPE_TABLES[k][0]))
        calls.append(tested)
        return np.array([_ESCAPE_TABLES[k][1](r) for k, r in tested], dtype=bool)

    def valid(k, r):
        c, table = _ESCAPE_TABLES[k]
        chart_ok = np.all(np.abs(polyval_vec(phis[k].a, r * ring)) < 1)
        return bool(chart_ok) and table(r)

    asked = []
    sequential = [sequential_escape_bisection(lambda r: asked.append(r) or valid(k, r), p)
                  for k in range(len(germs))]
    monkeypatch.setattr(linearize, "_orbits_stay", kernel)
    got = [(e.lower, e.upper, e.diagnostics) for e in escape_radii(germs, phis, p)]
    assert got == sequential
    assert {d.split(":")[0] for _, _, d in got} == {
        "NoValidRadius", "bracket from bisection", "valid up to the cap"}
    assert len(calls) < len(asked)
    tested = [x for batch in calls for x in batch]
    assert len(set(tested)) == len(tested)  # no radius is tested twice


def test_bisect_closes_at_adjacent_floats():
    # below the float spacing no midpoint lies strictly inside, which closes
    # the bracket whatever the tolerance
    lo, hi = [0.0], [1.0]
    _bisect(lambda i, r: r, lambda points: [r < 0.3 for _, r in points], lo, hi,
            5e-324, stay_above=False)
    assert lo[0] < 0.3 <= hi[0] == math.nextafter(lo[0], 1.0)


_POOL_PARAMS = EscapeParams(max_iter=120, circle_samples=8, bisect_tol=1e-2)


def _batch_pool():
    """Mixed (germ, chart) pool: rationals with partial charts, surds with full
    ones and a flow germ (a longer coefficient row)."""
    flow = FlowFamily([1.0], 0.5)
    germs = [QUAD.at(a, 8) for a in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), GOLDEN,
                                     QuadraticIrrational(0, 1, 1, 2) - 1)]
    germs.append(flow.at(GOLDEN, 24))
    pool = [(g, linearization_coeffs(g, 32, allow_rational=True, on_failure="truncate"))
            for g in germs]
    return [(g, phi, escape_radius(g, phi, _POOL_PARAMS)) for g, phi in pool]


_POOL = _batch_pool()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=8))
def test_escape_radii_batch_independent(picks):
    # random subsets, orders and duplicates: a batch's brackets equal each
    # entry's own run
    got = escape_radii([_POOL[i][0] for i in picks], [_POOL[i][1] for i in picks],
                       _POOL_PARAMS)
    assert [(e.lower, e.upper, e.diagnostics) for e in got] == [
        (_POOL[i][2].lower, _POOL[i][2].upper, _POOL[i][2].diagnostics) for i in picks]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 300), st.integers(0, 300))
def test_escape_upper_monotone_in_budget_pairs(a, b):
    # a radius valid at the larger budget is valid at the smaller one, so
    # where the two bisections first part the larger budget lowers hi to a
    # radius at or below the smaller budget's final upper.
    germs = [g for g, _, _ in _POOL]
    phis = [phi for _, phi, _ in _POOL]
    small, big = (escape_radii(germs, phis, dataclasses.replace(_POOL_PARAMS, max_iter=it))
                  for it in sorted((a, b)))
    assert all(e_big.upper <= e_small.upper for e_small, e_big in zip(small, big))


@pytest.mark.parametrize("bad", [
    {"bisect_tol": 0.0}, {"bisect_tol": -1.0}, {"bisect_tol": math.nan},
    {"bisect_tol": math.inf}, {"residual_tol": 0.0}, {"residual_tol": math.nan},
    {"circle_samples": 0}, {"max_iter": -1}, {"residual_tol": -1.0}, {"residual_tol": math.inf},
    {"max_iter": "300"}, {"max_iter": 2.5}, {"max_iter": True}, {"circle_samples": 2.5},
    {"circle_samples": True}, {"circle_samples": 8.0}, {"max_iter": math.nan},
])
def test_escape_params_reject_bad_values(bad):
    with pytest.raises(DomainError):
        EscapeParams(**bad)


def test_escape_params_take_numpy_integers():
    p = EscapeParams(max_iter=np.int64(0), circle_samples=np.int32(8))
    assert (p.max_iter, p.circle_samples) == (0, 8)


def test_escape_radii_needs_one_chart_per_germ():
    with pytest.raises(DomainError):
        escape_radii([QUAD.at(GOLDEN, 8)], [], EscapeParams())


# -- boundary norms ------------------------------------------------------------


def test_boundary_norms_rotation():
    lin = linearization_coeffs(RotationFamily().at(GOLDEN, 8), 64)
    assert circle_majorants(lin.a, 0.5, 3) == [0.5, 1.0, 0.0, 0.0]


def test_boundary_norms_match_dense_sampling():
    g = QUAD.at(GOLDEN, 8)
    lin = linearization_coeffs(g, 256)
    rho = 0.15
    major = circle_majorants(lin.a, rho, 0)[0]
    zs = rho * np.exp(2j * np.pi * np.arange(4096) / 4096)
    dense = float(np.max(np.abs(polyval_vec(lin.a, zs))))
    # a bound, not an estimate, yet tight on this chart
    assert dense <= major < 1.01 * dense


def test_boundary_norms_nearby_alpha_difference_decreases():
    cf = cf_of_quadratic_irrational(GOLDEN)
    rho = 0.12
    base = linearization_coeffs(QUAD.at(GOLDEN, 8), 128)
    gaps = []
    for n in (2, 5, 8):
        other = linearization_coeffs(QUAD.at(special_sequence_main(cf, n), 8), 128)
        diff = base.a - other.a
        zs = rho * np.exp(2j * np.pi * np.arange(256) / 256)
        from siegelkit.series import polyval_vec
        gaps.append(float(np.max(np.abs(polyval_vec(diff, zs)))))
    assert gaps[0] > gaps[1] > gaps[2]


def test_upper_semicontinuity_trend():
    # max over nearby grid points of (r_est(x) - r_est(golden)) stays below a
    # grid-scale tolerance that does not grow as the grid refines
    from siegelkit.scan import estimate_radii, ScanParams
    p = ScanParams(order=16, lin_order=96,
                   escape=EscapeParams(max_iter=1500, circle_samples=24, bisect_tol=2e-3))
    base = estimate_radii(QUAD, [GOLDEN], p)[0].lower
    excesses = []
    for delta_pow in (6, 8, 10):
        delta = Fraction(1, 2 ** delta_pow)
        vals = [e.lower for e in estimate_radii(QUAD, [GOLDEN + s * delta
                                                       for s in (-2, -1, 1, 2)], p)]
        excesses.append(max(v - base for v in vals))
    assert excesses[-1] <= max(excesses[0], 0.0) + 0.02
