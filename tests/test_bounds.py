import math
import os
from dataclasses import replace
from fractions import Fraction

import pytest

from siegelkit.bounds import (
    ConstantConfig,
    DEFAULT_CONFIG,
    brjuno_sum,
    config_from_mapping,
    const_C,
    const_Cdoubleprime,
    const_Cprime,
    format_config,
    load_config,
)
from siegelkit.cf import CFExpansion, cf_of_rational, cf_of_quadratic_irrational, parse_cf, special_sequence_main
from siegelkit.errors import DomainError
from siegelkit.surd import QuadraticIrrational

from .oracles import (
    cdoubleprime_relation_gap,
    const_Cprime_numeric,
    is_bounded_type,
    special_sequence_bound,
)


GOLDEN_CF = parse_cf("[1;(1)]")


def direct_sum_oracle(cf, depth):
    total = 0.0
    for n in range(depth):
        total += math.log(cf.convergent(n + 1).q) / cf.convergent(n).q
    return total


def test_brjuno_golden_matches_oracle():
    bv = brjuno_sum(GOLDEN_CF, depth=80, tol=1e-12)
    assert bv.converged  # geometric tail certificate under the tolerance
    assert math.isfinite(bv.value)
    assert abs(bv.value - direct_sum_oracle(GOLDEN_CF, 80)) < 1e-12


def test_brjuno_rational_infinite():
    bv = brjuno_sum(cf_of_rational(Fraction(1, 2)), depth=40, tol=1e-12)
    assert bv.value == math.inf and bv.converged


def test_brjuno_fast_growth_prefix_no_convergence():
    quots = [2 ** (2 ** n) for n in range(1, 6)]
    cf = CFExpansion(0, tuple(quots))
    b3 = brjuno_sum(cf, depth=3, tol=1e-12)
    b4 = brjuno_sum(cf, depth=4, tol=1e-12)
    assert not b3.converged and not b4.converged
    assert b4.value > b3.value > 0.5  # partial value keeps growing


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_brjuno_rejects_bad_tolerance(tol):
    # a tolerance no tail can get under (or that any tail does) certifies nothing
    with pytest.raises(DomainError):
        brjuno_sum(GOLDEN_CF, depth=10, tol=tol)


@pytest.mark.parametrize("depth,tol,converged", [
    (1480, 1e-320, False),  # q_1480 has no float, but the tail bound is 1.3e-306
    (1480, 1e-300, True),
    (5000, 1e-320, True),   # the tail bound is about 1e-1041, below every float
])
def test_brjuno_tail_past_float_range_keeps_its_size(depth, tol, converged):
    bv = brjuno_sum(parse_cf("[0;(1)]"), depth=depth, tol=tol)
    assert bv.converged is converged


def test_brjuno_monotone_in_depth():
    vals = [brjuno_sum(GOLDEN_CF, depth=d, tol=1e-12).value for d in (5, 10, 20, 40)]
    assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))


def test_bounded_type():
    assert is_bounded_type(parse_cf("[2;(2)]"), 2)
    assert not is_bounded_type(parse_cf("[2;(2)]"), 1)
    assert not is_bounded_type(parse_cf("[0;1,2,3,4,(1)]"), 3)
    assert not is_bounded_type(cf_of_rational(Fraction(3, 7)), 100)


def test_special_sequence_outputs_bounded_type():
    cf = GOLDEN_CF
    # the uniform bound for the default tail 1 + sqrt(2) = [2;(2)]
    K = special_sequence_bound(cf, cf_of_quadratic_irrational(QuadraticIrrational(1, 1, 1, 2)))
    assert K == 2
    for n in range(4):
        val = special_sequence_main(cf, n)
        e = cf_of_quadratic_irrational(val)
        assert is_bounded_type(e, K)
        assert not is_bounded_type(e, K - 1)  # the bumped quotient reaches K


# -- constants ---------------------------------------------------------------


def test_const_C_trivial():
    assert const_C(1.0, 1, DEFAULT_CONFIG) == DEFAULT_CONFIG.c1


def test_const_C_large_q_bound():
    K = 7.0
    val = const_C(K, 10**6, DEFAULT_CONFIG)
    assert val < 1e-4 * (math.log(K) + DEFAULT_CONFIG.c1 + 14)


def test_const_C_direct_eval():
    K, q = math.e, 3
    assert abs(const_C(K, q, DEFAULT_CONFIG) - (math.log(q) + 1.0 + DEFAULT_CONFIG.c1) / q) < 1e-15


def test_cprime_closed_form_vs_golden_section():
    for K in (1.0, 10.0, 100.0):
        for q in (1, 2, 10, 100):
            a = const_Cprime(K, q, DEFAULT_CONFIG)
            b = const_Cprime_numeric(K, q)
            assert abs(a - b) < 1e-10, (K, q, a, b)


def test_cprime_paper_shape_bound():
    # C'(K,q) <= (log K + 4 log q + c2)/q holds for c2 = c1 + log 9 + 3.9
    # (derived from the closed form)
    c2_eff = DEFAULT_CONFIG.c1 + math.log(9.0) + 3.9
    for K in (1.0, 5.0, 50.0):
        for q in (1, 2, 3, 8, 64, 1024):
            assert (const_Cprime(K, q, DEFAULT_CONFIG)
                    <= (math.log(K) + 4 * math.log(q) + c2_eff) / q)


def test_cprime_monotone_in_K():
    for q in (1, 4, 9):
        vals = [const_Cprime(K, q, DEFAULT_CONFIG) for K in [1 + 0.25 * j for j in range(40)]]
        assert all(vals[i] <= vals[i + 1] + 1e-14 for i in range(len(vals) - 1))


def test_objective_strictly_convex():
    from siegelkit.bounds import _cprime_objective
    for q in (1, 5, 20):
        eps = [0.02 * j for j in range(1, 49)]
        vals = [_cprime_objective(e, 3.0, q, DEFAULT_CONFIG) for e in eps]
        second = [vals[i - 1] - 2 * vals[i] + vals[i + 1] for i in range(1, len(vals) - 1)]
        assert all(s > 0 for s in second)


def test_cdoubleprime_trivial_and_limit():
    assert const_Cdoubleprime(1.0, 1, DEFAULT_CONFIG) == DEFAULT_CONFIG.c3
    vals = [const_Cdoubleprime(5.0, 2 ** j, DEFAULT_CONFIG) for j in range(1, 16)]
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))
    assert vals[-1] < 1e-3


def test_cdoubleprime_relation_with_compatible_config():
    # the transfer inequality 2*pi*C''(2K+1, q) <= (log(Kq) + c1)/q needs
    # c1 >= log(2 + 1/K) + 2*pi*c3; the default placeholders do not satisfy it
    compatible = replace(DEFAULT_CONFIG, c1=math.log(3.0) + 2 * math.pi * DEFAULT_CONFIG.c3 + 1e-9)
    for K in (1.0, 2.0, 10.0):
        for q in (1, 3, 17):
            assert cdoubleprime_relation_gap(K, q, compatible) <= 0
    assert cdoubleprime_relation_gap(1.0, 1, DEFAULT_CONFIG) > 0


def test_trends_to_zero_along_dyadic_q():
    for fn in (const_C, const_Cprime, const_Cdoubleprime):
        vals = [fn(10.0, 2 ** j, DEFAULT_CONFIG) for j in range(1, 14)]
        assert vals[-1] < 1e-2
        assert all(vals[i + 1] < vals[i] + 1e-12 for i in range(len(vals) - 1))


def test_domain_errors():
    with pytest.raises(DomainError):
        const_C(0.5, 1, DEFAULT_CONFIG)
    with pytest.raises(DomainError):
        const_Cprime(1.0, 0, DEFAULT_CONFIG)
    with pytest.raises(DomainError):
        ConstantConfig(c1=-1.0)
    with pytest.raises(DomainError):
        ConstantConfig(A=1.0)
    # NaN and inf fail every comparison-based check; they must still reject
    for bad in (math.nan, math.inf):
        for fn in (const_C, const_Cprime, const_Cdoubleprime):
            with pytest.raises(DomainError):
                fn(bad, 3, DEFAULT_CONFIG)
        for key in ("c1", "c3", "C_sqrt2", "A", "C1_glue"):
            with pytest.raises(DomainError):
                ConstantConfig(**{key: bad})
        with pytest.raises(DomainError):
            config_from_mapping({"c1": str(bad)})


# -- config I/O ---------------------------------------------------------------


def _siegel_environ(monkeypatch, **values):
    """The process environment with exactly these SIEGEL_* variables."""
    for name in [n for n in os.environ if n.startswith("SIEGEL_")]:
        monkeypatch.delenv(name)
    for name, value in values.items():
        monkeypatch.setenv(name, value)


def test_config_file_and_env(tmp_path, monkeypatch):
    path = tmp_path / "constants.cfg"
    path.write_text("# calibration\nc1 = 2.5\nA = 3.0\n", encoding="utf-8")
    _siegel_environ(monkeypatch)
    cfg = load_config(str(path))
    assert cfg.c1 == 2.5 and cfg.A == 3.0 and cfg.c3 == 1.0
    _siegel_environ(monkeypatch, SIEGEL_c3="7.0")
    cfg2 = load_config(str(path))
    assert cfg2.c3 == 7.0 and cfg2.c1 == 2.5
    # either spelling of a key; the exact one wins over the upper-case one
    _siegel_environ(monkeypatch, SIEGEL_C_SQRT2="3.0", SIEGEL_c1="4.0", SIEGEL_C1="5.0")
    cfg3 = load_config(None)
    assert cfg3.C_sqrt2 == 3.0 and cfg3.c1 == 4.0


def test_config_rejects_unknown_keys(tmp_path, monkeypatch):
    # the keys that reached no computation are gone, and refused like any other
    for key in ("nope", "c2", "C0", "D", "B_slope", "seed"):
        with pytest.raises(DomainError):
            config_from_mapping({key: "1"})
    path = tmp_path / "constants.cfg"
    path.write_text("seed = 0\n", encoding="utf-8")
    _siegel_environ(monkeypatch)
    with pytest.raises(DomainError):
        load_config(str(path))
    for name in ("SIEGEL_c2", "SIEGEL_B_SLOPE", "SIEGEL_seed"):
        _siegel_environ(monkeypatch, **{name: "1"})
        with pytest.raises(DomainError):
            load_config(None)


def test_format_config_echo():
    text = format_config(DEFAULT_CONFIG)
    assert text == "c1=1.0 c3=1.0 C_sqrt2=1.0 A=2.0 C1_glue=1.0"
