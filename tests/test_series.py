import numpy as np
import pytest

from siegelkit import series


def naive_mul(a, b, n):
    out = [0j] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        for j, bj in enumerate(b[: n + 1]):
            if i + j <= n:
                out[i + j] += ai * bj
    return out


def test_mul_matches_naive():
    rng = np.random.default_rng(0)
    a = rng.normal(size=9) + 1j * rng.normal(size=9)
    b = rng.normal(size=7) + 1j * rng.normal(size=7)
    got = series.mul(a, b, 6)
    want = naive_mul(list(a), list(b), 6)
    assert np.max(np.abs(got - np.array(want))) < 1e-14


def test_compose_exp_log():
    n = 24
    k = np.arange(n + 1, dtype=float)
    fact = np.cumprod(np.concatenate([[1.0], np.maximum(k[1:], 1)]))
    expm1 = np.zeros(n + 1, dtype=complex)
    expm1[1:] = 1.0 / fact[1:]
    log1p = np.zeros(n + 1, dtype=complex)
    log1p[1:] = (-1.0) ** (k[1:] + 1) / k[1:]
    comp = series.compose(log1p, expm1, n)
    want = np.zeros(n + 1)
    want[1] = 1.0
    assert np.max(np.abs(comp - want)) < 1e-12


def test_compose_requires_zero_constant():
    with pytest.raises(ValueError):
        series.compose(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 1)


def test_reciprocal_and_log():
    n = 20
    u = np.zeros(n + 1, dtype=complex)
    u[1] = 0.5
    inv = series.reciprocal(series.trim([1.0, 0.5], n), n)
    assert np.max(np.abs(series.mul(inv, series.trim([1.0, 0.5], n), n)
                         - series.trim([1.0], n))) < 1e-14
    lg = series.log1p_series(u, n)
    want = np.zeros(n + 1, dtype=complex)
    for k in range(1, n + 1):
        want[k] = (-1) ** (k + 1) * 0.5 ** k / k
    assert np.max(np.abs(lg - want)) < 1e-14


def test_derivative_integrate_roundtrip():
    a = np.array([0.0, 1.0, 2.0, 3.0], dtype=complex)
    d = series.derivative(a)
    assert np.allclose(d, [1.0, 4.0, 9.0])
    back = series.integrate(d)
    assert np.allclose(back[: len(a)], a - a[0])


def test_polyval_scalar_vs_vec():
    rng = np.random.default_rng(5)
    c = rng.normal(size=33) + 1j * rng.normal(size=33)
    zs = 0.7 * np.exp(2j * np.pi * np.arange(13) / 13)
    vec = series.polyval_vec(c, zs)
    for z, v in zip(zs, vec):
        assert abs(series.polyval_scalar(list(c), complex(z)) - v) < 1e-12


def test_polyval_vec_short_path():
    c = np.array([1.0, 2.0, 3.0])
    zs = np.array([0.5 + 0.1j, -0.2j])
    got = series.polyval_vec(c, zs)
    want = 1.0 + 2.0 * zs + 3.0 * zs ** 2
    assert np.max(np.abs(got - want)) < 1e-15


def test_polyval_deterministic_repeat():
    rng = np.random.default_rng(9)
    c = rng.normal(size=200) + 1j * rng.normal(size=200)
    z = 0.9 * np.exp(2j * np.pi * rng.random(64))
    a = series.polyval_vec(c, z)
    b = series.polyval_vec(c.copy(), z.copy())
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [3, 8, 9, 26])
def test_polyval_vec_row_per_point_matches_each_row_alone(n):
    # both evaluation paths (Horner up to 8 coefficients, power table above)
    rng = np.random.default_rng(n)
    rows = rng.normal(size=(5, 1, n)) + 1j * rng.normal(size=(5, 1, n))
    z = 0.9 * np.exp(2j * np.pi * rng.random((5, 16)))
    got = series.polyval_vec(rows, z)
    for i in range(5):
        assert got[i].tobytes() == series.polyval_vec(rows[i, 0], z[i]).tobytes()


def test_circle_majorants_bound_what_sampling_misses():
    # 1 + z - z^2 at r = 1/2: |1| + |1|/2 + |-1|/4 exactly, while the dense
    # circle sup is only 1.3975 (a sample max is a lower bound)
    assert series.circle_majorants(np.array([1, 1, -1], dtype=complex), 0.5, 0) == [1.75]
    zs = 0.5 * np.exp(2j * np.pi * np.arange(4096) / 4096)
    assert abs(np.max(np.abs(series.polyval_vec(np.array([1, 1, -1.0]), zs))) - 1.3975) < 1e-4
