"""Truncated power-series arithmetic on complex coefficient arrays.

A series of order N is a 1-D complex128 array of length N+1 indexed by the
power of z.  Operations truncate at an explicit order ``n``.  Evaluation
helpers avoid BLAS reductions (einsum / accumulate with fixed semantics) so
results are bit-reproducible regardless of library threading.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "trim",
    "mul",
    "compose",
    "derivative",
    "integrate",
    "reciprocal",
    "log1p_series",
    "polyval_scalar",
    "polyval_vec",
    "circle_majorants",
]


def trim(a, n: int) -> np.ndarray:
    out = np.zeros(n + 1, dtype=np.complex128)
    a = np.asarray(a, dtype=np.complex128)
    m = min(len(a), n + 1)
    out[:m] = a[:m]
    return out


def mul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    return np.convolve(a[: n + 1], b[: n + 1])[: n + 1]


def compose(f: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """f(g(z)) truncated at order n; requires g(0) = 0."""
    g = trim(g, n)
    if g[0] != 0:
        raise ValueError("inner series must vanish at 0")
    f = trim(f, n)
    out = np.zeros(n + 1, dtype=np.complex128)
    out[0] = f[n]
    for k in range(n - 1, -1, -1):  # Horner in g
        out = mul(out, g, n)
        out[0] += f[k]
    return out


def derivative(a: np.ndarray) -> np.ndarray:
    if len(a) <= 1:
        return np.zeros(1, dtype=np.complex128)
    return a[1:] * np.arange(1, len(a), dtype=np.float64)


def integrate(a: np.ndarray) -> np.ndarray:
    out = np.zeros(len(a) + 1, dtype=np.complex128)
    out[1:] = a / np.arange(1, len(a) + 1, dtype=np.float64)
    return out


def reciprocal(a: np.ndarray, n: int) -> np.ndarray:
    """1 / a truncated at order n; requires a(0) != 0."""
    a = trim(a, n)
    if a[0] == 0:
        raise ZeroDivisionError("series has zero constant term")
    out = np.zeros(n + 1, dtype=np.complex128)
    out[0] = 1.0 / a[0]
    for m in range(1, n + 1):
        acc = np.einsum("i,i->", a[1 : m + 1], out[m - 1 :: -1][:m], optimize=False)
        out[m] = -acc / a[0]
    return out


def log1p_series(u: np.ndarray, n: int) -> np.ndarray:
    """log(1 + u(z)) for u(0) = 0, via integrating u' / (1 + u)."""
    u = trim(u, n)
    if u[0] != 0:
        raise ValueError("u(0) = 0 required")
    if n == 0:
        return np.zeros(1, dtype=np.complex128)
    one_plus = u.copy()
    one_plus[0] = 1.0
    ratio = mul(trim(derivative(u), n - 1), reciprocal(one_plus, n - 1), n - 1)
    return trim(integrate(ratio), n)


def polyval_scalar(coeffs, z: complex) -> complex:
    """Horner with native complex; coeffs low order first (list is fastest)."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def polyval_vec(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Evaluate on an array of points; deterministic (no BLAS reductions).

    ``coeffs`` is one coefficient row shared by every point, or a stack of
    rows (shape ``(..., n)``) whose leading axes broadcast against ``z``, so
    that each point has its own series.  Each point sees the same IEEE
    operations as a call with its own row alone: Horner up to length 8, a
    power table and an ``einsum`` above.  ``einsum`` fixes no summation order
    (it can depend on dtype and memory layout, and for float64 it is not a
    sequential loop), so this rests on every call passing the same layout:
    complex128, the power table built here C-contiguous, and coefficient rows
    contiguous along their last axis.
    """
    z = np.asarray(z, dtype=np.complex128)
    c = np.asarray(coeffs, dtype=np.complex128)
    n = c.shape[-1]
    if n == 0:
        return np.zeros_like(z)
    if n <= 8:
        acc = np.full_like(z, c[..., -1])
        for k in range(n - 2, -1, -1):
            acc *= z
            acc += c[..., k]
        return acc
    pw = np.repeat(z[..., None], n - 1, axis=-1)
    np.multiply.accumulate(pw, axis=-1, out=pw)
    out = np.einsum("...j,...j->...", pw, c[..., 1:], optimize=False)
    out += c[..., 0]
    return out


def circle_majorants(coeffs: np.ndarray, r: float, order: int) -> list:
    """sum_n |[z^n] p^{(j)}| r^n for j = 0..order, p the polynomial with
    ``coeffs``: by the triangle inequality an upper bound of |p^{(j)}| on
    |z| <= r, reached where every term has the same phase."""
    out = []
    for _ in range(order + 1):
        out.append(float(np.polyval(np.abs(coeffs)[::-1], r)))
        coeffs = derivative(coeffs)
    return out
