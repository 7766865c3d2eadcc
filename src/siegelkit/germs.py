"""Analytic germ families on the unit disk and their half-plane lifts.

A germ is f(z) = e^{2 pi i alpha} z + sum_{m>=2} b_m z^m truncated at order N.
The parameter handle stays exact (Fraction / QuadraticIrrational) whenever
the caller has one; floats are derived output.  Lifting moves a germ to
F(Z) = Z + alpha + h(e^{2 pi i Z}) on the upper half-plane via the
exponential cover.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import series
from .errors import DomainError, FactorizationError, OverflowGuard, is_count
from .surd import ExactReal, QuadraticIrrational, frac_exact, to_float

__all__ = [
    "AlphaHandle",
    "Germ",
    "GermFamily",
    "RotationFamily",
    "QuadraticFamily",
    "FlowFamily",
    "LiftMap",
    "alpha_frac_float",
    "phase_fracs",
    "lift_of_germ",
]

AlphaHandle = Union[int, Fraction, QuadraticIrrational, float]

TWO_PI_I = 2j * math.pi

_PHASE_BITS = 128  # bracket width of the batched surd phases, in bits
LIPSCHITZ_ORDER = 64     # germ order lipschitz_bound holds for
LIPSCHITZ_RADIUS = 0.999  # circle |z| = r lipschitz_bound holds on
CHECK_HEIGHT = 0.2    # lift_of_germ bounds |g - 1| < 1 on |w| <= e^{-2 pi CHECK_HEIGHT}


def alpha_frac_float(alpha: AlphaHandle) -> float:
    """float of frac(alpha), reducing exactly first when possible.

    With :func:`phase_fracs` (its batched form) the one place a phase alpha
    (or n alpha) is reduced mod 1 and turned into a float: the multiplier,
    the small divisors and the rotation powers all come through here.
    """
    if isinstance(alpha, float):
        return alpha - math.floor(alpha)
    return to_float(frac_exact(alpha))


def phase_fracs(alpha: AlphaHandle, K: int) -> list:
    """[alpha_frac_float(k * alpha) for k in range(K)], bit for bit, in one pass.

    A rational p/q reduces as the integer residue (k p mod q) / q, and int
    true division rounds correctly.  A surd takes one integer bracket
    lo/den < alpha < hi/den; where k lo and k hi have the same integer part
    and their remainders over den round to the same float, correct rounding
    being monotone makes that float the rounded frac(k alpha).  Any other
    index (and any float alpha) goes through :func:`alpha_frac_float`.
    """
    if isinstance(alpha, (int, Fraction)):
        p, q = alpha.numerator, alpha.denominator
        return [(k * p) % q / q for k in range(K)]
    if not isinstance(alpha, QuadraticIrrational):
        return [alpha_frac_float(k * alpha) for k in range(K)]
    lo, hi, den = alpha.int_bracket(_PHASE_BITS)
    out = []
    for k in range(K):
        q_lo, r_lo = divmod(k * lo, den)
        q_hi, r_hi = divmod(k * hi, den)
        x = r_lo / den
        out.append(x if q_lo == q_hi and x == r_hi / den
                   else alpha_frac_float(k * alpha))
    return out


def _multiplier_of(alpha: AlphaHandle) -> complex:
    return cmath.exp(TWO_PI_I * alpha_frac_float(alpha))


@dataclass
class Germ:
    """Truncated disk germ; ``coeffs`` holds b_2 .. b_N."""

    alpha: AlphaHandle
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)

    @property
    def order(self) -> int:
        return len(self.coeffs) + 1

    def multiplier(self) -> complex:
        return _multiplier_of(self.alpha)

    def full_coeffs(self) -> np.ndarray:
        """[0, e^{2 pi i alpha}, b_2, ..., b_N]."""
        out = np.zeros(self.order + 1, dtype=np.complex128)
        out[1] = self.multiplier()
        out[2:] = self.coeffs
        return out


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


class GermFamily:
    """alpha -> psi^{-1}(e^{2 pi i alpha} psi(z)) + sum_{m>=2} b_m z^m, conjugated
    by z -> z/s onto the unit disk (s the restriction radius).

    psi linearizes the field chi(z) = 2 pi i z + sum_{m>=2} c_m z^m, ``chi``
    listing c_2, c_3, ..., so the first term is the field's time-alpha map:
    the rotation when ``chi`` is empty.  ``b`` lists b_2, b_3, ... and does
    not depend on alpha.  Conjugating by z -> z/s scales c_m and b_m by
    s^{m-1}, so a germ lives on the unit disk even where the flow is
    incomplete near the boundary.  The field is linearized once per order;
    each germ is one composition.
    """

    def __init__(self, chi: Sequence[complex], b: Sequence[complex], restriction_radius: float):
        if not 0 < restriction_radius < math.inf:  # False on NaN
            raise DomainError("restriction_radius must be finite and positive")
        self.chi = tuple(complex(c) for c in chi)
        self.b = tuple(complex(c) for c in b)
        if not all(cmath.isfinite(c) for c in self.chi + self.b):
            raise DomainError("chi and b must be finite")
        s = self.restriction_radius = float(restriction_radius)
        try:  # conjugating by z -> z/s scales the z^m coefficient by s^{m-1}
            field, self._b = (np.array([c * s ** (m - 1) for m, c in enumerate(x, start=2)],
                                       dtype=np.complex128) for x in (self.chi, self.b))
        except OverflowError:  # a power of s left float range
            field = self._b = np.array([math.inf])
        if not (np.isfinite(field).all() and np.isfinite(self._b).all()):
            raise OverflowGuard(f"the family conjugated to radius {s!r} is not finite")
        self._field = np.concatenate(([0, TWO_PI_I], field))  # chi(sz)/s
        self._cache: dict = {}

    def _linearizer(self, order: int) -> Tuple[np.ndarray, np.ndarray]:
        """psi with psi' * chi = 2 pi i psi, psi = z + O(z^2), and its inverse.

        The inverse d = psi^{-1} solves 2 pi i w d'(w) = chi(d(w)), so
        2 pi i (n-1) d_n = [w^n] sum_{m>=2} c_m d^m: no divisor is small.
        """
        if order not in self._cache:
            M = len(self.chi) + 1
            c = series.trim(self._field, max(M, order))
            psi = np.zeros(order + 1, dtype=np.complex128)
            psi[1] = 1.0
            # pow_tab[m, n] = [w^n] d^m, filled column by column; row 1 is d
            pow_tab = np.zeros((M + 1, order + 1), dtype=np.complex128)
            pow_tab[1, 1] = 1.0
            with np.errstate(over="ignore", invalid="ignore"):  # checked by at()
                for n in range(2, order + 1):
                    acc = 0j
                    for j in range(2, n + 1):
                        if c[j] != 0:
                            acc += (n + 1 - j) * psi[n + 1 - j] * c[j]
                    psi[n] = -acc / (TWO_PI_I * (n - 1))
                    top = min(M, n)
                    pow_tab[2:top + 1, n] = np.einsum("ij,j->i", pow_tab[1:top, n - 1:0:-1],
                                                      pow_tab[1, 1:n], optimize=False)
                    P = np.einsum("i,i->", c[2:M + 1], pow_tab[2:, n], optimize=False)
                    pow_tab[1, n] = P / (TWO_PI_I * (n - 1))
            self._cache[order] = (psi, pow_tab[1].copy())
        return self._cache[order]

    def at(self, alpha: AlphaHandle, order: int) -> Germ:
        """The germ truncated at ``order``: the time-alpha map composed to that
        order when there is a field, plus b_m s^{m-1} for m <= order.
        :class:`OverflowGuard` when it is not finite."""
        if not is_count(order, 1):
            raise DomainError("germ order >= 1 required")
        b = self._b[:order - 1]
        if not self.chi:
            return Germ(alpha, b.copy())
        psi, psi_inv = self._linearizer(order)
        u = _multiplier_of(alpha)
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = series.compose(psi_inv, u * psi, order)[2:]
            coeffs[:len(b)] += b
        if not np.isfinite(coeffs).all():
            raise OverflowGuard(f"flow germ is not finite at order {order}")
        return Germ(alpha, coeffs)

    def lipschitz_bound(self) -> float:
        """sup over every alpha and |z| = :data:`LIPSCHITZ_RADIUS` of
        |d f_alpha / d alpha|, for the germs of order :data:`LIPSCHITZ_ORDER`.

        By the mean-value inequality (and the maximum principle inside the
        circle) a Lipschitz constant of alpha -> f_alpha on |z| <= r, uniform
        in alpha, so it holds on any parameter interval.  b does not depend
        on alpha, so d f / d alpha = chi~(psi^{-1}(u psi)), chi~ the conjugated
        field; with |u| = 1 the series |chi~| o |psi^{-1}| o |psi| of
        coefficient moduli majorizes it at every alpha, and its value at r is
        the bound: exactly 2 pi r for an empty field.  :class:`OverflowGuard`
        when it is not finite.
        """
        psi, psi_inv = self._linearizer(LIPSCHITZ_ORDER)
        with np.errstate(over="ignore", invalid="ignore"):
            outer = series.compose(np.abs(self._field), np.abs(psi_inv), LIPSCHITZ_ORDER)
            major = series.compose(outer, np.abs(psi), LIPSCHITZ_ORDER).real
            K = series.circle_majorants(major, LIPSCHITZ_RADIUS, 0)[0]
        if not math.isfinite(K):
            raise OverflowGuard(f"flow Lipschitz bound is not finite at order {LIPSCHITZ_ORDER}")
        return K


def RotationFamily(restriction_radius: float = 1.0) -> GermFamily:
    """z -> e^{2 pi i alpha} z; the same map at every restriction radius."""
    return GermFamily((), (), restriction_radius)


def QuadraticFamily(restriction_radius: float = 1.0) -> GermFamily:
    """e^{2 pi i alpha} z + z^2 restricted to |z| < s, s in (0, 1]."""
    if not 0 < restriction_radius <= 1:
        raise DomainError("restriction_radius in (0, 1] required")
    return GermFamily((), (1.0,), restriction_radius)


def FlowFamily(chi: Sequence[complex], restriction_radius: float) -> GermFamily:
    """Time-alpha maps of dz/dt = chi(z), chi = 2 pi i z + sum c_m z^m."""
    return GermFamily(chi, (), restriction_radius)


# ---------------------------------------------------------------------------
# lifts
# ---------------------------------------------------------------------------


@dataclass
class LiftMap:
    """F(Z) = Z + alpha + h(e^{2 pi i Z}); commutes with Z -> Z + 1."""

    alpha: float
    h_coeffs: np.ndarray              # h_1 .. h_M (w-powers; h(0) = 0)
    alpha_exact: Optional[ExactReal] = None

    def __post_init__(self):
        self.h_coeffs = np.asarray(self.h_coeffs, dtype=np.complex128)
        self._row = np.zeros(len(self.h_coeffs) + 1, dtype=np.complex128)  # [0, h_1..h_M]
        self._row[1:] = self.h_coeffs
        self._hlist = self._row.tolist()

    def __call__(self, Z: complex) -> complex:
        w = cmath.exp(TWO_PI_I * Z)
        return Z + self.alpha + series.polyval_scalar(self._hlist, w)

    def eval_vec(self, Z: np.ndarray) -> np.ndarray:
        w = np.exp(TWO_PI_I * np.asarray(Z, dtype=np.complex128))
        return Z + self.alpha + series.polyval_vec(self._row, w)


def lift_of_germ(g: Germ, order: int) -> LiftMap:
    """Lift through E(z) = e^{2 pi i z}, normalizing the log branch by 1/(2 pi i).

    Requires f(z) = e^{2 pi i alpha} z g(z) with the majorant sum_m |u_m| r^m
    of g - 1 below 1 at r = e^{-2 pi CHECK_HEIGHT}, so |g - 1| < 1 on the
    closed disk |w| <= r and the principal log is defined there.
    """
    if not is_count(order, 1):
        raise DomainError("lift order >= 1 required")
    rho = g.multiplier()
    u = np.zeros(order + 1, dtype=np.complex128)
    m_top = min(g.order, order + 1)
    for m in range(2, m_top + 1):
        u[m - 1] = g.coeffs[m - 2] / rho
    r_check = math.exp(-2 * math.pi * CHECK_HEIGHT)
    gm1 = series.circle_majorants(u, r_check, 0)[0]
    if not gm1 < 1.0:
        raise FactorizationError(f"|g - 1| has majorant {gm1:.3f} on |w| = {r_check:.3f}")
    h = series.log1p_series(u, order) / TWO_PI_I
    return LiftMap(alpha=to_float(g.alpha), h_coeffs=h[1:],
                   alpha_exact=g.alpha if not isinstance(g.alpha, float) else None)
