"""Half-plane lift dynamics and direct sector renormalization.

Given a lift F with rotation number alpha and convergents p_{k-1}/q_{k-1},
p_k/q_k, the pair

    J = T^{-p_{k-1}} o F^{q_{k-1}}      (jump,  rotation number beta')
    H = T^{-p_k}     o F^{q_k}          (hop,   rotation number beta)

acts on a fundamental strip bounded by the vertical ray above i y0 and its
H-image.  The first-return map J-then-H-hops, read in the rescaled coordinate
lambda(Z) = (Z - i y0)/beta (conjugated when beta < 0), has rotation number
beta'/beta.  The conformal straightening is not built numerically: at the
measurement heights used here the glued surface is translation-like and the
lambda coordinate stands in for it.  Its additive constant is not estimated:
a report holds what the returns measured and the heights y0, y1, y2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bounds import ConstantConfig, DEFAULT_CONFIG
from .cf import cf_of_exact
from .errors import (
    BudgetExceeded,
    ConditionsNeverMet,
    DomainError,
    InsufficientDepth,
    NoAdmissibleHeight,
    UndefinedReturn,
    is_count,
)
from .germs import LiftMap
from .linearize import _bisect, _orbits_stay
from .surd import ExactReal, to_float

__all__ = [
    "RenormSetup",
    "ReturnSample",
    "RenormReport",
    "HParams",
    "h_of_lift",
    "build_HJ",
    "find_y0",
    "return_map",
    "renormalized_rotation_number",
]

TAN_THETA = math.tan(math.asin(0.1))  # cone half-angle of the 1/10-conditions
RE_SAMPLES = 16        # real parts of the grid h_of_lift tests at each height
IM_BISECT = 0.01       # width of the height bracket h_of_lift bisects down to
HEIGHT_CEILING = 6.0   # no height above this is tried by h_of_lift or find_y0


# ---------------------------------------------------------------------------
# h(F)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HParams:
    max_iter: int = 10_000

    def __post_init__(self):
        if not is_count(self.max_iter, 1):
            raise DomainError("max_iter must be a positive integer")


def _heights_admissible(F: LiftMap, hs: Sequence[float], p: HParams) -> List[bool]:
    """For each height h in ``hs``: every orbit of the Re-grid at h stays in
    the upper half-plane for ``max_iter`` steps.  All heights share one kernel
    call, one group of :data:`RE_SAMPLES` points each, and each verdict is the one
    its height gets alone.  The real part is reduced mod 1 before each step
    (F commutes with the unit translation), which keeps the exponential
    evaluation accurate on long orbits; ``Im Z > 0`` is False on NaN."""
    re = np.arange(RE_SAMPLES) / RE_SAMPLES
    Z = np.array([re + 1j * h for h in hs])
    return _orbits_stay(lambda Z, _: F.eval_vec(Z - np.floor(Z.real)), Z,
                        p.max_iter, inside=lambda Z: Z.imag > 0.0).tolist()


def h_of_lift(F: LiftMap, params: HParams = HParams()) -> float:
    """An admissible height h with an inadmissible one at most :data:`IM_BISECT`
    below it, or with h <= :data:`IM_BISECT` (an upper-flavored estimate of h(F)).

    A height is admissible when every orbit started on a Re-grid at that
    height stays in the half-plane for ``max_iter`` steps; escape can only be
    detected, never undone, so estimates shrink as budgets shrink.  A doubling
    search finds an admissible height H; bisection then narrows [0, H], an
    inadmissible height raising ``lo``.  Its first midpoint H/2 is the
    inadmissible height before H, so each doubling step is one call of the
    chained bisection shared with the escape estimator, on [H/2, H] (on
    [0, H] for the first H): it tests H together with the descent below it,
    and an inadmissible H closes the bracket, which sends the search on to 2H.
    At a finite budget admissibility need not be monotone in the height, so
    h need not be the smallest admissible height sampled: an admissible
    island below an inadmissible mid is never entered.
    """
    if len(F.h_coeffs) == 0 or not np.any(F.h_coeffs):
        return 0.0  # exact translation: every height is admissible
    lo, hi = [0.0], [max(4 * IM_BISECT, 0.05)]
    while True:
        _bisect(lambda _, h: h,
                lambda points: _heights_admissible(F, [h for _, h in points], params),
                lo, hi, IM_BISECT, stay_above=True)
        if lo[0] < hi[0]:
            return hi[0]
        hi[0] *= 2.0  # lo stays at the inadmissible height
        if hi[0] > HEIGHT_CEILING:
            raise NoAdmissibleHeight(f"no admissible height below {HEIGHT_CEILING}")


# ---------------------------------------------------------------------------
# renormalization setup
# ---------------------------------------------------------------------------


@dataclass
class RenormSetup:
    """Hop/jump pair of order k+1 with exact rotation-number bookkeeping."""

    F: LiftMap
    k: int
    p_prev: int
    q_prev: int
    p_k: int
    q_k: int
    beta_exact: ExactReal
    beta_prime_exact: ExactReal
    beta: float
    beta_prime: float
    y0: Optional[float] = field(default=None, init=False)  # set by find_y0
    # the hop bound's constants and the y0 they were built at (see hop_bound)
    _hop: Optional[Tuple[float, ...]] = field(default=None, init=False,
                                              repr=False, compare=False)

    # -- exact facts ---------------------------------------------------------

    def expected_alpha_prime(self) -> float:
        """beta'/beta, exactly = -[a_{k+1}; a_{k+2}, ...]."""
        return to_float(self.beta_prime_exact / self.beta_exact)

    # -- evaluators ----------------------------------------------------------

    def H(self, Z: complex) -> complex:
        for _ in range(self.q_k):
            Z = self.F(Z)
        return Z - self.p_k

    def J(self, Z: complex) -> complex:
        for _ in range(self.q_prev):
            Z = self.F(Z)
        return Z - self.p_prev

    # -- rescaled coordinate --------------------------------------------------

    def lam(self, Z: complex) -> complex:
        if self.y0 is None:
            raise DomainError("y0 not set")
        W = Z - 1j * self.y0
        if self.beta < 0:
            W = W.conjugate()
        return W / self.beta

    def _hop_constants(self) -> Tuple[float, ...]:
        """(y0, floor, a, K, S0, S1) for :meth:`hop_bound`, built from |h_m|
        once per y0.  With u = 2^-53 and the lift's coefficient majorant A
        and factor rho of :func:`_majorant` (n = 0):

        - rho bounds the float |h| of one step over A;
        - A decreases, so a step from a height s >= y0 lowers Im by at most
          a = rho A(y0);
        - for s >= y0, rho A(s) <= B e^{-2 pi s} with
          B = rho sum_m |h_m| e^{-2 pi (m-1) y0}, so a hop whose q steps all
          start at or above s_low moves x by 1 give or take
          K e^{-2 pi s_low}, K = q B / |beta|;
        - S0 + S1 |Re W| is at least twice the first-order rounding of the
          rest, in x units: the hop's 2q+1 additions, each within u of a
          value below |Re W| + q (|alpha| + a + 1) + |p_k|; alpha and beta
          as floats; the two divisions by beta.  The spare half covers the
          bound's own arithmetic and the comparisons made with it.

        A non-finite constant makes the floor +inf, and so every bound.
        """
        if self._hop is None or self._hop[0] != self.y0:
            q, absb = self.q_k, abs(self.beta)
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                rho, t = _majorant(self.F, self.y0, 0)
                B = rho * float(np.sum(t))
                a = B * float(np.exp(-2 * math.pi * self.y0))
            S1 = 16 * (q + 2) * 2.0 ** -53 / absb
            S0 = S1 * (q * (abs(self.F.alpha) + a + 1) + abs(self.p_k) + 2)
            constants = (a, q * B / absb, S0, S1)
            floor = self.y0 if all(map(math.isfinite, constants)) else math.inf
            self._hop = (self.y0, floor, *constants)
        return self._hop

    def hop_bound(self, y: float, hops: int, re: float) -> float:
        """A bound d with |x(H(W)) - x(W) - 1| <= d, x = Re/beta, H and x
        evaluated in floats, for every W with |Re W| <= ``re`` at or above the
        lowest height ``hops`` hops can reach from height y.

        It comes from the lift's coefficients (see :meth:`_hop_constants`)
        and samples nothing.  The steps that matter are the hops' q each and
        the first q - 1 of H itself; each lowers Im by at most a, plus
        rounding.  The bound is +inf where that chain of heights does not
        stay above y0.  One ``math.exp``.
        """
        _, floor, a, K, S0, S1 = self._hop_constants()
        n = (hops + 1) * self.q_k - 1
        low = y - n * a - (n + 1) * 2.0 ** -51 * (abs(y) + n * a)
        if not low >= floor:  # False on NaN
            return math.inf
        return K * math.exp(-2 * math.pi * low) + S0 + S1 * re

    def in_fundamental_domain(self, Z: complex) -> bool:
        """Membership in l u U via the lambda strip; left edge in, right edge out.

        The right edge sits at x = Re H(i Im Z)/beta, within
        ``hop_bound(Im Z, 0, 0)`` of 1; only a point inside that band pays
        for the edge."""
        if self.y0 is None:
            raise DomainError("y0 not set")
        if not (cmath.isfinite(Z) and Z.imag > self.y0):
            return False
        x = Z.real / self.beta
        if x < 0.0:
            return False
        d = self.hop_bound(Z.imag, 0, 0.0)
        if x < 1.0 - d:
            return True
        if x > 1.0 + d:
            return False
        return x < self.H(1j * Z.imag).real / self.beta

    def default_budget(self) -> int:
        # twice the asymptotic hop bound 3 (1 + |beta'/beta|)
        return int(math.ceil(6.0 * (1.0 + abs(self.beta_prime / self.beta))))


def build_HJ(F: LiftMap, k: int) -> RenormSetup:
    """Order k+1 setup from the lift's exact rotation-number handle; at every k
    it accepts, the convergent errors beta' and beta are nonzero and alternate."""
    if not is_count(k, 0):
        raise DomainError("k >= 0 required")
    if F.alpha_exact is None:
        raise InsufficientDepth("lift carries no exact rotation-number handle")
    alpha = F.alpha_exact
    cf = cf_of_exact(alpha)
    if cf.is_finite and k + 1 > len(cf.partials):
        raise InsufficientDepth(f"rational expansion has {len(cf.partials)} quotients")
    ck = cf.convergent(k)
    cprev = cf.convergent(k - 1)
    beta_exact = ck.q * alpha - ck.p
    beta_prime_exact = cprev.q * alpha - cprev.p
    return RenormSetup(
        F=F, k=k, p_prev=cprev.p, q_prev=cprev.q, p_k=ck.p, q_k=ck.q,
        beta_exact=beta_exact, beta_prime_exact=beta_prime_exact,
        beta=to_float(beta_exact), beta_prime=to_float(beta_prime_exact))


# ---------------------------------------------------------------------------
# admissible height for the pair (H, J)
# ---------------------------------------------------------------------------


def _majorant(F: LiftMap, s, n: int) -> Tuple[float, np.ndarray]:
    """(rho, t), t[..., m-1] = |h_m| e^{-2 pi (m-1) s} at each height of ``s``:
    on Im Z = s, |h| <= A(s) = e^{-2 pi s} sum_m t_m and
    |F' - 1| <= A'(s) = 2 pi e^{-2 pi s} sum_m m t_m.  rho = e^{(M+n+8) 2^-40}
    lifts a float A or A' above its exact value and above the float |h| of a
    step, also after n more roundings: Horner's 2M, the M-term sums and the
    rounded 2 pi s, which |w|^m magnifies 2 pi m |s| 2^-53-fold, stay below
    (M+n+8) 2^-40 while |s| < 112.  Runs under the caller's np.errstate."""
    c = np.abs(F.h_coeffs)
    rho = math.exp((len(c) + n + 8) * 2.0 ** -40)
    return rho, c * np.exp(np.multiply.outer(-2 * math.pi * s, np.arange(len(c))))


def _orbit_bound(F: LiftMap, ys: np.ndarray, q: int) -> Tuple[np.ndarray, np.ndarray]:
    """Bounds on |F^q(Z) - Z - q alpha| and |(F^q)'(Z) - 1| over Im Z >= y,
    alpha exact, for each y in ``ys``: sum_{i<q} A(s_i) and
    prod_{i<q} (1 + A'(s_i)) - 1, s_0 = y, s_{i+1} = s_i - A(s_i).  As
    s - A(s) increases with s, the i-th orbit point lies at or above s_i.  A
    and A' carry rho with n = q (:func:`_majorant`) and each chain step drops
    2^-51 (|s| + A) more for its own rounding, so the float bounds exceed the
    exact ones.  A chain that leaves float range gives inf or NaN."""
    m = np.arange(1, len(F.h_coeffs) + 1)
    s, disp, der = ys, np.zeros(len(ys)), np.ones(len(ys))
    with np.errstate(over="ignore", invalid="ignore"):  # read by "not <=" tests
        for _ in range(q):
            rho, t = _majorant(F, s, q)
            w = rho * np.exp(-2 * math.pi * s)
            A = w * t.sum(axis=-1)
            disp, der = disp + A, der * (1.0 + 2 * math.pi * w * (t * m).sum(axis=-1))
            s = s - A - 2.0 ** -51 * (np.abs(s) + A)
        return disp, der - 1.0


def find_y0(setup: RenormSetup) -> float:
    """The first grid height y0 at which, for every Z with Im Z >= y0,

        |H(Z) - Z - beta| <= |beta|/10,   |H'(Z) - 1| <= 1/10,
        |J(Z) - Z - beta'| <= |beta|/10,  |J'(Z) - 1| <= 1/10

    (the hop's beta in both; H and J with exact alpha), by
    :func:`_orbit_bound` over H's q_k steps and J's q_prev steps: nothing is
    sampled or evaluated.  The grid is 0 and 48 heights geometric from 0.01
    to :data:`HEIGHT_CEILING`; the bounds fall as y rises.  Stores y0 on the
    setup and returns it.
    """
    tol = abs(setup.beta) / 10.0
    ys = np.array([0.0, *np.geomspace(0.01, HEIGHT_CEILING, 48)])
    held = np.ones(len(ys), dtype=bool)
    for q in (setup.q_k, setup.q_prev):
        disp, der = _orbit_bound(setup.F, ys, q)
        held &= (disp <= tol) & (der <= 0.1)  # False on NaN
    if not held.any():
        raise ConditionsNeverMet(f"1/10-conditions fail below height {HEIGHT_CEILING}")
    setup.y0 = float(ys[held.argmax()])
    return setup.y0


# ---------------------------------------------------------------------------
# return map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReturnSample:
    Z: complex
    hops: int
    RZ: complex
    path_min_im: float


def return_map(setup: RenormSetup, Z: complex) -> Tuple[ReturnSample, List[complex]]:
    """One jump then hops until the first landing back in the strip, and the
    trace: the start, the jump's image and every hop.

    Intermediate points must stay above y0 (otherwise the return is undefined,
    mirroring the partial domain of the first-return map); exceeding the hop
    budget :meth:`RenormSetup.default_budget` is an accepted-run failure and
    raises.
    """
    budget = setup.default_budget()
    if not setup.in_fundamental_domain(Z):
        raise DomainError("start must lie in the fundamental strip")
    W = setup.J(Z)
    trace = [Z, W]
    path_min = W.imag
    m = 0
    while not setup.in_fundamental_domain(W):
        if not W.imag > setup.y0:  # True on NaN
            raise UndefinedReturn(f"orbit dipped to Im = {W.imag:.6f} <= y0")
        if m >= budget:
            raise BudgetExceeded(f"hop budget {budget} exhausted")
        W = setup.H(W)
        m += 1
        path_min = min(path_min, W.imag)
        trace.append(W)
    return ReturnSample(Z=Z, hops=m, RZ=W, path_min_im=path_min), trace


def _lands_again(setup: RenormSetup, W: complex, hops: int) -> bool:
    """Whether one of the next ``hops`` hops of the landing point W, up to
    the first at or below y0, lies in the strip: a second pass through it.
    :func:`return_map` has already seen every point before the landing lie
    outside the strip, so this is the whole single-pass check.

    Each hop moves x = Re/beta by at least 1 - d and the strip's right edge
    is below x = 1 + d, d the hop bound at the lowest height the hops can
    reach; so hop j can land only if x + j (1 - d) < 1 + d, and once that
    fails it fails for every later j.  While d < 1 a hop moves Re by less
    than 2 |beta|, which bounds the real parts d must hold for; a d >= 1
    never stops the hops."""
    x = W.real / setup.beta
    d = setup.hop_bound(W.imag, hops, abs(W.real) + 2 * hops * abs(setup.beta))
    for j in range(1, hops + 1):
        if not x + j * (1.0 - d) < 1.0 + d:
            return False
        W = setup.H(W)
        if W.imag <= setup.y0:
            return False
        if setup.in_fundamental_domain(W):
            return True
    return False


# ---------------------------------------------------------------------------
# measured renormalized rotation number
# ---------------------------------------------------------------------------


@dataclass
class RenormReport:
    measured_alpha_prime: float
    expected_alpha_prime: float
    error: float
    y0: float
    y1: float
    y2: float
    single_pass_violations: int
    budget_violations: int = 0
    undefined_returns: int = 0
    n_returns: int = 0
    im_drift: float = 0.0
    diagnostics: str = ""


def renormalized_rotation_number(setup: RenormSetup, height: float,
                                 n_returns: int,
                                 cfg: ConstantConfig = DEFAULT_CONFIG) -> RenormReport:
    """Iterate the return map and average the lambda-displacement per return.

    Each return contributes lam(R(Z)) - lam(Z) - m (the hop count m plays the
    role of the deck bookkeeping); the mean tends to beta'/beta as the height
    grows.  An undefined return or a budget hit aborts with a partial report,
    or raises when no return has completed.
    """
    if setup.y0 is None:
        raise DomainError("run find_y0 first")
    if not is_count(n_returns, 1):
        raise DomainError("n_returns >= 1 required")
    absb = abs(setup.beta)
    y1 = setup.y0 + 0.3 * absb + (abs(setup.beta_prime) + 0.1 * absb) * TAN_THETA
    y2 = y1 + (cfg.A * max(cfg.C_sqrt2, cfg.C1_glue) + cfg.C1_glue + 0.1) * absb
    expected = setup.expected_alpha_prime()
    Z = complex(0.0, height)
    if not setup.in_fundamental_domain(Z):
        raise DomainError("measurement height must place the start in the strip")
    disp_sum = 0.0 + 0.0j
    done = 0
    violations = 0
    budget_viol = 0
    undefined = 0
    diag = ""
    for _ in range(n_returns):
        try:
            sample, _ = return_map(setup, Z)
        except (UndefinedReturn, BudgetExceeded) as exc:
            if not done:
                raise
            undefined += isinstance(exc, UndefinedReturn)
            budget_viol += isinstance(exc, BudgetExceeded)
            diag = f"aborted: {exc}"
            break
        disp_sum += setup.lam(sample.RZ) - setup.lam(Z) - sample.hops
        violations += _lands_again(setup, sample.RZ, 3)
        Z = sample.RZ
        done += 1
    measured = (disp_sum / done).real
    drift = (disp_sum / done).imag
    return RenormReport(
        measured_alpha_prime=measured,
        expected_alpha_prime=expected,
        error=abs(measured - expected),
        y0=setup.y0, y1=y1, y2=y2,
        single_pass_violations=violations,
        budget_violations=budget_viol,
        undefined_returns=undefined,
        n_returns=done,
        im_drift=drift,
        diagnostics=diag,
    )
