"""Independent oracles shared by unit and acceptance tests.

These deliberately avoid the library's computation paths: plain python lists,
naive convolutions, and fresh power recomputation per order.  The escape
bisection, height bisection, linearization and small-divisor references are
the exception: they must repeat the library's floating point operations bit
for bit, so they keep the one-row evaluation, the sequential loops and the
per-index phase reductions the library used before its lock-step kernels,
shared bisection and shared multiplier.

Four helpers moved here from the library because only tests use them: the
golden-section cross-check ``const_Cprime_numeric`` of the closed-form C',
the C''-vs-C relation gap ``cdoubleprime_relation_gap``,
``translation_lift``, the pure translation as a lift, and the bounded-type
test ``is_bounded_type``.  The sampled
1/10-condition check ``find_y0`` made before it certified the conditions
lives here too, as ``sampled_conditions_hold`` with its own derivative
evaluators.
"""

import cmath
import math
import random
from fractions import Fraction

import numpy as np

from siegelkit import linearize, renorm
from siegelkit.bounds import (
    DEFAULT_CONFIG,
    ConstantConfig,
    _check_Kq,
    _cprime_objective,
    const_Cdoubleprime,
)
from siegelkit.cf import (
    LONG_FORM,
    SHORT_FORM,
    CFExpansion,
    cf_of_rational,
    special_sequence_main,
)
from siegelkit.errors import DomainError, NoAdmissibleHeight, OverflowGuard, SmallDivisorBlowup
from siegelkit.germs import LIPSCHITZ_ORDER, LiftMap, phase_fracs
from siegelkit.linearize import (
    DIVISOR_FLOOR,
    MAG_CAP,
    NUMERATOR_FLOOR,
    LinearizationSeries,
    _divisor,
)
from siegelkit.surd import ExactReal, exact_cmp, floor_exact, to_float


def brute_force_linearization(g, N):
    """Undetermined-coefficients solve of phi(rho z) = f(phi(z)), naive lists."""
    rho = g.multiplier()
    deg = g.order
    b = [0j] * (deg + 1)
    for m in range(2, deg + 1):
        b[m] = complex(g.coeffs[m - 2])
    a = [0j] * (N + 1)
    a[1] = 1.0 + 0j
    for n in range(2, N + 1):
        phi = a[:n]
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


def small_divisor(alpha, n):
    """rho^n - rho with the multiplier rho rebuilt from alpha at every index,
    the way linearize._divisor computed it before it took rho as an argument."""
    if isinstance(alpha, float):
        m = ((n - 1) * alpha) % 1.0
        rho = cmath.exp(2j * math.pi * (alpha % 1.0))
    else:
        x = (n - 1) * alpha
        m = to_float(x - floor_exact(x))
        rho = cmath.exp(2j * math.pi * to_float(alpha - floor_exact(alpha)))
    half = math.pi * m
    return rho * (2j * math.sin(half) * cmath.exp(1j * half))


def random_bounded_type_value(rng: random.Random):
    """A random quadratic irrational in (0, 1) with small partial quotients."""
    pre = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 3)))
    per = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
    return CFExpansion(0, pre, per).value()


def is_bounded_type(alpha: CFExpansion, bound: int) -> bool:
    """True iff alpha is irrational with all partial quotients <= bound."""
    if alpha.is_finite:
        return False
    if any(a > bound for a in alpha.partials):
        return False
    return all(a <= bound for a in alpha.period)


def special_sequence_bound(alpha: CFExpansion, tail: CFExpansion) -> int:
    """Uniform partial-quotient bound K of the special sequence of irrational alpha.

    Every member [a0; a1, ..., a_n, 1 + a_{n+1}, b0, b1, ...] with tail
    [b0; b1, ...] has partial quotients at most max(1 + a_i (i >= 1), b_j (j >= 0)).
    """
    quotients = alpha.partials + alpha.period
    tail_quotients = (tail.a0,) + tail.partials + tail.period
    return max(1 + max(quotients), max(tail_quotients))


def euclid_expansion(p: int, q: int):
    out = []
    while True:
        a, r = divmod(p, q)
        out.append(a)
        if r == 0:
            return out
        p, q = q, r


def polyval_row(c, z):
    """Evaluation of one coefficient row on a vector of points, as
    ``series.polyval_vec`` did before it took a row per point."""
    n = len(c)
    if n <= 8:
        acc = np.full_like(z, c[-1])
        for k in range(n - 2, -1, -1):
            acc *= z
            acc += c[k]
        return acc
    pw = np.repeat(z[:, None], n - 1, axis=1)
    np.multiply.accumulate(pw, axis=1, out=pw)
    out = np.einsum("ij,j->i", pw, c[1:], optimize=False)
    out += c[0]
    return out


def sequential_escape_radius(g, phi, params):
    """(lower, upper, diagnostics) of the escape bisection as one loop per
    radius and one orbit loop per step, the way escape_radius ran before the
    lock-step kernel.  Its tests keep the old ``>=`` form, so it is a
    reference on finite inputs only."""
    S = params.circle_samples
    ring = np.exp(2j * math.pi * np.arange(S) / S)
    rho_mult = g.multiplier()
    coeffs = g.full_coeffs()
    phi_arr = phi.a

    def orbit_stays(w):
        if np.max(np.abs(w)) >= 1.0:
            return False
        for _ in range(params.max_iter):
            w = polyval_row(coeffs, w)
            if np.max(np.abs(w)) >= 1.0:
                return False
        return True

    def valid(r):
        z = r * ring
        w = polyval_row(phi_arr, z)
        fz = polyval_row(phi_arr, rho_mult * z)
        if np.max(np.abs(w)) >= 1.0:
            return False
        resid = np.max(np.abs(fz - polyval_row(coeffs, w)))
        if resid >= params.residual_tol:
            return False
        return orbit_stays(w)

    return sequential_escape_bisection(valid, params)


def sequential_escape_bisection(valid, params):
    """(lower, upper, diagnostics) of the cap test and bisection of
    escape_radius over the verdicts of ``valid``, one radius at a time."""
    hi = linearize.ESCAPE_CAP
    if valid(hi):
        return hi, 1.0, "valid up to the cap"
    lo = 0.0
    while hi - lo > params.bisect_tol:
        mid = 0.5 * (lo + hi)
        if valid(mid):
            lo = mid
        else:
            hi = mid
    return _escape_report(lo, hi)


def _escape_report(lo, hi):
    if lo == linearize.ESCAPE_CAP:
        return lo, 1.0, "valid up to the cap"
    if lo == 0.0:
        return lo, hi, "NoValidRadius: non-linearizable at tolerance"
    return lo, hi, "bracket from bisection"


def deepest_first_bisection(screen, stays, lo, hi, tol, stay_above):
    """(lo, hi) of one bracket under linearize._bisect's rule, one orbit
    verdict per call.  Test the top, then midpoints.  Walk the path the
    bracket takes when every untested point stays (a point failing
    ``screen`` is out without orbits), then test its points deepest first:
    the first that stays vouches for the shallower rest, and a path with no
    staying point is spent.  Then walk again."""
    known = {}
    while True:
        l, h, x, path = lo, hi, hi, []
        while True:
            if x not in known:
                if screen(x):
                    path.append(x)
                else:
                    known[x] = False
            if known.get(x, True) == stay_above:
                h = x
            else:
                l = x
            x = 0.5 * (l + h)
            if not (h - l > tol and l < x < h):
                break
        if not path:
            return l, h
        while path:
            x = path.pop()
            known[x] = bool(stays(x))
            if known[x]:
                known.update(dict.fromkeys(path, True))
                break


def deepest_first_escape_bisection(screen, stays, params):
    """:func:`sequential_escape_bisection` under the deepest-first rule, with
    the chart screens in ``screen`` and the orbit test in ``stays``."""
    return _escape_report(*deepest_first_bisection(
        screen, stays, 0.0, linearize.ESCAPE_CAP, params.bisect_tol, stay_above=False))


def sequential_linearization_coeffs(g, N, allow_rational=False, mag_cap=MAG_CAP,
                                    on_failure="raise"):
    """linearization_coeffs as one germ's own loop over n with a 2-D power
    table, the way it ran before the germs of a batch shared one pass."""
    if on_failure not in ("raise", "truncate"):
        raise DomainError("on_failure must be 'raise' or 'truncate'")
    if not N >= 1:
        raise DomainError("linearization order N >= 1 required")
    rational = isinstance(g.alpha, (int, Fraction))
    if rational and not allow_rational:
        raise DomainError("rational alpha: pass allow_rational=True to accept poles")
    M = g.order
    rho = g.multiplier()
    b = np.zeros(M + 1, dtype=np.complex128)
    b[2:] = g.coeffs
    a = np.zeros(N + 1, dtype=np.complex128)
    a[1] = 1.0
    sdlog = np.full(N + 1, np.nan)
    numer = np.zeros(N + 1)
    phases = phase_fracs(g.alpha, N)
    mm = min(M, N)
    pow_tab = np.zeros((mm + 1, N + 1), dtype=np.complex128)
    pow_tab[1, 1] = 1.0
    for n in range(2, N + 1):
        if mm >= 2:
            top = min(mm, n)
            block = pow_tab[1:top, n - 1:0:-1]
            pow_tab[2:top + 1, n] = np.einsum(
                "ij,j->i", block, a[1:n], optimize=False)
        Pn = complex(np.einsum("i,i->", b[2:mm + 1], pow_tab[2:mm + 1, n],
                               optimize=False)) if mm >= 2 else 0.0
        numer[n] = abs(Pn)
        div = _divisor(phases[n - 1], rho)
        exact_zero = (rational and phases[n - 1] == 0.0) or abs(div) < DIVISOR_FLOOR
        failure = None
        if exact_zero:
            sdlog[n] = -math.inf
            if abs(Pn) > NUMERATOR_FLOOR:
                failure = SmallDivisorBlowup(f"pole at n={n}: divisor 0, |P|={abs(Pn):.3e}")
            a[n] = 0.0
        else:
            sdlog[n] = math.log(abs(div))
            a[n] = Pn / div
            if abs(a[n]) > mag_cap:
                failure = OverflowGuard(f"|a_{n}| = {abs(a[n]):.3e} exceeds cap")
        if failure is not None:
            if on_failure == "raise":
                raise failure
            return LinearizationSeries(a=a[:n], small_divisor_log=sdlog[:n],
                                       numerators=numer[:n], stop=failure)
        pow_tab[1, n] = a[n]
    return LinearizationSeries(a=a, small_divisor_log=sdlog, numerators=numer, stop=None)


def sequential_h_of_lift(F, params, deepest_first=False):
    """h_of_lift as its own orbit loop per height and its own bisection loop,
    the way it ran before it shared the escape kernel and bisection; with
    ``deepest_first``, the bisection is :func:`deepest_first_h_bisection`."""
    def admissible(h):
        Z = np.arange(renorm.RE_SAMPLES) / renorm.RE_SAMPLES + 1j * h
        for _ in range(params.max_iter):
            Z = F.eval_vec(Z - np.floor(Z.real))
            if not np.all(Z.imag > 0.0):
                return False
        return True

    if len(F.h_coeffs) == 0 or not np.any(F.h_coeffs):
        return 0.0
    return (deepest_first_h_bisection if deepest_first else sequential_h_bisection)(admissible)


def sequential_h_bisection(admissible):
    """The doubling search and bisection of h_of_lift over the verdicts of
    ``admissible``, one height at a time."""
    hi = max(4 * renorm.IM_BISECT, 0.05)
    while not admissible(hi):
        hi *= 2.0
        if hi > renorm.HEIGHT_CEILING:
            raise NoAdmissibleHeight(f"no admissible height below {renorm.HEIGHT_CEILING}")
    lo = 0.0
    while hi - lo > renorm.IM_BISECT:
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def deepest_first_h_bisection(admissible):
    """:func:`sequential_h_bisection` under the deepest-first rule: each
    doubling step bisects [H/2, H] (or [0, H]) with H tested as its top."""
    lo, hi = 0.0, max(4 * renorm.IM_BISECT, 0.05)
    while True:
        lo, h = deepest_first_bisection(lambda _: True, admissible, lo, hi,
                                        renorm.IM_BISECT, stay_above=True)
        if lo < h:
            return h
        hi *= 2.0
        if hi > renorm.HEIGHT_CEILING:
            raise NoAdmissibleHeight(f"no admissible height below {renorm.HEIGHT_CEILING}")


def in_fundamental_domain_exact(setup, Z):
    """RenormSetup.in_fundamental_domain with the strip's right edge computed
    by a full hop for every point: no hop bound and no kept edges."""
    if setup.y0 is None:
        raise DomainError("y0 not set")
    if not cmath.isfinite(Z) or Z.imag <= setup.y0:
        return False
    x = Z.real / setup.beta
    if x < 0.0:
        return False
    return x < setup.H(1j * Z.imag).real / setup.beta


def lands_again_exact(setup, W, hops):
    """renorm._lands_again by hopping: whether one of the next ``hops`` hops
    of W, up to the first at or below y0, lies in the strip by the exact edge."""
    for _ in range(hops):
        W = setup.H(W)
        if W.imag <= setup.y0:
            return False
        if in_fundamental_domain_exact(setup, W):
            return True
    return False


def lift_with_derivative(F, Z):
    """F(Z) and F'(Z) by plain power sums, for a numpy array of points:
    F = Z + alpha + sum_m h_m w^m and F' = 1 + 2 pi i sum_m m h_m w^m,
    w = e^{2 pi i Z}.  A value that leaves float range is inf or NaN."""
    with np.errstate(all="ignore"):
        w = np.exp(2j * math.pi * Z)
        power, h, dh = np.ones_like(w), 0j, 0j
        for m, c in enumerate(F.h_coeffs.tolist(), 1):
            power = power * w
            h, dh = h + c * power, dh + m * c * power
        return Z + F.alpha + h, 1 + 2j * math.pi * dh


def map_with_derivative(setup, Z, jump):
    """H(Z) and H'(Z), or J(Z) and J'(Z) when ``jump``, by the chain rule
    through :func:`lift_with_derivative`."""
    q, p = (setup.q_prev, setup.p_prev) if jump else (setup.q_k, setup.p_k)
    Z = np.asarray(Z, dtype=np.complex128)
    der = np.ones_like(Z)
    for _ in range(q):
        Z, d = lift_with_derivative(setup.F, Z)
        der = der * d
    return Z - p, der


def sampled_conditions_hold(setup, y, res=np.arange(8) / 8, dys=(0.01, 0.05, 0.2, 1.0)):
    """The 1/10-conditions sampled the way find_y0 tested them before it
    bounded them: |H - Z - beta| and |J - Z - beta'| within |beta|/10, H' and
    J' within 1/10 of 1, at the real parts ``res`` of the heights y + ``dys``.
    A non-finite value fails."""
    Z = np.add.outer(1j * (y + np.asarray(dys)), res)
    tol = abs(setup.beta) / 10
    with np.errstate(all="ignore"):
        for jump, beta in ((False, setup.beta), (True, setup.beta_prime)):
            W, der = map_with_derivative(setup, Z, jump)
            if not (np.all(np.abs(W - Z - beta) <= tol) and np.all(np.abs(der - 1) <= 0.1)):
                return False
    return True


def _sign_of(A: int, B: int, D: int) -> int:
    """Sign of A + B sqrt(D) for D >= 0, by comparing squares."""
    if A >= 0 and B >= 0 or A <= 0 and B <= 0:
        return (A > 0 or B > 0) - (A < 0 or B < 0)
    lhs, rhs = A * A, B * B * D
    return 0 if lhs == rhs else (1 if A > 0 else -1) if lhs > rhs else (1 if B > 0 else -1)


def exact_sign_by_squares(x) -> int:
    """Sign of the surd (a + b sqrt(d))/c, c > 0, with the tie a^2 = b^2 d
    that QuadraticIrrational leaves out."""
    return _sign_of(x.a, x.b, x.d)


def exact_cmp_by_refinement(x, y) -> int:
    """Sign of x - y for surds x, y of two different fields, by refining their
    rational brackets from 64 bits until they separate (such values never
    coincide): the rule ``surd.exact_cmp`` followed before its closed form."""
    bits = 64
    while bits <= 1 << 20:
        (xlo, xhi), (ylo, yhi) = x.bracket(bits), y.bracket(bits)
        if xhi < ylo:
            return -1
        if yhi < xlo:
            return 1
        bits *= 2
    raise AssertionError(f"cannot separate {x!r} and {y!r} within {bits // 2} bits")


def surd_floor_by_correction(x) -> int:
    """floor of the surd (a + b sqrt(d))/c the way QuadraticIrrational took it
    before its closed form: a candidate from isqrt, then exact correction
    steps up and down (c > 0, so x - n has the sign of a - n c + b sqrt(d))."""
    a, b, c, d = x.a, x.b, x.c, x.d
    t = b * b * d
    r = math.isqrt(t)
    f = r if b > 0 else (-r if r * r == t else -r - 1)
    n = (a + f) // c
    while _sign_of(a - (n + 1) * c, b, d) >= 0:
        n += 1
    while _sign_of(a - n * c, b, d) < 0:
        n -= 1
    return n


def cf_quotient_by_correction(P: int, D: int, Q: int) -> int:
    """floor((P + sqrt(D))/Q) the way cf_of_quadratic_irrational took each
    partial quotient before its closed form: the candidate (P + isqrt(D)) // Q,
    then exact correction steps by the sign of (A + sqrt(D))/Q."""
    def state_sign(A):
        s = 1 if A >= 0 or A * A < D else -1
        return s if Q > 0 else -s

    a = (P + math.isqrt(D)) // Q
    while state_sign(P - (a + 1) * Q) >= 0:
        a += 1
    while state_sign(P - a * Q) < 0:
        a -= 1
    return a


def expansion_below_by_comparison(c: Fraction) -> CFExpansion:
    """The expansion of the rational c whose special sequence sits below c,
    the way condition_bdd_search chose it before the parity rule: the first
    of the short and long forms whose member 0 compares below c exactly."""
    for variant in (SHORT_FORM, LONG_FORM):
        cf = cf_of_rational(c, variant)
        if exact_cmp(special_sequence_main(cf, 0), c) < 0:
            return cf
    raise AssertionError(f"neither expansion of {c} sits below it")


def translation_lift(alpha: ExactReal) -> LiftMap:
    """The exact translation T_alpha as a lift (h = 0)."""
    return LiftMap(alpha=to_float(alpha), h_coeffs=np.zeros(0),
                   alpha_exact=None if isinstance(alpha, float) else alpha)


def const_Cprime_numeric(K: float, q: int, cfg: ConstantConfig = DEFAULT_CONFIG,
                         tol: float = 1e-12) -> float:
    """Golden-section minimization of the same objective, for cross-checks."""
    _check_Kq(K, q)
    inv_phi = (math.sqrt(5) - 1) / 2
    a, b = 1e-12, 1.0 - 1e-12
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = _cprime_objective(c, K, q, cfg)
    fd = _cprime_objective(d, K, q, cfg)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = _cprime_objective(c, K, q, cfg)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = _cprime_objective(d, K, q, cfg)
    return min(fc, fd)


def cdoubleprime_relation_gap(K: float, q: int, cfg: ConstantConfig = DEFAULT_CONFIG) -> float:
    """2*pi*C''(2K+1, q) - (log(Kq) + c1)/q; <= 0 when the configured c1 absorbs
    the lift-vs-germ constant transfer (needs c1 >= log(2 + 1/K) + 2*pi*c3)."""
    _check_Kq(K, q)
    return 2 * math.pi * const_Cdoubleprime(2 * K + 1, q, cfg) - (math.log(K * q) + cfg.c1) / q


# -- Moebius flows --------------------------------------------------------------
# FlowFamily([c], s) integrates chi(z) = 2 pi i z + c' z^2 with c' = c s.  With
# b = c'/(2 pi i) its linearizer is psi(z) = z/(1 + b z), the inverse is
# psi^{-1}(w) = w/(1 - b w) and the time-t map is the Moebius map
# f(z) = u z/(1 + b(1 - u) z), u = e^{2 pi i t}.


def mobius_psi_inv(c_prime: float, n: int) -> list:
    """Coefficients 0..n of psi^{-1}: [w^k] = b^{k-1}."""
    b = c_prime / (2j * math.pi)
    return [0j] + [b ** (k - 1) for k in range(1, n + 1)]


def mobius_germ(c_prime: float, t: float, n: int) -> list:
    """Coefficients b_2..b_n of the time-t map: [z^k] f = u (-b(1 - u))^{k-1}."""
    b = c_prime / (2j * math.pi)
    u = cmath.exp(2j * math.pi * t)
    return [u * (-b * (1 - u)) ** (k - 1) for k in range(2, n + 1)]


def mobius_radius(c_prime: float) -> float:
    """r* = 1/(1 + c'/(2 pi)): for c' < pi and irrational t, the conformal radius
    of the Siegel disk of f as a self-map of the unit disk, whatever t is."""
    return 1.0 / (1.0 + c_prime / (2 * math.pi))


def mobius_height(c_prime: float) -> float:
    """h* = log(1 + c'/pi)/(2 pi): the admissible height of the lift of f.  At
    Im Z = h* the circle |z| = e^{-2 pi h*} touches the boundary of the disk."""
    return math.log(1.0 + c_prime / math.pi) / (2 * math.pi)


def finite_difference_sup(fam, h: float) -> float:
    """max of |f_{a+h}(z) - f_{a-h}(z)| / 2h over a = k/72 and 128 points of
    |z| = 0.999, between germs of order LIPSCHITZ_ORDER.

    The grids hold a = 1/2, 5/6 and the quarter points of the circle, where
    the flows the tests use take their sup.
    """
    zs = 0.999 * np.exp(2j * np.pi * np.arange(128) / 128)
    best = 0.0
    for k in range(72):
        hi, lo = (polyval_row(fam.at(k / 72 + d, LIPSCHITZ_ORDER).full_coeffs(), zs)
                  for d in (h, -h))
        best = max(best, float(np.max(np.abs(hi - lo))) / (2 * h))
    return best
