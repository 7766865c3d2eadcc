"""Formal linearization of indifferent germs and conformal-radius estimators.

The linearizing series phi(z) = z + sum a_n z^n solves phi(rho z) = f(phi(z))
coefficient by coefficient: (rho^n - rho) a_n equals a polynomial in the
earlier coefficients.  The divisor rho^n - rho vanishes exactly when the
multiplier is a root of unity of order dividing n-1; everything downstream
(pole probes, radius estimators) watches that divisor.

Two radius estimators are provided.  The Cauchy-Hadamard regression is an
upper-side indicator only (the series may converge beyond the disk the germ
owns); the escape estimator brackets the radius from both sides and its
verdicts are tolerance-stamped, never absolute.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import series
from .errors import (
    DomainError,
    OverflowGuard,
    SiegelError,
    SmallDivisorBlowup,
    is_count,
)
from .germs import TWO_PI_I, Germ, GermFamily, phase_fracs

__all__ = [
    "LinearizationSeries",
    "RadiusEstimate",
    "EscapeParams",
    "linearizations",
    "linearization_coeffs",
    "compose_check",
    "pole_cancellation_probe",
    "hadamard_radius",
    "escape_radius",
    "escape_radii",
]

DIVISOR_FLOOR = 1e-13     # below this, rho^n - rho is treated as exactly zero
NUMERATOR_FLOOR = 1e-12   # |P| above this over a zero divisor is a genuine pole
MAG_CAP = 1e250
TABLE_BYTES = 1 << 20     # budget for the power tables of one lock-step block
ESCAPE_CAP = 0.999999     # the largest radius the escape estimator tests


@dataclass
class LinearizationSeries:
    """Series array ``a`` = [0, 1, a_2, ..., a_N] plus divisor diagnostics."""

    a: np.ndarray
    small_divisor_log: np.ndarray     # log |rho^n - rho| per index (-inf at poles)
    numerators: np.ndarray            # |P_{b,n}| per index, for pole probes
    stop: Optional[SiegelError]       # what ended a partial series; None when full

    @property
    def order(self) -> int:
        return len(self.a) - 1


@dataclass
class RadiusEstimate:
    lower: float
    upper: float
    method: str
    params: Dict[str, float] = field(default_factory=dict)
    diagnostics: str = ""


def _divisor(phase: float, rho: complex) -> complex:
    """rho^n - rho = rho (e^{2 pi i (n-1) alpha} - 1) for the multiplier rho,
    from the phase frac((n-1) alpha) reduced exactly before leaving exact
    arithmetic (small divisors need the care)."""
    # e^{i theta} - 1 = 2 i sin(theta/2) e^{i theta/2}
    half = math.pi * phase
    return rho * (2j * math.sin(half) * cmath.exp(1j * half))


def _abs(z: complex) -> float:
    """|z| by Python's abs, inf where that raises OverflowError.  This is not
    numpy's complex abs: the two differ in the last place on about 35% of
    10^5 random values (numpy 2.4, x86-64), so a magnitude test here can
    disagree with an ``np.abs`` one by an ulp."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def linearizations(germs: Sequence[Germ], N: int, allow_rational: bool = False,
                   on_failure: str = "raise") -> List[LinearizationSeries]:
    """Solve the linearization recursion up to order N for every germ.

    For exactly rational alpha = p/q the divisor vanishes exactly at every
    n > 1 with q | (n-1); those indices either cancel (numerator below floor,
    coefficient set to 0, any value solves the equation) or are a pole,
    :class:`SmallDivisorBlowup`; a coefficient above :data:`MAG_CAP` is an
    :class:`OverflowGuard`.  Rational handles must opt in via
    ``allow_rational`` since blowup is then expected.

    Every germ before the first refused rational runs to its own stop.
    ``on_failure="truncate"`` returns the partial series up to (not including)
    the first pole or overflow index, with that failure as its ``stop``; the
    escape estimator feeds on such partial series at non-linearizable
    parameters, where the conjugacy residual then enforces the order-(q+1)
    mismatch.  In raise mode the first ``stop`` in input order raises, as if
    the germs ran one after another; a refused rational raises
    :class:`DomainError` after that.

    Germs with the same ``min(order, N)`` run in lock-step, one pass over n
    for all of them (:func:`_recursion`), in blocks whose power tables fit in
    :data:`TABLE_BYTES`.  Every series is the one its germ gets alone, bit
    for bit.
    """
    if on_failure not in ("raise", "truncate"):
        raise DomainError("on_failure must be 'raise' or 'truncate'")
    if not is_count(N, 1):
        raise DomainError("linearization order N >= 1 required")
    refused = next((i for i, g in enumerate(germs)
                    if isinstance(g.alpha, (int, Fraction)) and not allow_rational), len(germs))
    by_order: Dict[int, List[int]] = {}
    for i in range(refused):
        by_order.setdefault(min(germs[i].order, N), []).append(i)
    out: List[Optional[LinearizationSeries]] = [None] * refused
    for mm, idx in by_order.items():
        size = max(1, TABLE_BYTES // (16 * (mm + 1) * (N + 1)))  # complex128 tables
        for s in range(0, len(idx), size):
            block = idx[s:s + size]
            for i, phi in zip(block, _recursion([germs[i] for i in block], N, mm)):
                out[i] = phi
    failures = [phi.stop for phi in out if phi.stop is not None] if on_failure == "raise" else []
    if refused < len(germs):
        failures.append(DomainError("rational alpha: pass allow_rational=True to accept poles"))
    if failures:
        raise failures[0]
    return out


def _recursion(germs: Sequence[Germ], N: int, mm: int) -> List[LinearizationSeries]:
    """The recursion in lock-step over germs with ``min(order, N) == mm``:
    their series, each partial one with the failure that stopped it.

    The power table is ``(K, mm+1, N+1)`` and each index n costs two einsums
    for the whole batch; every germ keeps its own scalar tail (divisor, exact
    zero test, Python-complex division, cap).  A germ that fails stops
    feeding the table there and gets its partial series; the others run on.
    """
    K = len(germs)
    rho = [g.multiplier() for g in germs]
    phases = [phase_fracs(g.alpha, N) for g in germs]   # frac((n-1) alpha) at n-1
    b = np.array([g.coeffs[:mm - 1] for g in germs], dtype=np.complex128)  # b_2..b_mm
    # pow_tab[k, m, n] = [z^n] (sum a_i z^i)^m of germ k, filled column by column;
    # row m = 1 holds the series a itself
    pow_tab = np.zeros((K, mm + 1, N + 1), dtype=np.complex128)
    pow_tab[:, 1, 1] = 1.0
    logs = [[math.nan, math.nan] for _ in germs]    # log |rho^n - rho| by index
    nums = [[0.0, 0.0] for _ in germs]              # |P_n| by index
    out: List[Optional[LinearizationSeries]] = [None] * K
    live = list(range(K))     # row r of the table belongs to germ live[r]

    def finish(r: int, n: int, stop: Optional[SiegelError]) -> None:
        k = live[r]
        out[k] = LinearizationSeries(a=pow_tab[r, 1, :n].copy(),
                                     small_divisor_log=np.array(logs[k][:n]),
                                     numerators=np.array(nums[k][:n]), stop=stop)

    for n in range(2, N + 1):
        if mm >= 2:
            top = min(mm, n)
            # [z^n] phi^m = sum_j a_j [z^{n-j}] phi^{m-1}
            pow_tab[:, 2:top + 1, n] = np.einsum("kij,kj->ki", pow_tab[:, 1:top, n - 1:0:-1],
                                                 pow_tab[:, 1, 1:n], optimize=False)
            Ps = np.einsum("ki,ki->k", b, pow_tab[:, 2:mm + 1, n], optimize=False).tolist()
        else:
            Ps = [0j] * len(live)
        col = []                # a_n by row
        keep = []
        for r, k in enumerate(live):
            Pn = Ps[r]
            nums[k].append(abs(Pn))
            phase = phases[k][n - 1]
            div = _divisor(phase, rho[k])
            stop = None
            # a zero phase (at p/q, exactly when q | (n-1)) gives a divisor of 0
            if abs(div) < DIVISOR_FLOOR:
                logs[k].append(-math.inf)
                col.append(0j)
                if abs(Pn) > NUMERATOR_FLOOR:
                    stop = SmallDivisorBlowup(
                        f"pole at n={n}: divisor 0, |P|={abs(Pn):.3e}")
            else:
                logs[k].append(math.log(abs(div)))
                col.append(Pn / div)
                if _abs(col[-1]) > MAG_CAP:
                    stop = OverflowGuard(f"|a_{n}| = {_abs(col[-1]):.3e} exceeds cap")
            if stop is None:
                keep.append(r)
            else:
                finish(r, n, stop)
        pow_tab[:, 1, n] = col
        if len(keep) < len(live):
            if not keep:
                return out
            live = [live[r] for r in keep]
            pow_tab, b = pow_tab[keep], b[keep]
    for r in range(len(live)):
        finish(r, N + 1, None)
    return out


def linearization_coeffs(g: Germ, N: int, **options) -> LinearizationSeries:
    """The series of the one germ ``g``: :func:`linearizations` of ``[g]``."""
    return linearizations([g], N, **options)[0]


def compose_check(g: Germ, phi: LinearizationSeries) -> float:
    """max_n |[z^n](phi o R_alpha - f o phi)| via truncated composition to
    the series' own order."""
    N = phi.order
    rho_pows = np.array([cmath.exp(TWO_PI_I * x) for x in phase_fracs(g.alpha, N + 1)],
                        dtype=np.complex128)
    lhs = phi.a * rho_pows
    rhs = series.compose(series.trim(g.full_coeffs(), N), phi.a, N)
    return float(np.max(np.abs(lhs - rhs)))


def pole_cancellation_probe(fam: GermFamily, p: int, q: int, n: int) -> dict:
    """Track |P_{b,n}| along alpha = p/q + eps for eps = 10^-1, ..., 10^-8.

    A vanishing limit certifies cancellation (the family linearizes at p/q at
    this index, degenerate-type behaviour); a nonzero limit is a pole and the
    matching a_n blows up like 1/|rho^n - rho|.  An offset whose series stops
    below n (its own pole, or an overflow) reports the stop in its row; the
    verdict reads the offsets that reach n, and raises the first stop when
    none does.
    """
    if not (is_count(p, -math.inf) and is_count(q, 1) and is_count(n, 2)) or (n - 1) % q:
        raise DomainError("need integers p, q >= 1 and n >= 2 with q | (n - 1)")
    base = Fraction(p, q)
    epss = [Fraction(1, 10 ** j) for j in range(1, 9)]
    lins = linearizations([fam.at(base + eps, max(n, 8)) for eps in epss], n,
                          allow_rational=True, on_failure="truncate")
    rows = [{"eps": float(eps), "alpha": str(base + eps)} for eps in epss]
    for row, lin in zip(rows, lins):
        if lin.order < n:
            row["stop"] = f"{type(lin.stop).__name__}: {lin.stop}"
            continue
        log_div = lin.small_divisor_log[n]
        row.update(P_abs=float(lin.numerators[n]), a_abs=float(abs(lin.a[n])),
                   divisor_abs=float(math.exp(log_div)) if math.isfinite(log_div) else 0.0)
    reached = [row["P_abs"] for row in rows if "P_abs" in row]
    if not reached:
        raise lins[0].stop
    scale = max(reached[0], 1e-30)
    verdict = "cancellation" if reached[-1] < 1e-3 * scale or reached[-1] < 1e-12 else "pole"
    return {"p": p, "q": q, "n": n, "rows": rows, "verdict": verdict}


def hadamard_radius(phi: LinearizationSeries, window: int) -> RadiusEstimate:
    """1 / limsup |a_n|^{1/n} by regressing log|a_n| over the trailing window.

    Upper-side indicator for the restricted germ's radius; the series may
    converge beyond it, which the diagnostics spell out.  An all-zero window
    (rotation case) reports upper = +inf instead of raising.
    """
    N = phi.order
    if not (is_count(window, 16) and N >= window):
        raise DomainError("need N >= window >= 16")
    idx = np.arange(N - window + 1, N + 1)
    mags = np.abs(phi.a[idx])
    mask = mags > 0
    if int(mask.sum()) < max(8, window // 8):
        return RadiusEstimate(lower=0.0, upper=math.inf, method="hadamard",
                              params={"window": window},
                              diagnostics="degenerate-window: too few nonzero coefficients")
    x = idx[mask].astype(np.float64)
    y = np.log(mags[mask])
    # closed-form least squares (keeps the estimate bit-reproducible)
    xm, ym = x.mean(), y.mean()
    slope = float(((x - xm) * (y - ym)).sum() / ((x - xm) ** 2).sum())
    radius = math.exp(-slope)
    return RadiusEstimate(lower=0.0, upper=radius, method="hadamard",
                          params={"window": window},
                          diagnostics="upper-side indicator; the formal series "
                                      "can converge beyond the germ's own disk")


@dataclass(frozen=True)
class EscapeParams:
    max_iter: int = 10_000
    circle_samples: int = 64
    bisect_tol: float = 1e-3
    residual_tol: float = 1e-8

    def __post_init__(self):
        for name in ("bisect_tol", "residual_tol"):
            if not 0.0 < getattr(self, name) < math.inf:  # False on NaN
                raise DomainError(f"{name} must be finite and positive")
        if not (is_count(self.circle_samples, 1) and is_count(self.max_iter, 0)):
            raise DomainError("need integers circle_samples >= 1 and max_iter >= 0")


def _in_unit_disk(w: np.ndarray) -> np.ndarray:
    return np.abs(w) < 1.0


def _orbits_stay(step: Callable, w: np.ndarray, max_iter: int,
                 rows: Optional[np.ndarray] = None,
                 inside: Callable = _in_unit_disk) -> np.ndarray:
    """Lock-step orbit kernel: which groups of points stay inside for
    ``max_iter`` steps.

    Group i is the row ``w[i]`` of start points; ``step(w, rows)`` maps every
    live point one step, with ``rows`` (optional) holding one row of data per
    group, e.g. a germ's coefficients.  A group drops out of the batch at its
    first point where ``inside`` is False, so later steps cost only what is
    still alive and a group once out stays out; the points and ``rows`` are
    sliced only then.  The default test ``|w| < 1`` is False on NaN and inf,
    so a non-finite point counts as escaped.
    """
    verdict = np.zeros(len(w), dtype=bool)
    idx = np.arange(len(w))
    for _ in range(max_iter):
        ok = inside(w)
        if not ok.all():
            keep = ok.all(axis=-1)
            idx, w = idx[keep], w[keep]
            if rows is not None:
                rows = rows[keep]
            if not len(idx):
                return verdict
        w = step(w, rows)
    verdict[idx[inside(w).all(axis=-1)]] = True
    return verdict


def _bisect(start: Callable[[int, float], object],
            stays: Callable[[List[Tuple[int, object]]], Sequence[bool]],
            lo: List[float], hi: List[float], tol: float, stay_above: bool) -> None:
    """Chained bisection of the brackets ``[lo[i], hi[i]]``, in place.

    A point x of bracket i is tested by its orbits: ``start(i, x)`` gives
    their start points, or None when x fails a screen that needs no orbit,
    and ``stays(points)`` runs the orbits of a list of ``(i, start)`` in one
    kernel call, True where every orbit stays.  Staying points lie above the
    boundary when ``stay_above`` (heights) and below it otherwise (radii); a
    tested point becomes the end of the bracket on its own side.  Each
    bracket tests its top ``hi[i]`` first, so a top on the wrong side closes
    it at ``lo[i] == hi[i]``; then its midpoint ``0.5 * (lo + hi)`` while the
    bracket is wider than ``tol`` and the midpoint lies strictly inside.

    A staying point costs a full ``max_iter`` run; an escaping one usually
    stops early.  So every round walks each open bracket down the path it
    takes if every untested point stays, following the verdicts already
    known (kept for this call, per bracket and point, screen failures
    included), and sends every untested point on all those paths through one
    ``stays`` call.  The brackets then advance through the known verdicts up
    to the first wrong guess.  Each verdict is the one its point gets alone,
    so the points read, their verdicts and every bracket are those of one
    point per call; only points past a wrong guess are tested and not read.
    """
    known: Dict[Tuple[int, float], bool] = {}  # (bracket, point) -> orbits stay
    top = [True] * len(lo)

    def walk(i: int) -> list:
        """Advance bracket i through known verdicts and return the untested
        points on its likely path, with their start points."""
        l, h, t = lo[i], hi[i], top[i]
        path = []
        while True:
            x = h if t else 0.5 * (l + h)
            if not (t or (h - l > tol and l < x < h)):
                return path
            if (i, x) not in known:
                w = start(i, x)
                if w is None:
                    known[i, x] = False
                else:
                    path.append((i, x, w))
            if known.get((i, x), True) == stay_above:  # untested: it stays
                h = x
            else:
                l = x
            t = False
            if not path:
                lo[i], hi[i], top[i] = l, h, t

    while True:
        batch = [p for i in range(len(lo)) for p in walk(i)]
        if not batch:
            return
        verdicts = stays([(i, w) for i, _, w in batch])
        known.update(((i, x), bool(ok)) for (i, x, _), ok in zip(batch, verdicts))


def escape_radii(germs: Sequence[Germ], phis: Sequence[LinearizationSeries],
                 params: EscapeParams = EscapeParams()) -> List[RadiusEstimate]:
    """:func:`escape_radius` for many parameters, in one chained bisection.

    Every bracket starts as [0, :data:`ESCAPE_CAP`] and tests the cap first.
    The chart checks run per radius, once, and screen a radius out without
    an orbit; each round the orbits of all radii on every bracket's likely
    path (each radius valid) go through one kernel call per germ row length.
    Each bracket moves exactly as it would alone, so the estimates do not
    depend on what else is in the batch.
    """
    if len(germs) != len(phis):
        raise DomainError("need one chart per germ")
    S = params.circle_samples
    ring = np.exp(TWO_PI_I * np.arange(S) / S)
    rows = [g.full_coeffs() for g in germs]
    mults = [g.multiplier() for g in germs]

    def start(i: int, r: float) -> Optional[np.ndarray]:
        """Orbit start points phi(r * ring), or None when the chart leaves the
        disk or the conjugacy residual is not below tolerance (NaN fails)."""
        z = r * ring
        w = series.polyval_vec(phis[i].a, z)
        if not np.all(np.abs(w) < 1.0):
            return None
        fz = series.polyval_vec(phis[i].a, mults[i] * z)
        resid = np.max(np.abs(fz - series.polyval_vec(rows[i], w)))
        return w if resid < params.residual_tol else None

    def stays(points: List[Tuple[int, np.ndarray]]) -> List[bool]:
        out = [False] * len(points)
        by_len: Dict[int, List[int]] = {}
        for k, (i, _) in enumerate(points):
            by_len.setdefault(len(rows[i]), []).append(k)
        for ks in by_len.values():
            ok = _orbits_stay(lambda w, r: series.polyval_vec(r, w),
                              np.array([points[k][1] for k in ks]), params.max_iter,
                              rows=np.array([rows[points[k][0]] for k in ks])[:, None, :])
            for k, v in zip(ks, ok):
                out[k] = bool(v)
        return out

    n = len(germs)
    lo, hi = [0.0] * n, [ESCAPE_CAP] * n
    _bisect(start, stays, lo, hi, params.bisect_tol, stay_above=False)
    out = []
    for i in range(n):
        if lo[i] == ESCAPE_CAP:  # valid at the cap: every mid lies below it
            lower, upper, diag = ESCAPE_CAP, 1.0, "valid up to the cap"
        elif lo[i] == 0.0:
            lower, upper, diag = lo[i], hi[i], "NoValidRadius: non-linearizable at tolerance"
        else:
            lower, upper, diag = lo[i], hi[i], "bracket from bisection"
        out.append(RadiusEstimate(lower=lower, upper=upper, method="escape",
                                  params=asdict(params), diagnostics=diag))
    return out


def escape_radius(g: Germ, phi: LinearizationSeries,
                  params: EscapeParams = EscapeParams()) -> RadiusEstimate:
    """Bisection bracket of the largest radius that looks linearizable.

    VALID(rho) requires phi(rho * samples) to lie in the unit disk, the
    truncated conjugacy residual on |z| = rho to stay below ``residual_tol``
    and every orbit started from phi(rho * samples) to stay in the unit disk
    for ``max_iter`` steps.  Each test is "finite and inside", so NaN or inf
    anywhere rejects the radius.
    """
    return escape_radii([g], [phi], params)[0]

