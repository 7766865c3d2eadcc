"""Continued fractions over exact values.

Expansions are ``[a0; a1, a2, ...]`` with all partial quotients >= 1.  A
:class:`CFExpansion` is either finite (a rational) or eventually periodic (a
quadratic irrational); periodic tails are unrolled lazily with memoized
convergents, so deep convergents stay cheap.

The special parameter sequences built here append a quadratic-irrational tail
(default 1 + sqrt(2)) after a bumped partial quotient; they converge to the
base value through bounded-type numbers, alternating sides when the base is
irrational.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, NamedTuple, Tuple, Union

from .errors import DepthExceeded, DomainError, RationalInput, is_count
from .surd import (
    ExactReal,
    QuadraticIrrational,
    exact_cmp,
    bracket,
    int_text,
)

__all__ = [
    "CFExpansion",
    "Convergent",
    "SHORT_FORM",
    "LONG_FORM",
    "DEFAULT_TAIL",
    "cf_of_rational",
    "cf_of_quadratic_irrational",
    "cf_of_exact",
    "convergents",
    "eval_cf",
    "special_sequence_main",
    "theta_sequence",
    "side_and_gap",
    "parse_cf",
    "format_cf",
    "parse_exact",
    "format_exact",
    "farey_fractions",
]

SHORT_FORM = "short"
LONG_FORM = "long"

#: default appended tail for the special sequences; 1 + sqrt(2) = [2; 2, 2, ...]
DEFAULT_TAIL: QuadraticIrrational = QuadraticIrrational(1, 1, 1, 2)
#: side_and_gap refines its bracket of |beta - alpha| until it is this narrow
GAP_WIDTH = Fraction(1, 10**50)


class Convergent(NamedTuple):
    index: int
    p: int
    q: int


@dataclass
class CFExpansion:
    """a0 plus partial quotients; ``period`` empty means a finite (rational) CF."""

    a0: int
    partials: Tuple[int, ...] = ()
    period: Tuple[int, ...] = ()
    _conv: List[Convergent] = field(default_factory=list, init=False, repr=False,
                                    compare=False)  # memo of convergent()

    def __post_init__(self):
        self.partials = tuple(int(a) for a in self.partials)
        self.period = tuple(int(a) for a in self.period)
        if any(a < 1 for a in self.partials) or any(a < 1 for a in self.period):
            raise ValueError("partial quotients must be >= 1")

    # -- structure ----------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return not self.period

    def quotient(self, i: int) -> int:
        """a_i, unrolling the period on demand."""
        if i == 0:
            return self.a0
        j = i - 1
        if j < len(self.partials):
            return self.partials[j]
        if self.is_finite:
            raise DepthExceeded(f"finite expansion of length {len(self.partials)}")
        return self.period[(j - len(self.partials)) % len(self.period)]

    def convergent(self, n: int) -> Convergent:
        """p_n/q_n with the convention p_-1/q_-1 = 1/0."""
        if n < -1:
            raise DomainError("index >= -1 required")
        if n == -1:
            return Convergent(-1, 1, 0)
        memo = self._conv
        if not memo:
            memo.append(Convergent(0, self.a0, 1))
        while len(memo) <= n:
            k = len(memo)
            a = self.quotient(k)
            pk1, qk1 = memo[k - 1].p, memo[k - 1].q
            pk2, qk2 = (memo[k - 2].p, memo[k - 2].q) if k >= 2 else (1, 0)
            memo.append(Convergent(k, a * pk1 + pk2, a * qk1 + qk2))
        return memo[n]

    def tail_value(self) -> ExactReal:
        """Exact value of the purely periodic tail (the first unrolled state)."""
        if self.is_finite:
            raise RationalInput("finite expansion has no periodic tail")
        # x = [b0; b1, ..., b_{m-1}, x]  =>  q x^2 + (q' - p) x - p' = 0, x > 1
        per = CFExpansion(self.period[0], self.period[1:])
        m = len(self.period) - 1
        pm, qm = per.convergent(m).p, per.convergent(m).q
        pm1, qm1 = per.convergent(m - 1).p, per.convergent(m - 1).q
        A, B = qm, qm1 - pm
        # the roots multiply to -p'/q < 0, so x is the one with +sqrt(disc)
        return QuadraticIrrational(-B, 1, 2 * A, B * B + 4 * A * pm1)

    def value(self) -> ExactReal:
        """Exact value of the whole expansion."""
        if self.is_finite:
            n = len(self.partials)
            c = self.convergent(n)
            return Fraction(c.p, c.q)
        x = self.tail_value()
        n = len(self.partials)  # tail starts at index n+1
        return eval_cf(self, n, x)

    def __str__(self) -> str:
        return format_cf(self)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def cf_of_rational(x: Union[Fraction, int], variant: str = SHORT_FORM) -> CFExpansion:
    """Euclidean expansion of a rational; each rational has exactly two.

    The short form ends with a quotient >= 2 (or is just [a0]); the long form
    ends ..., a_s - 1, 1, with the boundary convention [a0] <-> [a0-1; 1].
    """
    x = Fraction(x)
    quots: List[int] = []
    num, den = x.numerator, x.denominator
    while True:
        a, r = divmod(num, den)
        quots.append(a)
        if r == 0:
            break
        num, den = den, r
    if variant == LONG_FORM:  # Euclid's last quotient past a0 is >= 2; [a0] is [a0-1; 1]
        quots[-1:] = [quots[-1] - 1, 1]
    elif variant != SHORT_FORM:
        raise ValueError(f"unknown variant {variant!r}")
    return CFExpansion(quots[0], tuple(quots[1:]))


def cf_of_quadratic_irrational(x: QuadraticIrrational) -> CFExpansion:
    """Expansion of a real quadratic irrational (eventually periodic).

    Runs the integer (P + sqrt(D))/Q recursion with Q | (D - P^2) and detects
    the first repeated state, which gives the minimal preperiod and period.
    """
    if not isinstance(x, QuadraticIrrational):
        raise RationalInput("rational input; use cf_of_rational")
    # normalize to (P + sqrt(D)) / Q
    if x.b > 0:
        P, Q, D = x.a, x.c, x.b * x.b * x.d
    else:
        P, Q, D = -x.a, -x.c, x.b * x.b * x.d
    if (D - P * P) % Q != 0:
        P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
    quots: List[int] = []
    seen = {}
    sq = math.isqrt(D)
    while True:
        key = (P, Q)
        if key in seen:
            start = seen[key]
            pre, per = quots[:start], quots[start:]
            break
        seen[key] = len(quots)
        a = _quotient(P, sq, Q)
        quots.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    return CFExpansion(pre[0] if pre else per[0],
                       tuple(pre[1:]) if pre else (),
                       tuple(per) if pre else tuple(per[1:]) + (per[0],))


def _quotient(P: int, sq: int, Q: int) -> int:
    """floor((P + sqrt(D))/Q), sq = isqrt(D), D nonsquare: P + sqrt(D) lies
    strictly between P + sq and P + sq + 1, the ceiling to divide by Q < 0."""
    return (P + sq + (Q < 0)) // Q


def cf_of_exact(x: ExactReal, variant: str = SHORT_FORM) -> CFExpansion:
    if isinstance(x, QuadraticIrrational):
        return cf_of_quadratic_irrational(x)
    return cf_of_rational(Fraction(x), variant)


# ---------------------------------------------------------------------------
# evaluation and convergents
# ---------------------------------------------------------------------------


def convergents(cf: CFExpansion, n: int) -> List[Convergent]:
    """Convergents p_0/q_0 .. p_n/q_n; raises DepthExceeded past a finite CF."""
    if not is_count(n, 0):
        raise DomainError("n >= 0 required")
    if cf.is_finite and n > len(cf.partials):
        raise DepthExceeded(f"finite expansion supports n <= {len(cf.partials)}")
    return [cf.convergent(k) for k in range(n + 1)]


def eval_cf(cf: CFExpansion, n: int, x: Union[ExactReal, float]) -> Union[ExactReal, float]:
    """Value of [a0; a1, ..., a_n, x] = (p_n x + p_{n-1}) / (q_n x + q_{n-1}).

    Exact when x is exact; n = -1 returns x itself.
    """
    pn, qn = cf.convergent(n).p, cf.convergent(n).q
    pn1, qn1 = cf.convergent(n - 1).p, cf.convergent(n - 1).q
    num = pn * x + pn1
    den = qn * x + qn1
    if isinstance(num, int):
        num = Fraction(num)
    return num / den


# ---------------------------------------------------------------------------
# the special sequences
# ---------------------------------------------------------------------------


def special_sequence_main(alpha: CFExpansion, n: int,
                          tail: QuadraticIrrational = DEFAULT_TAIL) -> ExactReal:
    """n-th member of the bounded-type sequence attached to alpha.

    Irrational alpha = [a0; a1, a2, ...] gives [a0; a1, ..., a_n, 1+a_{n+1}, tail];
    rational alpha = [a0; ..., a_k] (caller fixes the expansion variant) gives
    [a0; ..., a_k, n + tail], i.e. n+1+sqrt(2) for the default tail.
    """
    if not is_count(n, 0):
        raise DomainError("n >= 0 required")
    if alpha.is_finite:
        k = len(alpha.partials)
        return eval_cf(alpha, k, n + tail)
    bumped = 1 + alpha.quotient(n + 1)
    x = bumped + 1 / tail  # value of [1+a_{n+1}; tail expansion ...]
    return eval_cf(alpha, n, x)


def theta_sequence(alpha: CFExpansion, n: int) -> ExactReal:
    """Noble-tail sequence [a0; a1, ..., a_n, 1 + a_{n+1}, 1, 1, 1, ...]: the
    special sequence with the golden tail [1; 1, 1, ...]."""
    if alpha.is_finite:
        raise RationalInput("theta sequence needs an irrational expansion")
    return special_sequence_main(alpha, n, tail=QuadraticIrrational(1, 1, 2, 5))


# ---------------------------------------------------------------------------
# exact side / gap certificates
# ---------------------------------------------------------------------------


def side_and_gap(alpha: ExactReal, beta: ExactReal) -> Tuple[int, Tuple[Fraction, Fraction]]:
    """Exact sign of beta - alpha plus a rational bracket for |beta - alpha|.

    The bracket [lo, hi] satisfies lo <= |beta - alpha| <= hi and is refined
    until hi - lo <= :data:`GAP_WIDTH` (lo = hi for two rationals).
    Returns sign 0 with a zero bracket for equal values.
    """
    sign = exact_cmp(beta, alpha)
    if sign == 0:
        return 0, (Fraction(0), Fraction(0))
    bits = 64
    while True:
        alo, ahi = bracket(alpha, bits)
        blo, bhi = bracket(beta, bits)
        lo = blo - ahi if sign > 0 else alo - bhi
        hi = bhi - alo if sign > 0 else ahi - blo
        if lo < 0:
            lo = Fraction(0)
        if hi - lo <= GAP_WIDTH:
            return sign, (lo, hi)
        bits *= 2


# ---------------------------------------------------------------------------
# text format: "[a0;a1,a2,(p1,p2)]", surds "(a+b*sqrt(d))/c"
# ---------------------------------------------------------------------------

_SURD_RE = re.compile(
    r"^\(\s*(-?\d+)\s*([+-])\s*(\d+)\s*\*\s*sqrt\(\s*(\d+)\s*\)\s*\)\s*/\s*(-?\d+)$"
)


def format_cf(cf: CFExpansion) -> str:
    parts = [str(a) for a in cf.partials]
    if cf.period:
        parts.append("(" + ",".join(str(a) for a in cf.period) + ")")
    return f"[{cf.a0};{','.join(parts)}]" if parts else f"[{cf.a0}]"


def parse_cf(text: str) -> CFExpansion:
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise ValueError(f"not a continued-fraction literal: {text!r}")
    body = t[1:-1]
    a0s, _, rest = body.partition(";")
    try:
        a0 = int(a0s.strip())
        rest = rest.strip()
        head: List[int] = []
        per: List[int] = []
        if rest:
            m = re.match(r"^(.*?),?\s*(?:\(([^()]*)\))?\s*$", rest)
            head_s = m.group(1).strip()
            if head_s:
                head = [int(tok.strip()) for tok in head_s.split(",")]
            if m.group(2) is not None:
                per = [int(tok.strip()) for tok in m.group(2).split(",")]
        return CFExpansion(a0, tuple(head), tuple(per))
    except ValueError as exc:
        raise ValueError(f"bad continued-fraction literal {text!r}: {exc}") from None


def format_exact(x: ExactReal) -> str:
    if isinstance(x, QuadraticIrrational):
        return str(x)
    f = Fraction(x)
    num = int_text(f.numerator)
    return f"{num}/{int_text(f.denominator)}" if f.denominator != 1 else num


def parse_exact(text: str) -> ExactReal:
    """Parse "p/q", an integer, a surd "(a+b*sqrt(d))/c", or CF text."""
    t = text.strip()
    if t.startswith("["):
        return parse_cf(t).value()
    m = _SURD_RE.match(t)
    if m:
        a, sgn, b, d, c = int(m.group(1)), m.group(2), int(m.group(3)), int(m.group(4)), int(m.group(5))
        return QuadraticIrrational(a, b if sgn == "+" else -b, c, d)
    if "/" in t:
        num, den = t.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(t))


def farey_fractions(qmax: int) -> List[Fraction]:
    """All reduced fractions in [0, 1] with denominator <= qmax, ascending."""
    if not is_count(qmax, 1):
        raise DomainError("Farey order qmax >= 1 required")
    out = [Fraction(0), Fraction(1)]
    for q in range(2, qmax + 1):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                out.append(Fraction(p, q))
    out.append(Fraction(1, 1))
    return sorted(set(out))
