"""Brjuno-type sums, arithmetic-class predicates and explicit constants.

The Brjuno sum implemented here is the standard B(alpha) = sum log(q_{n+1})/q_n
over the continued-fraction denominators.  Other common variants of the sum
differ from it by a bounded amount, which is irrelevant for the
convergence/divergence classifications this package needs.

The universal constants entering the quantitative bounds are not pinned by
theory, only proved to exist; :class:`ConstantConfig` makes them explicit and
overridable so every probe reports its results parametrically.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, fields
from typing import Dict, Optional

from .cf import CFExpansion
from .errors import DomainError, is_count

__all__ = [
    "BrjunoValue",
    "ConstantConfig",
    "brjuno_sum",
    "const_C",
    "const_Cprime",
    "const_Cdoubleprime",
    "load_config",
    "config_from_mapping",
    "format_config",
]




@dataclass(frozen=True)
class BrjunoValue:
    value: float          # +inf for rationals
    depth_used: int
    converged: bool       # tail bound below tolerance at the reported depth


@dataclass(frozen=True)
class ConstantConfig:
    """Calibration of the universal constants; defaults are placeholders."""

    c1: float = 1.0
    c3: float = 1.0
    C_sqrt2: float = 1.0
    A: float = 2.0
    C1_glue: float = 1.0

    def __post_init__(self):
        for name in ("c1", "c3", "C_sqrt2", "C1_glue"):
            x = getattr(self, name)
            if not (math.isfinite(x) and x > 0):
                raise DomainError(f"{name} must be positive")
        if not (math.isfinite(self.A) and self.A > 1):
            raise DomainError("A must exceed 1")


DEFAULT_CONFIG = ConstantConfig()

_CONFIG_KEYS = tuple(f.name for f in fields(ConstantConfig))


def config_from_mapping(data: Dict[str, str]) -> ConstantConfig:
    kwargs = {}
    for key, raw in data.items():
        if key not in _CONFIG_KEYS:
            raise DomainError(f"unknown config key {key!r}")
        try:
            kwargs[key] = float(raw)
        except ValueError:
            raise DomainError(f"config key {key!r} needs a number, not {raw!r}") from None
    return ConstantConfig(**kwargs)


def load_config(path: Optional[str]) -> ConstantConfig:
    """Key-value file ("key = value" lines, # comments; ``path`` None reads
    none) plus SIEGEL_* overrides."""
    data: Dict[str, str] = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DomainError(f"bad config line: {line!r}")
                key, val = (t.strip() for t in line.split("=", 1))
                data[key] = val
    by_upper = {key.upper(): key for key in _CONFIG_KEYS}
    # SIEGEL_<key> or SIEGEL_<KEY>; sorted, the exact spelling comes last and wins
    for name in sorted(n for n in os.environ if n.startswith("SIEGEL_")):
        suffix = name[len("SIEGEL_"):]
        data[by_upper.get(suffix, suffix)] = os.environ[name]
    return config_from_mapping(data)


def format_config(cfg: ConstantConfig) -> str:
    return " ".join(f"{k}={getattr(cfg, k)}" for k in _CONFIG_KEYS)


# ---------------------------------------------------------------------------
# Brjuno sum and bounded type
# ---------------------------------------------------------------------------


# the largest finite float as an int; a float divided by a larger int may overflow
_FLOAT_MAX_INT = int(sys.float_info.max)


def brjuno_sum(alpha: CFExpansion, depth: int, tol: float) -> BrjunoValue:
    """Partial sum of log(q_{n+1})/q_n with a geometric tail certificate.

    Rational input (full finite expansion) diverges by convention and returns
    +inf.  A finite expansion cut off by ``depth`` is treated as a prefix of an
    unknown number: the partial value is returned unconverged.  A term whose
    q_n is past float range is below 1e-305 and adds 0.0.  The tail bound is
    divided by q_depth in two steps, by ``q_depth >> k`` and then by ``2**k``
    with ``math.ldexp``, so past float range it keeps its size: it reads 0.0,
    and converged, only once it is below the smallest float.
    """
    if not is_count(depth, 0):
        raise DomainError("depth >= 0 required")
    if not 0.0 < tol < math.inf:  # False on NaN
        raise DomainError("tol must be finite and positive")
    if alpha.is_finite and depth >= len(alpha.partials):
        return BrjunoValue(math.inf, len(alpha.partials), True)
    total = 0.0
    n = 0
    while n < depth:
        qn = alpha.convergent(n).q
        qn1 = alpha.convergent(n + 1).q
        total += math.log(qn1) / qn if qn <= _FLOAT_MAX_INT else 0.0
        n += 1
    converged = False
    if not alpha.is_finite:
        # period quotients bounded by M:  log q_{n+1} <= log q_n + log(M+1),
        # and q_{n+j} >= q_n * phi^(j-1); both give a closed geometric bound.
        M = max(alpha.period)
        qd = alpha.convergent(depth).q
        lq = math.log(qd)
        phi = (1 + math.sqrt(5)) / 2
        lm = math.log(M + 1)
        # sum_{j>=0} (lq + (j+1) lm) / (qd phi^(j-1))
        s_geo = phi / (phi - 1)
        s_lin = phi / (phi - 1) ** 2 + phi / (phi - 1)
        k = max(0, qd.bit_length() - (sys.float_info.max_exp - 1))  # qd >> k has a float
        tail = math.ldexp((lq * s_geo + lm * s_lin) / (qd >> k), -k)
        converged = tail < tol
    return BrjunoValue(total, depth, converged)


# ---------------------------------------------------------------------------
# explicit constants
# ---------------------------------------------------------------------------


def _check_Kq(K: float, q: int) -> None:
    if not (math.isfinite(K) and K >= 1):
        raise DomainError("K >= 1 required")
    if not is_count(q, 1):
        raise DomainError("q >= 1 required")


def const_C(K: float, q: int, cfg: ConstantConfig) -> float:
    """(log q + log K + c1) / q."""
    _check_Kq(K, q)
    return (math.log(q) + math.log(K) + cfg.c1) / q


def _cprime_objective(eps: float, K: float, q: int, cfg: ConstantConfig) -> float:
    return -math.log1p(-eps) + const_C(9.0 * K / eps**3, q, cfg)


def const_Cprime(K: float, q: int, cfg: ConstantConfig) -> float:
    """inf over eps in (0,1) of -log(1-eps) + C(9K/eps^3, q).

    The objective is strictly convex with infinite boundary limits and a
    unique interior minimum at eps = 1/(1 + q/3); this is the closed form.
    """
    _check_Kq(K, q)
    eps = 1.0 / (1.0 + q / 3.0)
    return _cprime_objective(eps, K, q, cfg)


def const_Cdoubleprime(K: float, q: int, cfg: ConstantConfig) -> float:
    """log(Kq) / (2 pi q) + c3 / q."""
    _check_Kq(K, q)
    return math.log(K * q) / (2 * math.pi * q) + cfg.c3 / q
