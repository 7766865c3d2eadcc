"""Parameter-space experiments: radius scans, quantitative probes, and the
inductive smooth-boundary construction driver.

Scan grids hold exact values only (rationals or quadratic irrationals); the
float column of every row is derived from the exact text.  Rows are pure
functions of (family, alpha, params), so forked workers can compute them in
any arrangement and the merged output stays bit-identical.

The construction driver substitutes numerical radius estimates for the exact
conformal radius, so each stage emits machine-checkable certificates (interval
nesting and lengths in exact rational arithmetic, majorants of the derivative
gaps against their 2^-(n+j) ladder) instead of asserting the limit theorem.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import linearize
from .bounds import ConstantConfig, DEFAULT_CONFIG, _check_Kq, const_C, const_Cprime
from .cf import (
    LONG_FORM,
    CFExpansion,
    cf_of_exact,
    cf_of_rational,
    format_exact,
    special_sequence_main,
)
from .errors import (
    DomainError,
    FamilyUnsuitable,
    SiegelError,
    StageFailed,
    TargetAboveRadius,
    is_count,
)
from .germs import GermFamily
from .linearize import (
    EscapeParams,
    LinearizationSeries,
    RadiusEstimate,
    escape_radii,
    escape_radius,
    hadamard_radius,
    linearizations,
)
from .series import circle_majorants
from .surd import ExactReal, bracket, exact_cmp, floor_exact, to_float

__all__ = [
    "ScanRow",
    "ScanParams",
    "ESTIMATORS",
    "ConstructionState",
    "scan_r",
    "estimate_radii",
    "condition_bdd_search",
    "main_lemma_probe",
    "degenerate_probe",
    "smooth_disk_driver",
    "check_construction_invariants",
]


@dataclass(frozen=True)
class ScanRow:
    alpha_text: str
    alpha_float: float
    r_lower: float
    r_upper: float
    method: str
    max_iter: int                   # orbit budget (escape), lin_order (hadamard), 0 (error)


ESTIMATORS = ("escape", "hadamard")


@dataclass(frozen=True)
class ScanParams:
    order: int = 64                 # germ truncation
    lin_order: int = 128            # linearization truncation
    window: int = 64                # hadamard window
    escape: EscapeParams = EscapeParams()
    estimators: Tuple[str, ...] = ("escape",)

    def __post_init__(self):
        if not (is_count(self.order, 1) and is_count(self.lin_order, 1)
                and is_count(self.window, 16)):
            raise DomainError("need order >= 1, lin_order >= 1 and window >= 16")
        # an unknown or a repeated name leaves the known set smaller
        if len(set(self.estimators) & set(ESTIMATORS)) < len(self.estimators):
            raise DomainError(f"estimators must be distinct names from {', '.join(ESTIMATORS)}")
        if "hadamard" in self.estimators and self.window > self.lin_order:
            raise DomainError("the hadamard window needs window <= lin_order")


DEFAULT_SCAN = ScanParams()
TAIL_WINDOW = 4   # trailing members whose least radius main_lemma_probe reports
SEQ_INDICES = (0, 1, 2, 3)   # special-sequence members condition_bdd_search emits
# the construction driver's budgets: long series, a finer bisection
DRIVER_SCAN = ScanParams(order=32, lin_order=256,
                         escape=EscapeParams(max_iter=10_000, circle_samples=32,
                                             bisect_tol=5e-4))


def estimate_radii(fam: GermFamily, alphas: Sequence[ExactReal],
                   p: ScanParams) -> List[RadiusEstimate]:
    """Escape estimates through the linearization charts, one per parameter
    in input order, bisected in one :func:`escape_radii` call.  A chart is
    the full series or the partial one up to the first pole/overflow
    (``phi.order < p.lin_order``; the residual test then rules at that
    parameter).  Every germ is built before the one :func:`linearizations`
    pass over them, so the first germ error raises before any
    linearization."""
    germs = [fam.at(alpha, p.order) for alpha in alphas]
    return escape_radii(germs, linearizations(germs, p.lin_order), p.escape)


def _scan_chunk(fam: GermFamily, alphas: Sequence[ExactReal], p: ScanParams) -> List[ScanRow]:
    """Rows of a chunk of parameters, by input index then estimator.

    Every parameter's germ is built first (an error becomes that
    parameter's error rows); the germs are then linearized in one
    :func:`linearizations` pass and, for the escape estimator, bisected in one
    :func:`escape_radii` call.
    """
    germs: list = []
    for alpha in alphas:
        try:
            germs.append(fam.at(alpha, p.order))
        except SiegelError as exc:
            germs.append(exc)
    ready = [k for k, g in enumerate(germs) if not isinstance(g, SiegelError)]
    phis = dict(zip(ready, linearizations([germs[k] for k in ready], p.lin_order)))
    escape = {}
    if "escape" in p.estimators:
        escape = dict(zip(ready, escape_radii([germs[k] for k in ready],
                                              [phis[k] for k in ready], p.escape)))
    out: List[ScanRow] = []
    for k, (alpha, germ) in enumerate(zip(alphas, germs)):
        text = format_exact(alpha)
        afloat = to_float(alpha)
        for method in p.estimators:
            try:
                if isinstance(germ, SiegelError):
                    raise germ
                if method == "escape":
                    est = escape[k]
                    iters = p.escape.max_iter
                else:
                    phi = phis[k]
                    if phi.stop is not None:
                        raise phi.stop
                    est = hadamard_radius(phi, p.window)
                    iters = p.lin_order
                lower, upper, tag = est.lower, est.upper, method
            except SiegelError as exc:
                lower, upper, tag, iters = 0.0, math.inf, f"{method}:error:{type(exc).__name__}", 0
            out.append(ScanRow(alpha_text=text, alpha_float=afloat, r_lower=lower,
                               r_upper=upper, method=tag, max_iter=iters))
    return out


def _chunk_in_child(write_fd: int, other_fds: Sequence[int], fam: GermFamily,
                    alphas: Sequence[ExactReal], p: ScanParams) -> None:
    """Body of a forked scan child: close the inherited pipe ends
    ``other_fds``, send the chunk's rows or the exception it raised pickled
    through ``write_fd``, then exit without running the parent's cleanup.
    A result that cannot be sent leaves the pipe empty and the exit status 1."""
    status = 1
    try:
        for fd in other_fds:
            os.close(fd)
        try:
            result = _scan_chunk(fam, alphas, p)
        except BaseException as exc:  # also KeyboardInterrupt: the parent reports it
            result = exc
        with open(write_fd, "wb") as fh:
            fh.write(pickle.dumps(result))
        status = 0
    finally:
        os._exit(status)


def _forked_chunks(fam: GermFamily, chunks: Sequence[Sequence[ExactReal]],
                   p: ScanParams) -> List[List[ScanRow]]:
    """``[_scan_chunk(fam, c, p) for c in chunks]``, the first chunk computed
    in the calling process and each other one in a child made with
    ``os.fork``.

    A child inherits ``fam``, its chunk and ``p``, so nothing is pickled on
    the way out; it keeps only its own pipe's write end and sends back its
    rows.  Errors raise in chunk order, a child that ends without a result
    raises :class:`RuntimeError` naming its exit status, and on every way
    out a child still running is killed and every child is reaped.
    """
    reads: List[int] = []   # pipe read ends, in chunk order
    live: List[int] = []    # child pids, in chunk order, not yet reaped
    try:
        for chunk in chunks[1:]:
            r, w = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _chunk_in_child(w, reads, fam, chunk, p)  # never returns
            finally:
                os.close(w)
            live.append(pid)
        out = [_scan_chunk(fam, chunks[0], p)]
        for k, (pid, r) in enumerate(zip(list(live), reads), 1):
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            _, status = os.waitpid(pid, 0)
            live.remove(pid)
            code = os.waitstatus_to_exitcode(status)
            if code != 0 or not data:
                raise RuntimeError(f"scan worker {k} ended with exit status {code} "
                                   "and sent no rows")
            rows = pickle.loads(data)
            if isinstance(rows, BaseException):
                raise rows
            out.append(rows)
        return out
    finally:
        if live:  # an error or an interrupt left children running
            import signal  # about 1.5 ms to import, so only this path pays for it
            for pid in live:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for r in reads:
            os.close(r)


def scan_r(fam: GermFamily, alphas: Sequence[ExactReal],
           p: ScanParams, workers: int) -> List[ScanRow]:
    """One row per (alpha, estimator), ordered by input index then estimator.

    Chunk w is ``alphas[w::workers]`` (interleaved, so neighbouring
    parameters of similar cost spread over the workers).  The calling
    process computes chunk 0 itself; ``workers - 1`` children forked from it
    compute the others and send back only their rows (:func:`_forked_chunks`),
    which merge back in input order.  Row values do not depend on the worker
    count, so where ``os.fork`` does not exist every chunk runs in the
    calling process, as at one worker.
    """
    if not is_count(workers, 1):
        raise DomainError("workers >= 1 required")
    alphas = list(alphas)
    workers = min(workers, len(alphas))
    if workers <= 1 or not hasattr(os, "fork"):
        return _scan_chunk(fam, alphas, p)
    chunks = _forked_chunks(fam, [alphas[w::workers] for w in range(workers)], p)
    m = len(p.estimators)
    out: List[ScanRow] = []
    for i in range(len(alphas)):
        j = i // workers
        out.extend(chunks[i % workers][j * m:(j + 1) * m])
    return out


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


def _nearest_fraction_below(alpha: ExactReal, qmax: int) -> Fraction:
    """Largest p/q < alpha with q <= qmax, exactly: p = ceil(q alpha) - 1."""
    return max(Fraction(-floor_exact(-q * alpha) - 1, q) for q in range(1, qmax + 1))


def _check_rho_frac(rho_frac: float) -> None:
    if not 0.0 < rho_frac < 1.0:  # False on NaN
        raise DomainError("rho_frac in (0, 1) required")


def _lipschitz_K(fam: GermFamily, K_est: Optional[float]) -> float:
    """``K_est``, or when it is None the family's Lipschitz constant, at least 1;
    the probes call it after their input checks, before any linearization."""
    return max(1.0, fam.lipschitz_bound()) if K_est is None else K_est


def _expansion_below(c: Fraction) -> CFExpansion:
    """The expansion of the rational c whose special sequence sits below c:
    [a0; ..., a_k, x] - [a0; ..., a_k] has the sign (-1)^k for x > 0, so it
    is the one of the two with an odd number of partial quotients."""
    cf = cf_of_rational(c)
    return cf if len(cf.partials) % 2 else cf_of_rational(c, LONG_FORM)


def _target(rho_frac: float, r_est: RadiusEstimate) -> float:
    """The target radius rho = rho_frac * r_est.lower, strictly below the
    estimate; ``rho_frac`` has passed :func:`_check_rho_frac`."""
    if not r_est.lower > 0.0:
        raise TargetAboveRadius(f"r_est.lower = {r_est.lower} leaves no target below it")
    return rho_frac * r_est.lower


def _cut_grid(b: Fraction, alpha: ExactReal, Q: int) -> List[Fraction]:
    """Every p/q strictly inside (b, alpha) with q <= Q, ascending (the Farey
    fractions of order Q there): p runs from floor(q b) + 1 to ceil(q alpha) - 1."""
    return sorted({Fraction(p, q) for q in range(1, Q + 1)
                   for p in range(floor_exact(q * b) + 1, -floor_exact(-q * alpha))})


def condition_bdd_search(fam: GermFamily, alpha: ExactReal, rho_frac: float,
                         qmax: int, K_est: Optional[float], cfg: ConstantConfig) -> dict:
    """Left cut point c = the least grid point x in (b, alpha) with
    r_est(x) >= rho, the bounded-type sequence it emits, and the quantitative
    band at its denominator.

    The target is rho = rho_frac * r_est(alpha).lower (:func:`_target`).
    b is the nearest fraction below alpha with denominator <= qmax (the
    strongest non-linearizability signal at desk scale).  The grid is every
    p/q strictly inside (b, alpha) with q <= Q = 8 qmax (:func:`_cut_grid`),
    walked in ascending order, one point at a time, up to the first point
    that reaches rho; when none does, the verdict is ``"NoRationalCut"``.
    So the cut is a rational of denominator q_c <= Q, and the band
    [rho e^{-C'(K, q_c)}, rho] is a trend report at that denominator, not a
    certificate.  The emitted members :data:`SEQ_INDICES` are exact and
    bounded type.  Radii are estimated at :data:`DEFAULT_SCAN`; ``K_est=None``
    is :func:`_lipschitz_K`.
    """
    if not is_count(qmax, 1):
        raise DomainError("qmax >= 1 required")
    _check_rho_frac(rho_frac)
    K_est = _lipschitz_K(fam, K_est)
    _check_Kq(K_est, qmax)
    p = DEFAULT_SCAN
    b = _nearest_fraction_below(alpha, qmax)
    r_alpha, r_b = estimate_radii(fam, [alpha, b], p)
    rho = _target(rho_frac, r_alpha)
    no_cut = {"b": str(b), "r_b_lower": r_b.lower, "rho": rho,
              "r_alpha_lower": r_alpha.lower, "cut": None, "sequence": []}
    if r_b.lower >= rho:
        return {"verdict": "FamilyLooksDegenerate", **no_cut}
    left_neighbor_r = r_b.lower
    for cut in _cut_grid(b, alpha, 8 * qmax):  # stops at the first point that passes
        cut_r = estimate_radii(fam, [cut], p)[0]
        if cut_r.lower >= rho:
            break
        left_neighbor_r = cut_r.lower
    else:
        return {"verdict": "NoRationalCut", **no_cut}
    vals = [special_sequence_main(_expansion_below(cut), n) for n in SEQ_INDICES]
    seq = []
    for n, val, est in zip(SEQ_INDICES, vals, estimate_radii(fam, vals, p)):
        e = cf_of_exact(val)
        bt_bound = max(list(e.partials) + list(e.period))
        seq.append({"n": n, "alpha_text": format_exact(val),
                    "alpha_float": to_float(val),
                    "r_lower": est.lower, "r_upper": est.upper, "bt_bound": bt_bound})
    cprime = const_Cprime(K_est, cut.denominator, cfg)
    return {
        "verdict": "ok",
        "rho": rho,
        "b": str(b),
        "r_b_lower": r_b.lower,
        "cut": format_exact(cut),
        "cut_float": to_float(cut),
        "cut_r_lower": cut_r.lower,
        "left_neighbor_r_lower": left_neighbor_r,
        "cut_denominator": cut.denominator,
        "Cprime": cprime,
        # ascending, since C' > 0 (c1 > 0 and K >= 1)
        "band_endpoints": [rho * math.exp(-cprime), rho],
        "sequence": seq,
    }


def main_lemma_probe(fam: GermFamily, pq: Fraction, variant: str, N: int,
                     K_est: Optional[float], p: ScanParams = DEFAULT_SCAN,
                     cfg: ConstantConfig = DEFAULT_CONFIG) -> dict:
    """Radius estimates along the special sequence at a rational parameter.

    Reports the minimum over the last :data:`TAIL_WINDOW` members against
    exp(-C(K, q)) and exp(-C'(K, q)) for the configured constants; a trend
    report, not a certified bound; ``K_est=None`` is :func:`_lipschitz_K`.
    """
    if not is_count(N, 1):
        raise DomainError("need N >= 1 members")
    pq = Fraction(pq)
    q = pq.denominator
    K_est = _lipschitz_K(fam, K_est)
    _check_Kq(K_est, q)
    cf = cf_of_rational(pq, variant)
    members = [special_sequence_main(cf, n) for n in range(1, N + 1)]
    values = [{"n": n, "alpha_float": to_float(a_n), "alpha_text": format_exact(a_n),
               "r_lower": est.lower, "r_upper": est.upper}
              for n, (a_n, est) in enumerate(zip(members, estimate_radii(fam, members, p)), 1)]
    tail = values[-TAIL_WINDOW:]
    tail_min = min(v["r_lower"] for v in tail)
    return {
        "pq": str(pq), "q": q, "variant": variant,
        "values": values, "tail_min": tail_min,
        "bound_C": math.exp(-const_C(K_est, q, cfg)),
        "bound_Cprime": math.exp(-const_Cprime(K_est, q, cfg)),
        "weak_h_bound": math.log(10.0 * K_est * math.sqrt(2)) / (2 * math.pi),
        "K_est": K_est,
    }


def degenerate_probe(fam: GermFamily, t_samples: Sequence[ExactReal]) -> dict:
    """Relative spread of r_est (at :data:`DEFAULT_SCAN`) over irrational
    parameters; a spread below 0.05 flags degenerate-type behaviour (the
    linearization domain ignores t).  At least two distinct t are needed."""
    if len(set(t_samples)) < 2:
        raise DomainError("degenerate probe needs at least two distinct t")
    rows = [{"t": format_exact(t), "t_float": to_float(t),
             "r_lower": est.lower, "r_upper": est.upper}
            for t, est in zip(t_samples, estimate_radii(fam, t_samples, DEFAULT_SCAN))]
    lows = [r["r_lower"] for r in rows]
    mean = sum(lows) / len(lows)
    spread = (max(lows) - min(lows)) / mean if mean > 0 else math.inf
    return {"rows": rows, "spread": spread,
            "degenerate_flag": bool(spread < 0.05), "spread_tol": 0.05}


# ---------------------------------------------------------------------------
# smooth-boundary construction driver
# ---------------------------------------------------------------------------


@dataclass
class ConstructionState:
    stage: int
    theta: ExactReal
    rho: float                       # measured r_est(theta_n), stands in for rho_n
    rho_sched: float                 # scheduled target rho_n (strictly decreasing)
    rho_target: float                # the global target rho
    interval: Tuple[Fraction, Fraction]
    deriv_gaps: List[float]          # majorant of |phi_n^(j) - phi_{n-1}^(j)| on |z| <= rho
    thresholds: List[float]
    k_chosen: int
    diagnostics: str = ""


def _interval_fault(lo: Fraction, hi: Fraction, theta: ExactReal, stage: int,
                    parent: Optional[Tuple[Fraction, Fraction]]) -> Optional[str]:
    """The first condition of the stage's interval certificate (lo, hi) that
    fails, or None: length <= 2^-stage, theta strictly inside, strictly inside
    the parent, closure off (1/stage) Z."""
    if not hi - lo <= Fraction(1, 2 ** stage):
        return "interval too long"
    if not (exact_cmp(lo, theta) < 0 and exact_cmp(theta, hi) < 0):
        return "theta outside interval"
    if parent is not None and not (lo > parent[0] and hi < parent[1]):
        return "not nested"
    m = floor_exact(lo * stage)  # m/stage <= lo, and (m + 1)/stage > hi once m is hi's too
    if m != floor_exact(hi * stage) or Fraction(m, stage) == lo:
        return "closure meets (1/n)Z"
    return None


_ENDPOINT_BITS = 80   # dyadic resolution of interval-certificate endpoints


def _interval_around(theta: ExactReal, stage: int,
                     parent: Optional[Tuple[Fraction, Fraction]]) -> Tuple[Fraction, Fraction]:
    """Open rational interval around theta that passes :func:`_interval_fault`;
    width shrinks until it does."""
    w = Fraction(1, 2 ** (stage + 1))
    for _ in range(200):
        # theta is a surd, so theta -+ w are too, and their brackets are strict
        lo, hi = bracket(theta - w, _ENDPOINT_BITS)[0], bracket(theta + w, _ENDPOINT_BITS)[1]
        if _interval_fault(lo, hi, theta, stage, parent) is None:
            return lo, hi
        w /= 2
    raise StageFailed("could not fit an interval certificate")


def smooth_disk_driver(fam: GermFamily, theta0: ExactReal, rho_frac: float,
                       stages: int) -> List[ConstructionState]:
    """Inductive stand-in for the smooth-boundary construction.

    The global target is rho = rho_frac * r_est(theta0).lower (:func:`_target`),
    from the one estimate of theta0 at :data:`DRIVER_SCAN`.  Stage n schedules
    a strictly decreasing target rho_n, picks theta_n from the members
    k = 2..12 of theta_{n-1}'s special sequence subject to the 2^-(n+j)
    derivative ladder on the closed target disk and to parent-interval
    membership, then pins theta_n inside an exact interval certificate.  The
    measured radius of theta_n stands in for rho_n (recorded,
    tolerance-stamped: the true dips along the special sequences shrink below
    any fixed estimator resolution, so nearness to the schedule is reported
    rather than gated).

    Raises :class:`DomainError` for ``stages < 1`` or ``rho_frac`` outside
    (0, 1) before any work, what :func:`_target` raises,
    :class:`FamilyUnsuitable` when the start radius sits within 1e-3 of the
    estimator's domain cap (rho tracking meaningless, the rotation-like
    degenerate case) and :class:`StageFailed` when no candidate passes.
    """
    if not is_count(stages, 1):
        raise DomainError("stages >= 1 required")
    _check_rho_frac(rho_frac)
    p = DRIVER_SCAN
    germ0 = fam.at(theta0, p.order)
    phi0, = linearizations([germ0], p.lin_order)
    est0 = escape_radius(germ0, phi0, p.escape)
    rho_target = _target(rho_frac, est0)
    if est0.lower >= linearize.ESCAPE_CAP - 1e-3:
        raise FamilyUnsuitable(
            f"r_est(theta0) = {est0.lower} sits at the domain cap; "
            "radius tracking needs a non-degenerate family")
    if phi0.stop is not None:
        raise StageFailed(f"no full linearization series at theta0: {phi0.stop!r}")
    states: List[ConstructionState] = []
    theta_prev, phi_prev = theta0, phi0
    interval_prev: Optional[Tuple[Fraction, Fraction]] = None
    for stage in range(1, stages + 1):
        rho_sched = rho_target + (est0.lower - rho_target) * 2.0 ** -stage
        cf_prev = cf_of_exact(theta_prev)
        thresholds = [2.0 ** -(stage + j) for j in range(stage + 1)]
        chosen = None
        diag_parts = []
        for k in range(2, 13):
            cand = special_sequence_main(cf_prev, k)
            if interval_prev is not None and not (
                    exact_cmp(interval_prev[0], cand) < 0
                    and exact_cmp(cand, interval_prev[1]) < 0):
                diag_parts.append(f"k={k}: outside parent interval")
                continue
            germ_c = fam.at(cand, p.order)
            phi_c, = linearizations([germ_c], p.lin_order)
            if phi_c.stop is not None:
                diag_parts.append(f"k={k}: no full series: {phi_c.stop!r}")
                continue
            gaps = _deriv_gaps(phi_c, phi_prev, rho_target, stage)
            if not all(g <= t for g, t in zip(gaps, thresholds)):
                diag_parts.append(f"k={k}: ladder failed {gaps}")
                continue
            est = escape_radius(germ_c, phi_c, p.escape)
            if est.lower <= rho_target:
                diag_parts.append(f"k={k}: r {est.lower:.4f} at or below target")
                continue
            chosen = (k, cand, phi_c, est, gaps)
            break
        if chosen is None:
            raise StageFailed(f"stage {stage}: {'; '.join(diag_parts)}")
        k, theta_n, phi_n, est_n, gaps = chosen
        interval_n = _interval_around(theta_n, stage, interval_prev)
        states.append(ConstructionState(
            stage=stage, theta=theta_n, rho=est_n.lower, rho_sched=rho_sched,
            rho_target=rho_target, interval=interval_n, deriv_gaps=gaps,
            thresholds=thresholds, k_chosen=k,
            diagnostics=(f"k={k}; |r_est - rho_sched| = "
                         f"{abs(est_n.lower - rho_sched):.4f}; "
                         f"tried: {'; '.join(diag_parts) or 'none'}")))
        theta_prev, phi_prev, interval_prev = theta_n, phi_n, interval_n
    return states


def _deriv_gaps(phi_new: LinearizationSeries, phi_old: LinearizationSeries,
                rho: float, stage: int) -> List[float]:
    """Majorants sum_n |[z^n] (phi_new - phi_old)^(j)| rho^n, j = 0..stage, of
    the j-th derivative differences of the truncated series on |z| <= rho."""
    n = min(phi_new.order, phi_old.order)
    diff = phi_new.a[: n + 1] - phi_old.a[: n + 1]
    return circle_majorants(diff, rho, stage)


def check_construction_invariants(states: Sequence[ConstructionState],
                                  rho_target: float) -> None:
    """Machine-check every stored certificate from the exact data; raises on
    violation.  Interval arithmetic is exact; gaps compare as floats."""
    prev_interval = None
    prev_sched = math.inf
    for st in states:
        fault = _interval_fault(*st.interval, st.theta, st.stage, prev_interval)
        if fault is not None:
            raise AssertionError(f"stage {st.stage}: {fault}")
        for j, (g, t) in enumerate(zip(st.deriv_gaps, st.thresholds)):
            if not g <= t:
                raise AssertionError(f"stage {st.stage}: gap j={j} {g} > {t}")
        if not st.rho > rho_target:
            raise AssertionError(f"stage {st.stage}: measured rho at or below target")
        if not rho_target < st.rho_sched < prev_sched:
            raise AssertionError(f"stage {st.stage}: schedule not strictly decreasing")
        prev_interval, prev_sched = st.interval, st.rho_sched
