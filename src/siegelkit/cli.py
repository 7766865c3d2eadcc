"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 numeric failure (the module error tag
is printed on stderr).  Every command echoes the active constant configuration
into its output header (a ``config`` key in every JSON report, a comment line
in the scan CSV) and prints parameters both as exact text and derived float.
``--manifest`` dumps a run manifest that hashes ``--out`` and every side file
the command wrote (``--trace``, ``--plot-data``).

A handler returns a dict (a JSON report, laid out by ``io.report_json``) or
finished text, and writes side files only through ``_write_side_file``;
``_emit`` alone writes the output and the manifest.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from io import StringIO
from typing import List, Optional

import numpy as np

from . import io as skio
from .bounds import (
    ConstantConfig,
    brjuno_sum,
    const_C,
    const_Cdoubleprime,
    const_Cprime,
    format_config,
    load_config,
)
from .cf import (
    LONG_FORM,
    SHORT_FORM,
    cf_of_exact,
    convergents,
    farey_fractions,
    format_cf,
    format_exact,
    parse_cf,
    parse_exact,
    special_sequence_main,
    theta_sequence,
)
from .errors import SiegelError
from .germs import (
    FlowFamily,
    GermFamily,
    QuadraticFamily,
    RotationFamily,
    lift_of_germ,
    lipschitz_estimate,
)
from .linearize import (
    EscapeParams,
    compose_check,
    escape_radius,
    hadamard_radius,
    linearization_coeffs,
    pole_cancellation_probe,
)
from .renorm import (
    HParams,
    build_HJ,
    find_y0,
    h_of_lift,
    renormalized_rotation_number,
    return_map,
)
from .scan import (
    ESTIMATORS,
    ScanParams,
    _check_cond_bdd,
    condition_bdd_search,
    degenerate_probe,
    main_lemma_probe,
    scan_r,
    smooth_disk_driver,
)
from .surd import to_float


class UsageError(Exception):
    pass


def _parse(parse, text: Optional[str]):
    """``parse(text)`` for text from the command line: missing or malformed
    text is a usage error, not a traceback."""
    if text is None:
        raise UsageError("missing value: this command needs --alpha (or --cf)")
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot read {text!r}: {exc}") from None


@contextmanager
def _user_file(path: str):
    """File I/O on a path from the command line: an ``OSError`` (a missing
    file or directory, no permission) is a usage error, not a traceback."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot use {path!r}: {exc.strerror or exc}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(message)


def make_family(args) -> GermFamily:
    kind = args.family
    # without --restriction each family keeps its own default radius
    radius = {} if args.restriction is None else {"restriction_radius": args.restriction}
    if kind == "rotation":
        return RotationFamily()
    if kind == "quadratic":
        return QuadraticFamily(**radius)
    if kind == "flow":
        chi = [_parse(complex, t) for t in args.chi.split(",")] if args.chi else [1.0]
        return FlowFamily(chi, **radius)
    raise UsageError(f"unknown family {kind!r}; valid: rotation, quadratic, flow")


def parse_grid(spec: str):
    """"farey:Q=64" or a comma list of exact values."""
    if spec.startswith("farey:"):
        body = spec.split(":", 1)[1]
        if not body.startswith("Q="):
            raise UsageError("farey grid spec is farey:Q=<int>")
        return [Fraction(f) for f in farey_fractions(_parse(int, body[2:]))]
    return [_parse(parse_exact, t) for t in spec.split(",")]


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", default=None, help="key-value constants file")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--manifest", default=None, help="dump a run manifest JSON")
    p.add_argument("--seed", type=int, default=None)


def _add_family(p: argparse.ArgumentParser):
    p.add_argument("--family", default="quadratic")
    p.add_argument("--restriction", type=float, default=None)
    p.add_argument("--chi", default=None, help="flow field c2,c3,... (complex literals)")


def build_parser() -> _Parser:
    top = _Parser(prog="siegelkit", description=__doc__)
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("cf", help="continued-fraction operations")
    p.add_argument("op", choices=("expand", "eval", "convergents", "special-seq", "theta-seq"))
    p.add_argument("--alpha", help="exact value: p/q, surd, or CF text")
    p.add_argument("--cf", help="CF text [a0;a1,...,(period)]")
    p.add_argument("--variant", choices=(SHORT_FORM, LONG_FORM), default=SHORT_FORM)
    p.add_argument("--n", type=int, default=5)
    _add_common(p)

    p = sub.add_parser("brjuno", help="Brjuno-type sum")
    p.add_argument("--alpha", required=True)
    p.add_argument("--depth", type=int, default=60)
    p.add_argument("--tol", type=float, default=1e-12)
    _add_common(p)

    p = sub.add_parser("const", help="explicit constants")
    p.add_argument("which", choices=("C", "Cprime", "Cdoubleprime"))
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--q", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("lin", help="linearization series")
    p.add_argument("op", choices=("coeffs", "compose-check", "pole-probe"))
    p.add_argument("--alpha")
    p.add_argument("--N", type=int, default=64)
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--n", type=int, default=2)
    _add_family(p)
    _add_common(p)

    esc = EscapeParams()
    p = sub.add_parser("radius", help="conformal-radius estimators")
    p.add_argument("op", choices=("hadamard", "escape"))
    p.add_argument("--alpha", required=True)
    p.add_argument("--N", type=int, default=256)
    p.add_argument("--window", type=int, default=128)
    p.add_argument("--max-iter", type=int, default=esc.max_iter)
    p.add_argument("--samples", type=int, default=esc.circle_samples)
    p.add_argument("--bisect-tol", type=float, default=esc.bisect_tol)
    p.add_argument("--residual-tol", type=float, default=esc.residual_tol)
    _add_family(p)
    _add_common(p)

    p = sub.add_parser("lift", help="half-plane lifts")
    p.add_argument("op", choices=("h", "build"))
    p.add_argument("--alpha", required=True)
    p.add_argument("--N", type=int, default=128)
    p.add_argument("--max-iter", type=int, default=HParams().max_iter)
    _add_family(p)
    _add_common(p)

    p = sub.add_parser("renorm", help="sector renormalization")
    p.add_argument("op", choices=("setup", "return", "rotnum"))
    p.add_argument("--alpha", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--N", type=int, default=128)
    p.add_argument("--height-mult", type=float, default=20.0)
    p.add_argument("--returns", type=int, default=1000)
    p.add_argument("--trace", default=None, help="orbit trace CSV path")
    _add_family(p)
    _add_common(p)

    p = sub.add_parser("scan", help="parameter-space radius scan")
    p.add_argument("--grid", required=True, help="farey:Q=64 or exact list")
    p.add_argument("--estimators", default="escape")
    p.add_argument("--order", type=int, default=32)
    p.add_argument("--lin-order", type=int, default=48)
    p.add_argument("--window", type=int, default=24)
    p.add_argument("--max-iter", type=int, default=300)
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("--bisect-tol", type=float, default=4e-3)
    p.add_argument("--plot-data", default=None, help="write (alpha_float, r_lower) pairs")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--workers", type=int, default=1)
    _add_family(p)
    _add_common(p)

    p = sub.add_parser("construct", help="smooth-boundary construction driver")
    p.add_argument("--theta0", required=True, help="exact Brjuno start, e.g. [0;(1)]")
    p.add_argument("--rho-frac", type=float, default=0.5)
    p.add_argument("--stages", type=int, default=3)
    _add_family(p)
    _add_common(p)

    p = sub.add_parser("probe", help="quantitative probes")
    p.add_argument("op", choices=("main-lemma", "degenerate", "cond-bdd"))
    p.add_argument("--pq", default="1/2")
    p.add_argument("--variant", choices=(SHORT_FORM, LONG_FORM), default=SHORT_FORM)
    p.add_argument("--N", type=int, default=8)
    p.add_argument("--K", type=float, default=None)
    p.add_argument("--t", default=None, help="comma list of exact parameters")
    p.add_argument("--alpha", default=None)
    p.add_argument("--rho-frac", type=float, default=0.5)
    p.add_argument("--qmax", type=int, default=8)
    _add_family(p)
    _add_common(p)

    return top


def _emit(args, output, cfg: ConstantConfig):
    """Write a handler's output (a dict is a JSON report) to --out or stdout,
    then the manifest, which hashes --out and every side file."""
    text = output if isinstance(output, str) else skio.report_json(output, cfg)
    text = text if text.endswith("\n") else text + "\n"
    outputs = {}
    if args.out:
        with _user_file(args.out), open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        outputs[args.out] = skio.file_sha256(args.out)
    else:
        sys.stdout.write(text)
    for path in args.side_files:
        outputs[path] = skio.file_sha256(path)
    if args.manifest:
        man = skio.RunManifest.build(args.argv, cfg, args.seed or 0, outputs)
        with _user_file(args.manifest), open(args.manifest, "w", encoding="utf-8") as fh:
            fh.write(man.to_json() + "\n")


def _write_side_file(args, path: str, lines) -> None:
    """Write a file besides --out (a trace, plot data) and list it for the
    manifest."""
    with _user_file(path), open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    args.side_files.append(path)


def _exact_and_float(x) -> dict:
    return {"exact": format_exact(x), "float": to_float(x)}


def _alpha_cf(args):
    """Expansion from --alpha (value text) honoring --variant for rationals."""
    return cf_of_exact(_parse(parse_exact, args.alpha), args.variant)


def cmd_cf(args, cfg):
    if args.op == "expand":
        val = _parse(parse_exact, args.alpha)
        cf = cf_of_exact(val, args.variant)
        return {"cf": format_cf(cf), **_exact_and_float(val)}
    if args.op == "eval":
        cf = _parse(parse_cf, args.cf)
        return {"cf": format_cf(cf), **_exact_and_float(cf.value())}
    if args.op == "convergents":
        cf = _parse(parse_cf, args.cf if args.cf else args.alpha)
        return {"convergents": [{"index": c.index, "p": str(c.p), "q": str(c.q)}
                                for c in convergents(cf, args.n)]}
    if args.op == "special-seq":
        cf = _alpha_cf(args)
        val = special_sequence_main(cf, args.n)
        if cf.is_finite:
            head = format_cf(cf)[1:-1]
            sep = "," if cf.partials else ";"
            construction = f"[{head}{sep}{args.n}+1+sqrt(2)]"
        else:
            construction = f"[...;1+a_{args.n + 1},1+sqrt(2)]"
        return {"n": args.n, "construction": construction, **_exact_and_float(val)}
    if args.op == "theta-seq":
        cf = _alpha_cf(args)
        return {"n": args.n, **_exact_and_float(theta_sequence(cf, args.n))}
    raise UsageError(f"unknown cf op {args.op}")


def cmd_brjuno(args, cfg):
    cf = cf_of_exact(_parse(parse_exact, args.alpha))
    bv = brjuno_sum(cf, args.depth, args.tol)
    return {"value": bv.value, "depth_used": bv.depth_used, "converged": bv.converged}


def cmd_const(args, cfg):
    fn = {"C": const_C, "Cprime": const_Cprime, "Cdoubleprime": const_Cdoubleprime}[args.which]
    return {"which": args.which, "K": args.K, "q": args.q,
            "value": fn(args.K, args.q, cfg)}


def _germ_for(args, order: int):
    return make_family(args).at(_parse(parse_exact, args.alpha), order)


def cmd_lin(args, cfg):
    fam = make_family(args)
    if args.op == "pole-probe":
        return pole_cancellation_probe(fam, args.p, args.q, args.n)
    alpha = _parse(parse_exact, args.alpha)
    germ = fam.at(alpha, max(args.N, 8))
    lin = linearization_coeffs(germ, args.N, allow_rational=True, on_failure="truncate")
    if args.op == "coeffs":
        return {"alpha": format_exact(alpha), "order": lin.order,
                "a": [[c.real, c.imag] for c in lin.a[1:]],
                "small_divisor_log": [None if math.isnan(v) else v
                                      for v in lin.small_divisor_log[1:]]}
    if args.op == "compose-check":
        res = compose_check(germ, lin)
        scale = max(1.0, float(np.max(np.abs(lin.a))))
        return {"residual": res, "scale": scale, "passes": bool(res <= 1e-10 * scale)}
    raise UsageError(f"unknown lin op {args.op}")


def cmd_radius(args, cfg):
    germ = _germ_for(args, max(64, min(args.N, 256)))
    lin = linearization_coeffs(germ, args.N, allow_rational=True, on_failure="truncate")
    if args.op == "hadamard":
        est = hadamard_radius(lin, args.window)
    else:
        est = escape_radius(germ, lin,
                            EscapeParams(max_iter=args.max_iter,
                                         circle_samples=args.samples,
                                         bisect_tol=args.bisect_tol,
                                         residual_tol=args.residual_tol))
    return {"alpha": format_exact(germ.alpha), "alpha_float": to_float(germ.alpha),
            "lower": est.lower, "upper": est.upper, "method": est.method,
            "params": est.params, "diagnostics": est.diagnostics}


def cmd_lift(args, cfg):
    L = lift_of_germ(_germ_for(args, args.N), order=args.N)
    if args.op == "build":
        return skio.lift_json(L, cfg)
    h = h_of_lift(L, HParams(max_iter=args.max_iter))
    return {"h_estimate": h, "r_floor": math.exp(-2 * math.pi * h)}


def cmd_renorm(args, cfg):
    L = lift_of_germ(_germ_for(args, args.N), order=args.N)
    setup = build_HJ(L, args.k)
    y0 = find_y0(setup)
    if args.op == "setup":
        return {"k": setup.k, "p_prev": setup.p_prev, "q_prev": setup.q_prev,
                "p_k": setup.p_k, "q_k": setup.q_k,
                "beta": setup.beta, "beta_prime": setup.beta_prime,
                "y0": y0, "y0_analytic": setup.y0_analytic,
                "expected_alpha_prime": setup.expected_alpha_prime()}
    height = y0 + args.height_mult * abs(setup.beta)
    if args.op == "return" or args.trace:
        sample, trace = return_map(setup, complex(0, height))
        if args.trace:
            _write_side_file(args, args.trace, ["step,re,im,in_U\n"] + [
                f"{i},{W.real!r},{W.imag!r},{int(setup.in_fundamental_domain(W))}\n"
                for i, W in enumerate(trace)])
    if args.op == "return":
        return {"hops": sample.hops, "Z": [sample.Z.real, sample.Z.imag],
                "RZ": [sample.RZ.real, sample.RZ.imag],
                "path_min_im": sample.path_min_im}
    rep = renormalized_rotation_number(setup, height, args.returns, cfg=cfg)
    return skio.renorm_report_json(rep, cfg)


def cmd_scan(args, cfg):
    fam = make_family(args)
    grid = parse_grid(args.grid)
    estimators = tuple(args.estimators.split(","))
    if not set(estimators) <= set(ESTIMATORS):
        raise UsageError(f"--estimators takes a comma list of {', '.join(ESTIMATORS)}")
    params = ScanParams(order=args.order, lin_order=args.lin_order,
                        window=args.window,
                        escape=EscapeParams(max_iter=args.max_iter,
                                            circle_samples=args.samples,
                                            bisect_tol=args.bisect_tol),
                        estimators=estimators)
    rows = scan_r(fam, grid, params, workers=args.workers)
    if args.plot_data:
        _write_side_file(args, args.plot_data, [f"{r.alpha_float!r} {r.r_lower!r}\n"
                                                for r in rows if r.method == "escape"])
    if args.format == "json":
        return skio.scan_rows_json(rows, cfg)
    digest = skio.invocation_digest(args.argv, cfg, args.seed or 0)
    buf = StringIO()
    skio.emit_scan_csv(rows, buf, comments={"manifest": digest,
                                            "config": format_config(cfg)})
    return buf.getvalue()


def cmd_construct(args, cfg):
    fam = make_family(args)
    states = smooth_disk_driver(fam, _parse(parse_exact, args.theta0), args.rho_frac,
                                args.stages)
    return skio.construction_states_json(states, cfg)


def cmd_probe(args, cfg):
    fam = make_family(args)
    if args.op == "cond-bdd":  # refuse bad input before the Lipschitz estimate
        alpha = _parse(parse_exact, args.alpha)
        _check_cond_bdd(args.rho_frac, args.qmax,
                        1.0 if args.K is None else args.K)  # an estimated K is >= 1
    if args.K is None and args.op != "degenerate":  # degenerate_probe takes no K
        args.K = max(1.0, lipschitz_estimate(fam, (0.05, 0.95), n_pairs=24,
                                             n_circle=32, seed=args.seed or 0))
    if args.op == "main-lemma":
        return main_lemma_probe(fam, _parse(Fraction, args.pq), args.variant, args.N,
                                args.K, cfg=cfg)
    if args.op == "degenerate":
        ts = [_parse(parse_exact, t) for t in (args.t or "[0;(1)],[0;(2)],[0;(3)]").split(",")]
        return degenerate_probe(fam, ts)
    return condition_bdd_search(fam, alpha, args.rho_frac, qmax=args.qmax,
                                K_est=args.K, cfg=cfg)


_HANDLERS = {
    "cf": cmd_cf, "brjuno": cmd_brjuno, "const": cmd_const, "lin": cmd_lin,
    "radius": cmd_radius, "lift": cmd_lift, "renorm": cmd_renorm,
    "scan": cmd_scan, "construct": cmd_construct, "probe": cmd_probe,
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.argv = list(argv)  # what digests and manifests name
        args.side_files = []     # paths besides --out, for the manifest
        with _user_file(args.config):
            cfg = load_config(args.config)
        _emit(args, _HANDLERS[args.cmd](args, cfg), cfg)
        return 0
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        return 1
    except SiegelError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
