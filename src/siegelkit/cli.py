"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 numeric failure (the module error tag
is printed on stderr).  Every command echoes the active constant configuration
into its output header (a ``config`` key in every JSON report, a comment line
in the scan CSV) and prints parameters both as exact text and derived float.
``--manifest`` dumps a run manifest that hashes ``--out`` and every side file
the command wrote (``--trace``).

A handler returns a dict (a JSON report, laid out by ``io.report_json``) or
finished text, and writes side files only through ``_write_side_file``;
``_emit`` alone writes the output and the manifest.
"""

from __future__ import annotations

import argparse
import atexit
import errno
import gc
import math
import os
import stat
import sys
from contextlib import contextmanager
from fractions import Fraction
from io import StringIO
from typing import TYPE_CHECKING, List, Optional

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
from .errors import RationalInput, SiegelError
from .surd import int_text, to_float

if TYPE_CHECKING:
    from .germs import GermFamily

# numpy and the numeric modules (series, germs, linearize, renorm, scan) are
# imported by the handlers that run them, so that the exact-arithmetic
# commands (cf, brjuno, const) and --help start without them.


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


def _check_output_path(path: str) -> None:
    """Refuse, before any work, an output path that names a directory or
    whose directory does not exist.  The file itself is written only after
    the work, so a command that fails leaves an existing file as it was."""
    with _user_file(path):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # no prefix matching: one spelling per option
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(message)


def make_family(args) -> GermFamily:
    from .germs import FlowFamily, QuadraticFamily, RotationFamily

    # --family name -> (preset, its --chi default or None where it has no
    # field, its --restriction default)
    presets = {"rotation": (RotationFamily, None, 1.0),
               "quadratic": (QuadraticFamily, None, 1.0),
               "flow": (FlowFamily, "1", 0.5)}
    if args.family not in presets:
        raise UsageError(f"unknown family {args.family!r}; valid: {', '.join(presets)}")
    preset, chi, radius = presets[args.family]
    if chi is None and args.chi is not None:
        raise UsageError(f"--chi sets a flow's field; --family {args.family} has none")
    if args.chi == "":
        raise UsageError("--chi is empty; the flow of the empty field is --family rotation")
    field = () if chi is None else (
        [_parse(complex, t) for t in _given(args.chi, chi).split(",")],)
    return preset(*field, _given(args.restriction, radius))


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


def _add_family(p: argparse.ArgumentParser):
    p.add_argument("--family", default="quadratic")
    p.add_argument("--restriction", type=float, default=None)
    p.add_argument("--chi", default=None, help="flow field c_2,c_3,... (complex literals)")


def build_parser() -> _Parser:
    top = _Parser(prog="siegelkit", description=__doc__)
    sub = top.add_subparsers(dest="cmd", required=True)
    top.commands = sub.choices  # subcommand name -> its parser

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

    # options left at None take the dataclass's own default in the handler
    p = sub.add_parser("radius", help="conformal-radius estimators")
    p.add_argument("op", choices=("hadamard", "escape"))
    p.add_argument("--alpha", required=True)
    p.add_argument("--N", type=int, default=256)
    p.add_argument("--window", type=int, default=128)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--bisect-tol", type=float, default=None)
    p.add_argument("--residual-tol", type=float, default=None)
    _add_family(p)
    _add_common(p)

    p = sub.add_parser("lift", help="half-plane lifts")
    p.add_argument("op", choices=("h", "build"))
    p.add_argument("--alpha", required=True)
    p.add_argument("--N", type=int, default=128)
    p.add_argument("--max-iter", type=int, default=None)
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
        with _user_file(args.manifest), open(args.manifest, "w", encoding="utf-8") as fh:
            fh.write(skio.manifest_json(args.argv, cfg, outputs) + "\n")


def _write_side_file(args, path: str, lines) -> None:
    """Write a file besides --out (a trace) and list it for the manifest."""
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
        cf = _parse(parse_cf, args.cf) if args.cf else _alpha_cf(args)
        return {"convergents": [{"index": c.index, "p": int_text(c.p), "q": int_text(c.q)}
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
    cf = _alpha_cf(args)  # theta-seq, the last op argparse admits
    return {"n": args.n, **_exact_and_float(theta_sequence(cf, args.n))}


def cmd_brjuno(args, cfg):
    cf = cf_of_exact(_parse(parse_exact, args.alpha))
    bv = brjuno_sum(cf, args.depth, args.tol)
    if bv.value == math.inf:
        raise RationalInput("the Brjuno sum of a rational diverges")
    return {"value": bv.value, "depth_used": bv.depth_used, "converged": bv.converged}


def cmd_const(args, cfg):
    fn = {"C": const_C, "Cprime": const_Cprime, "Cdoubleprime": const_Cdoubleprime}[args.which]
    return {"which": args.which, "K": args.K, "q": args.q,
            "value": fn(args.K, args.q, cfg)}


def _germ_for(args, order: int):
    return make_family(args).at(_parse(parse_exact, args.alpha), order)


def _given(value, default):
    """An option's value, or the dataclass default it was left at."""
    return default if value is None else value


def cmd_lin(args, cfg):
    import numpy as np

    from .linearize import compose_check, linearization_coeffs, pole_cancellation_probe

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
    res = compose_check(germ, lin)  # compose-check, the last op argparse admits
    scale = max(1.0, float(np.max(np.abs(lin.a))))
    return {"residual": res, "scale": scale, "passes": bool(res <= 1e-10 * scale)}


def cmd_radius(args, cfg):
    from .linearize import EscapeParams, escape_radius, hadamard_radius, linearization_coeffs

    germ = _germ_for(args, max(64, min(args.N, 256)))
    lin = linearization_coeffs(germ, args.N, allow_rational=True, on_failure="truncate")
    if args.op == "hadamard":
        est = hadamard_radius(lin, args.window)
    else:
        est = escape_radius(germ, lin,
                            EscapeParams(
                                max_iter=_given(args.max_iter, EscapeParams.max_iter),
                                circle_samples=_given(args.samples, EscapeParams.circle_samples),
                                bisect_tol=_given(args.bisect_tol, EscapeParams.bisect_tol),
                                residual_tol=_given(args.residual_tol,
                                                    EscapeParams.residual_tol)))
    return {"alpha": format_exact(germ.alpha), "alpha_float": to_float(germ.alpha),
            "lower": est.lower, "upper": est.upper, "method": est.method,
            "params": est.params, "diagnostics": est.diagnostics}


def cmd_lift(args, cfg):
    from .germs import lift_of_germ
    from .renorm import HParams, h_of_lift

    L = lift_of_germ(_germ_for(args, args.N), order=args.N)
    if args.op == "build":
        return skio.lift_json(L, cfg)
    h = h_of_lift(L, HParams(max_iter=_given(args.max_iter, HParams.max_iter)))
    return {"h_estimate": h, "r_floor": math.exp(-2 * math.pi * h)}


def cmd_renorm(args, cfg):
    if args.op == "setup" and args.trace:
        raise UsageError("--trace writes the orbit of renorm return or rotnum; "
                         "setup runs none")
    from .germs import lift_of_germ
    from .renorm import build_HJ, find_y0, renormalized_rotation_number, return_map

    L = lift_of_germ(_germ_for(args, args.N), order=args.N)
    setup = build_HJ(L, args.k)
    y0 = find_y0(setup)
    if args.op == "setup":
        return {"k": setup.k, "p_prev": setup.p_prev, "q_prev": setup.q_prev,
                "p_k": setup.p_k, "q_k": setup.q_k,
                "beta": setup.beta, "beta_prime": setup.beta_prime,
                "y0": y0,
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
    from .linearize import EscapeParams
    from .scan import ESTIMATORS, ScanParams, scan_r

    fam = make_family(args)
    grid = parse_grid(args.grid)
    estimators = tuple(args.estimators.split(","))
    if not set(estimators) <= set(ESTIMATORS) or len(set(estimators)) < len(estimators):
        raise UsageError(f"--estimators takes a comma list of distinct names from "
                         f"{', '.join(ESTIMATORS)}")
    params = ScanParams(order=args.order, lin_order=args.lin_order,
                        window=args.window,
                        escape=EscapeParams(max_iter=args.max_iter,
                                            circle_samples=args.samples,
                                            bisect_tol=args.bisect_tol),
                        estimators=estimators)
    rows = scan_r(fam, grid, params, workers=args.workers)
    if args.format == "json":
        return skio.scan_rows_json(rows, cfg)
    digest = skio.invocation_digest(args.argv, cfg)
    buf = StringIO()
    skio.emit_scan_csv(rows, buf, comments={"manifest": digest,
                                            "config": format_config(cfg)})
    return buf.getvalue()


def cmd_construct(args, cfg):
    from .scan import smooth_disk_driver

    fam = make_family(args)
    states = smooth_disk_driver(fam, _parse(parse_exact, args.theta0), args.rho_frac,
                                args.stages)
    return skio.construction_states_json(states, cfg)


def cmd_probe(args, cfg):
    from .scan import condition_bdd_search, degenerate_probe, main_lemma_probe

    fam = make_family(args)
    if args.op == "main-lemma":
        return main_lemma_probe(fam, _parse(Fraction, args.pq), args.variant, args.N,
                                args.K, cfg=cfg)
    if args.op == "degenerate":
        ts = [_parse(parse_exact, t) for t in (args.t or "[0;(1)],[0;(2)],[0;(3)]").split(",")]
        return degenerate_probe(fam, ts)
    return condition_bdd_search(fam, _parse(parse_exact, args.alpha), args.rho_frac,
                                args.qmax, args.K, cfg=cfg)


_HANDLERS = {
    "cf": cmd_cf, "brjuno": cmd_brjuno, "const": cmd_const, "lin": cmd_lin,
    "radius": cmd_radius, "lift": cmd_lift, "renorm": cmd_renorm,
    "scan": cmd_scan, "construct": cmd_construct, "probe": cmd_probe,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command; ``argv`` defaults to ``sys.argv[1:]``.

    Reading ``sys.argv`` makes this call the process's command (``python -m
    siegelkit.cli`` or the ``siegelkit`` script), and ``gc.freeze`` then runs
    at exit: the interpreter's final collections skip every object left, most
    of them numpy's.  No object needs those collections to be finalized:
    files close in ``with`` blocks, and forked scan workers are reaped before
    ``main`` returns.  A call that passes ``argv`` leaves its host's collector
    alone."""
    if argv is None:
        argv = sys.argv[1:]
        atexit.register(gc.freeze)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.argv = list(argv)  # what digests and manifests name
        args.side_files = []     # paths besides --out, for the manifest
        with _user_file(args.config):
            cfg = load_config(args.config)
        for flag in skio.OUTPUT_FLAGS:
            path = getattr(args, flag[2:].replace("-", "_"), None)
            if path:
                _check_output_path(path)
        _emit(args, _HANDLERS[args.cmd](args, cfg), cfg)
        return 0
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        # the usage of the subcommand argv names, else the top-level one
        parser.commands.get(argv[0] if argv else None, parser).print_usage(sys.stderr)
        return 1
    except SiegelError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
