import gc
import hashlib
import json
import math
import os
import signal
from collections import Counter
import subprocess
import sys

import pytest

from siegelkit import cli, germs, linearize, renorm, scan
from siegelkit.cf import farey_fractions
from siegelkit.errors import DomainError, SchemaMismatch
from siegelkit.cli import build_parser, main
from siegelkit import io as skio
from siegelkit.bounds import DEFAULT_CONFIG, const_Cprime, format_config
from siegelkit.germs import FlowFamily
from siegelkit.linearize import EscapeParams, linearizations
from siegelkit.renorm import HParams
from siegelkit.surd import QuadraticIrrational


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def _not_json(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def loads(text):
    """Parse a JSON output strictly: a bare Infinity or NaN fails."""
    return json.loads(text, parse_constant=_not_json)


def test_cf_expand(capsys):
    code, out, _ = run_cli(["cf", "expand", "--alpha", "355/113"], capsys)
    assert code == 0
    data = loads(out)
    assert data["cf"] == "[3;7,16]"
    assert "config" in data


def test_cf_special_seq_matches_library(capsys):
    code, out, _ = run_cli(["cf", "special-seq", "--alpha", "0/1",
                            "--variant", "short", "--n", "3"], capsys)
    data = loads(out)
    assert data["exact"] == "(4-1*sqrt(2))/14"   # 1/(4+sqrt2)
    assert abs(data["float"] - (4 - math.sqrt(2)) / 14) < 1e-15


def test_cf_eval_and_convergents(capsys):
    code, out, _ = run_cli(["cf", "eval", "--cf", "[0;2,(2)]"], capsys)
    assert loads(out)["exact"] == "(-1+1*sqrt(2))/1"
    code, out, _ = run_cli(["cf", "convergents", "--cf", "[1;(1)]", "--n", "4"], capsys)
    rows = loads(out)["convergents"]
    assert [r["p"] for r in rows] == ["1", "2", "3", "5", "8"]
    # --alpha is a value, as for expand: its own expansion
    code, out, _ = run_cli(["cf", "convergents", "--alpha", "355/113", "--n", "2"], capsys)
    rows = loads(out)["convergents"]
    assert (code, [(r["p"], r["q"]) for r in rows]) == (0, [("3", "1"), ("22", "7"),
                                                            ("355", "113")])


def test_const_passthrough(capsys):
    code, out, _ = run_cli(["const", "Cprime", "--K", "10", "--q", "5"], capsys)
    assert code == 0
    assert abs(loads(out)["value"] - const_Cprime(10.0, 5, DEFAULT_CONFIG)) < 1e-15


def test_brjuno(capsys):
    code, out, _ = run_cli(["brjuno", "--alpha", "[1;(1)]", "--depth", "80"], capsys)
    data = loads(out)
    assert data["converged"] and 3.0 < data["value"] < 3.5


def test_lin_pole_probe(capsys):
    code, out, _ = run_cli(["lin", "pole-probe", "--family", "quadratic",
                            "--p", "0", "--q", "1", "--n", "2"], capsys)
    assert loads(out)["verdict"] == "pole"


def test_lin_pole_probe_reports_an_offset_past_its_own_pole(capsys):
    # the offset 2/5 + 1/10 = 1/2 has its pole at n = 3
    code, out, _ = run_cli(["lin", "pole-probe", "--p", "2", "--q", "5", "--n", "6"], capsys)
    rows = loads(out)["rows"]
    assert code == 0 and rows[0]["stop"].startswith("SmallDivisorBlowup")


def test_radius_escape(capsys):
    code, out, _ = run_cli(["radius", "escape", "--family", "quadratic",
                            "--alpha", "[0;(1)]", "--N", "96",
                            "--max-iter", "1000", "--bisect-tol", "4e-3"], capsys)
    data = loads(out)
    assert 0.2 < data["lower"] <= data["upper"] < 0.45


@pytest.mark.parametrize("argv,params", [
    (["escape", "--max-iter", "20", "--samples", "8"],
     {"max_iter": 20, "circle_samples": 8, "bisect_tol": 1e-3, "residual_tol": 1e-8}),
    (["hadamard", "--N", "64", "--window", "32"], {"window": 32}),
], ids=["escape", "hadamard"])
def test_radius_reports_the_estimator_and_its_params(argv, params, monkeypatch, capsys):
    # the command writes the op it ran and the parameters it built; a radius
    # valid at the cap reads the cap as its lower end
    monkeypatch.setattr(linearize, "ESCAPE_CAP", 0.9)
    code, out, _ = run_cli(["radius"] + argv + ["--family", "rotation", "--alpha", "[0;(1)]"],
                           capsys)
    data = loads(out)
    assert code == 0 and (data["method"], data["params"]) == (argv[0], params)
    assert (data["lower"], data["upper"]) == ((0.9, 1.0) if argv[0] == "escape"
                                              else (0.0, "inf"))  # strict JSON


def test_cli_defaults_are_the_dataclass_defaults(monkeypatch, capsys):
    # the parser leaves these options at None; the handler fills in the
    # dataclass's own defaults
    radius = build_parser().parse_args(["radius", "escape", "--alpha", "1/3"])
    assert (radius.max_iter, radius.samples, radius.bisect_tol, radius.residual_tol) == \
        (None, None, None, None)
    seen = []

    def capture(*args):
        seen.append(args[-1])
        raise DomainError("captured")

    monkeypatch.setattr(linearize, "escape_radius", capture)
    monkeypatch.setattr(renorm, "h_of_lift", capture)
    run_cli(["radius", "escape", "--family", "rotation", "--alpha", "1/3", "--N", "8"], capsys)
    run_cli(["lift", "h", "--family", "rotation", "--alpha", "1/3", "--N", "8"], capsys)
    assert seen == [EscapeParams(), HParams()]


def test_usage_error_exit_1(capsys):
    code, _, err = run_cli(["radius", "escape", "--family", "nosuch",
                            "--alpha", "1/2"], capsys)
    assert code == 1
    assert "usage" in err.lower()
    code, _, _ = run_cli(["cf", "nonsense-op"], capsys)
    assert code == 1


@pytest.mark.parametrize("argv,usage", [
    (["scan", "--grid", "1/3", "--work", "2"], "usage: siegelkit scan "),
    (["scan", "--grid", "1/3", "--workers", "x"], "usage: siegelkit scan "),
    (["scan"], "usage: siegelkit scan "),
    (["renorm", "setup", "--alpha", "[0;(1)]", "--trace", "t.csv"], "usage: siegelkit renorm "),
    (["nosuch"], "usage: siegelkit [-h]"),
    ([], "usage: siegelkit [-h]"),
], ids=["unknown-option", "bad-value", "missing-option", "refused-by-handler",
        "unknown-subcommand", "no-subcommand"])
def test_usage_error_prints_its_subcommands_usage(argv, usage, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("usage error:")
    assert err.splitlines()[1].startswith(usage)


@pytest.mark.parametrize("argv", [
    ["cf", "expand", "--alpha", "1/0"],
    ["cf", "eval", "--cf", "[0;x]"],
    ["scan", "--grid", "farey:Q=x"],
    ["scan", "--grid", "1/3", "--estimators", "foo"],
    ["cf", "eval"],
    ["cf", "convergents"],
    ["cf", "expand"],
    ["cf", "special-seq"],
    ["lin", "coeffs"],
    ["probe", "cond-bdd", "--K", "2"],
    ["lin", "coeffs", "--alpha", "1/3", "--N", "4", "--family", "flow", "--chi", "x"],
    # only the flow has a field for --chi to set
    ["lin", "coeffs", "--alpha", "1/3", "--N", "4", "--family", "rotation", "--chi", "1"],
    ["lin", "coeffs", "--alpha", "1/3", "--N", "4", "--family", "quadratic", "--chi", "1"],
    ["scan", "--grid", "1/3", "--chi", "1"],
    # a repeated estimator would print each of its rows twice
    ["scan", "--grid", "1/3", "--estimators", "hadamard,hadamard"],
    # the empty field is --family rotation, not the flow's default field
    ["lin", "coeffs", "--alpha", "1/3", "--N", "4", "--family", "flow", "--chi", ""],
    # an abbreviated option is refused: each option has one spelling
    ["scan", "--grid", "1/3,2/5", "--format", "csv", "--work", "2"],
    ["scan", "--grid", "1/3,2/5", "--format", "csv", "--man", "x"],
])
def test_malformed_input_is_a_usage_error(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith("usage error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", [["--format", "csv"], ["--workers", "4"],
                                  ["--trace", "orbit.csv"]])
def test_flags_only_where_read(flag, capsys):
    # --format and --workers belong to scan, --trace to renorm
    code, _, err = run_cli(["cf", "expand", "--alpha", "1/3"] + flag, capsys)
    assert code == 1
    assert err.startswith("usage error:")


def test_numeric_error_exit_2(capsys):
    # k too deep for a short rational expansion -> InsufficientDepth
    code, _, err = run_cli(["renorm", "setup", "--family", "rotation",
                            "--alpha", "2/5", "--k", "3"], capsys)
    assert code == 2
    assert "InsufficientDepth" in err


_ESCAPE = ["radius", "escape", "--alpha", "[0;(1)]"]
_FLOW = _ESCAPE + ["--family", "flow", "--chi", "1", "--N", "32"]


def _no_return(signum, frame):
    raise TimeoutError("the command did not return")


@pytest.mark.parametrize("argv,env", [
    (["const", "C", "--K", "nan", "--q", "3"], {}),
    (["const", "Cprime", "--K", "inf", "--q", "3"], {}),
    (["const", "C", "--K", "2", "--q", "3"], {"SIEGEL_c1": "nan"}),
    (["const", "C", "--K", "2", "--q", "3"], {"SIEGEL_c1": "abc"}),
    (["const", "C", "--K", "2", "--q", "3", "--config", "c1 = abc\n"], {}),
    (_ESCAPE + ["--bisect-tol", "0"], {}),
    (_ESCAPE + ["--bisect-tol", "-1"], {}),
    (_ESCAPE + ["--bisect-tol", "nan"], {}),
    (_ESCAPE + ["--residual-tol", "nan"], {}),
    (_ESCAPE + ["--samples", "0"], {}),
    (["scan", "--grid", "1/3,2/5", "--bisect-tol", "0"], {}),
    (_FLOW + ["--restriction", "nan"], {}),
    (_FLOW + ["--restriction", "-1"], {}),
    (_ESCAPE + ["--family", "rotation", "--restriction", "nan"], {}),
    (_ESCAPE + ["--family", "rotation", "--restriction", "-1"], {}),
    (_ESCAPE + ["--family", "quadratic", "--restriction", "2"], {}),
    (_ESCAPE + ["--family", "quadratic", "--restriction", "nan"], {}),
    (["lin", "coeffs", "--alpha", "1/3", "--N", "4", "--family", "flow", "--chi", "nan"], {}),
    (["brjuno", "--alpha", "[0;(1)]", "--tol", "-1"], {}),
    (["brjuno", "--alpha", "[0;(1)]", "--tol", "nan"], {}),
])
def test_nan_input_is_a_numeric_error(argv, env, capsys, monkeypatch, tmp_path):
    # a NaN input must not reach the report, where it would compute a "nan"
    # value; nor a tolerance at or below zero, which no bracket ever gets under;
    # nor a config value that is not a number
    for key, val in env.items():
        monkeypatch.setenv(key, val)
    if "--config" in argv:  # the parameter holds the file's text
        i = argv.index("--config") + 1
        (tmp_path / "bad.cfg").write_text(argv[i], encoding="utf-8")
        argv = argv[:i] + [str(tmp_path / "bad.cfg")] + argv[i + 1:]
    previous = signal.signal(signal.SIGALRM, _no_return)
    signal.alarm(60)
    try:
        code, out, err = run_cli(argv, capsys)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2 and out == ""
    assert err.startswith("DomainError:")


@pytest.mark.parametrize("alpha", ["1/2", "3/7", "2"])
def test_brjuno_of_a_rational_is_a_numeric_error(alpha, capsys):
    # the sum diverges: a report of "inf" would claim a sum that does not exist
    code, out, err = run_cli(["brjuno", "--alpha", alpha], capsys)
    assert code == 2 and out == ""
    assert err.startswith("RationalInput:")


def test_brjuno_of_a_rational_cut_off_by_depth_is_a_partial_sum(capsys):
    # a depth short of the expansion's end treats it as a prefix
    code, out, _ = run_cli(["brjuno", "--alpha", "355/113", "--depth", "1"], capsys)
    data = loads(out)
    assert code == 0 and data["value"] == math.log(7) and not data["converged"]


@pytest.mark.parametrize("alpha,depth,working_depth", [
    ("[0;(1)]", 1480, 1470), ("[0;(2)]", 900, 800)])
def test_brjuno_past_float_range_keeps_the_partial_sum(alpha, depth, working_depth, capsys):
    # once q_n has no float, log(q_{n+1})/q_n is below 1e-305: the terms past
    # it add 0.0, and the sum keeps the bits of a depth short of it
    _, out, _ = run_cli(["brjuno", "--alpha", alpha, "--depth", str(working_depth)], capsys)
    code, deep, err = run_cli(["brjuno", "--alpha", alpha, "--depth", str(depth)], capsys)
    assert code == 0 and err == ""
    data = loads(deep)
    assert data["value"] == loads(out)["value"] and data["converged"]


@pytest.mark.parametrize("argv", [
    ["cf", "convergents", "--cf", "[0;(1)]", "--n", "21000"],
    ["cf", "special-seq", "--alpha", "[0;(1)]", "--n", "21000"],
    ["cf", "theta-seq", "--alpha", "[0;(1)]", "--n", "21000"],
])
def test_integer_too_long_to_print_is_a_numeric_error(argv, capsys):
    # past Python's 4300-digit int-to-str limit; --n 9000 still prints
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("DomainError:")


def test_flow_linearizer_overflow_is_a_numeric_error(capsys):
    # a finite but huge field overflows the flow's linearizer
    code, out, err = run_cli(["lin", "coeffs", "--alpha", "1/3", "--N", "4",
                              "--family", "flow", "--chi", "1e300"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("OverflowGuard:")


def test_flow_germ_overflow_is_a_numeric_error(capsys):
    # at order 256 the field 100 gives finite psi and psi^{-1}, and a germ
    # composed of them that is not finite
    code, out, err = run_cli(["lin", "coeffs", "--alpha", "[0;(1)]", "--N", "256",
                              "--family", "flow", "--chi", "100"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("OverflowGuard:")


@pytest.mark.parametrize("argv", [
    _ESCAPE + ["--N", "0"],
    ["lin", "coeffs", "--alpha", "1/3", "--N", "0"],
    ["lift", "h", "--alpha", "[0;(1)]", "--N", "0"],
    ["lift", "h", "--alpha", "[0;(1)]", "--family", "flow", "--chi", "1", "--N", "0"],
    ["scan", "--grid", "1/3", "--lin-order", "0"],
    ["scan", "--grid", "1/3", "--family", "flow", "--order", "0"],
    ["scan", "--grid", "1/3", "--window", "0"],
    ["scan", "--grid", "1/3", "--workers", "0"],
    ["scan", "--grid", "1/3", "--workers", "-3"],
    ["scan", "--grid", "farey:Q=0"],
    ["scan", "--grid", "farey:Q=-5"],
    ["probe", "main-lemma", "--pq", "2/5", "--N", "0", "--K", "2"],
    ["lin", "pole-probe", "--q", "0", "--n", "2"],
    ["probe", "cond-bdd", "--alpha", "[0;(1)]", "--K", "2", "--qmax", "0"],
    ["cf", "special-seq", "--alpha", "1/3", "--n", "-1"],
    ["cf", "theta-seq", "--alpha", "[0;(1)]", "--n", "-1"],
    ["renorm", "setup", "--alpha", "[0;(1)]", "--k", "-1"],
    ["brjuno", "--alpha", "[0;(1)]", "--depth", "-1"],
    ["renorm", "rotnum", "--alpha", "[0;(1)]", "--returns", "0"],
    ["cf", "convergents", "--cf", "[0;(1)]", "--n", "-1"],
])
def test_size_below_its_least_value_is_a_numeric_error(argv, capsys):
    # an order, window, depth, index, denominator bound or count below its
    # least value is refused with a tag, not a traceback
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("DomainError:")


@pytest.mark.parametrize("rho_frac", ["0", "-1", "1", "nan"])
@pytest.mark.parametrize("argv", [
    ["construct", "--theta0", "[0;(1)]", "--stages", "1"],
    ["probe", "cond-bdd", "--alpha", "[0;(1)]", "--K", "2"],
])
def test_rho_frac_outside_the_unit_interval_is_a_numeric_error(argv, rho_frac, capsys):
    code, out, err = run_cli(argv + ["--rho-frac", rho_frac], capsys)
    assert code == 2 and out == ""
    assert err.startswith("DomainError:")


def _refuse(*args, **kwargs):
    raise AssertionError("work done before the input check")


def _refuse_lipschitz_bound(monkeypatch, refuse):
    monkeypatch.setattr(germs.GermFamily, "lipschitz_bound", refuse)


@pytest.mark.parametrize("argv", [
    ["construct", "--theta0", "[0;(1)]", "--stages", "0"],
    ["construct", "--theta0", "[0;(1)]", "--stages", "-2"],
    ["construct", "--theta0", "[0;(1)]", "--stages", "1", "--rho-frac", "0"],
    ["probe", "cond-bdd", "--alpha", "[0;(1)]", "--rho-frac", "1"],
    ["probe", "cond-bdd", "--alpha", "[0;(1)]", "--qmax", "0"],
    ["probe", "cond-bdd", "--alpha", "[0;(1)]", "--K", "0.5"],
    ["probe", "cond-bdd", "--alpha", "1/3", "--K", "nan"],
    ["probe", "main-lemma", "--pq", "1/3", "--K", "nan"],
    ["probe", "main-lemma", "--pq", "1/3", "--K", "0.5"],
    ["probe", "main-lemma", "--pq", "2/5", "--N", "0"],
    # a window past lin_order (48) would make every hadamard row an error row
    ["scan", "--grid", "[0;(1)],[0;(2)]", "--estimators", "escape,hadamard",
     "--window", "64"],
    # one distinct t has no spread, so any family would read as degenerate
    ["probe", "degenerate", "--t", "[0;(1)]"],
    ["probe", "degenerate", "--t", "[0;(1)],[0;(1)]"],
])
def test_bad_construct_and_cond_bdd_input_fails_before_any_work(argv, monkeypatch, capsys):
    # neither a linearization nor the Lipschitz bound runs first
    monkeypatch.setattr(scan, "linearizations", _refuse)
    _refuse_lipschitz_bound(monkeypatch, _refuse)
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("DomainError:")


# With c_2 = 3 the flow germs have numerical poles at rationals: 23 of the
# 47 series of this grid stop before lin_order 48, so the lock-step batches
# of a scan chunk mix full and truncated series.  The data rows are those the
# per-germ recursion wrote; the digest also covers the config and manifest lines.
_FLOW_SCAN = ["scan", "--family", "flow", "--chi", "3", "--grid", "farey:Q=12",
              "--format", "csv"]
_FLOW_SCAN_SHA256 = "07a7e7b1399fe4f803a29eddb32e63f4d4dfb88748f9d75a0435f33164fe9071"


def test_flow_scan_csv_is_worker_independent_and_pinned(capsys):
    runs = [run_cli(_FLOW_SCAN + ["--workers", w], capsys) for w in ("1", "2")]
    assert runs[0] == runs[1] and runs[0][0] == 0
    assert hashlib.sha256(runs[0][1].encode()).hexdigest() == _FLOW_SCAN_SHA256
    grid = farey_fractions(12)
    phis = linearizations([FlowFamily([3.0], 0.5).at(a, 32) for a in grid], 48)
    assert (len(grid), sum(phi.order < 48 for phi in phis)) == (47, 23)


def test_hadamard_error_row_names_what_stopped_the_series(capsys):
    # at the golden mean the series overflows (|a_95| = 3.5e250); 1/3 has a pole
    code, out, _ = run_cli(["scan", "--family", "flow", "--chi", "1000", "--restriction", "1",
                            "--grid", "[0;(1)],1/3", "--estimators", "escape,hadamard",
                            "--lin-order", "128", "--window", "64", "--format", "csv"], capsys)
    methods = [line.split(",")[4] for line in out.splitlines()[4:]]
    assert (code, methods) == (0, ["escape", "hadamard:error:OverflowGuard",
                                   "escape", "hadamard:error:SmallDivisorBlowup"])


# The quadratic family's scan, pinned the same way: a change that moves one
# quadratic germ changes these bytes at every worker count.
_QUADRATIC_SCAN = ["scan", "--family", "quadratic", "--grid", "farey:Q=16", "--format", "csv"]
_QUADRATIC_SCAN_SHA256 = "1e63ac0d2940724ec64117764c86d2a3c403b574a34e2c29978e63b0dc5db434"


def test_quadratic_scan_csv_is_worker_independent_and_pinned(capsys):
    runs = [run_cli(_QUADRATIC_SCAN + ["--workers", w], capsys) for w in ("1", "2")]
    assert runs[0] == runs[1] and runs[0][0] == 0
    assert hashlib.sha256(runs[0][1].encode()).hexdigest() == _QUADRATIC_SCAN_SHA256


def test_construct_linearizes_each_parameter_once(monkeypatch, capsys):
    # the driver's one estimate of theta0 also sets the target
    calls = []
    real = scan.linearizations

    def counted(germs, *args, **kwargs):
        calls.extend(g.alpha for g in germs)
        return real(germs, *args, **kwargs)

    monkeypatch.setattr(scan, "linearizations", counted)
    code, out, err = run_cli(["construct", "--theta0", "[0;(1)]", "--stages", "1"], capsys)
    assert code == 0, err
    counts = Counter(calls)
    assert counts[QuadraticIrrational(-1, 1, 2, 5)] == 1 and set(counts.values()) == {1}


def test_scan_csv_golden_path(tmp_path, capsys):
    out_file = tmp_path / "comb.csv"
    code, _, _ = run_cli(["scan", "--family", "quadratic", "--grid", "farey:Q=6",
                          "--format", "csv", "--max-iter", "150",
                          "--out", str(out_file),
                          "--manifest", str(tmp_path / "man.json")], capsys)
    assert code == 0
    text = out_file.read_text(encoding="utf-8")
    assert text.startswith("# schema: scanrow/2\n")
    assert "# manifest: " in text and "# config: c1=1.0" in text
    with open(out_file, encoding="utf-8") as fh:
        rows = skio.load_scan_csv(fh)
    grid_size = len([1 for line in text.splitlines() if not line.startswith("#")]) - 1
    assert len(rows) == grid_size
    assert all(r.max_iter == 150 for r in rows if r.method == "escape")
    man = loads((tmp_path / "man.json").read_text(encoding="utf-8"))
    assert man["outputs"] == {str(out_file): skio.file_sha256(str(out_file))}


def test_opt_equals_value_prints_the_bytes_of_its_space_form(capsys):
    base = ["scan", "--grid", "1/3,2/5", "--format", "csv"]
    runs = [run_cli(argv, capsys) for argv in (
        base, ["scan", "--grid=1/3,2/5", "--format", "csv"], base + ["--workers=2"])]
    assert runs[0][0] == 0 and runs[0] == runs[1] == runs[2]
    assert "# manifest: 76fcb20a76da9f87\n" in runs[0][1]


@pytest.mark.parametrize("argv, key, text", [
    (["lin", "coeffs", "--family", "rotation", "--alpha", "1/3", "--N", "8"],
     "small_divisor_log", [None] + 2 * [0.5493061443340547, 0.5493061443340548, "-inf"]
     + [0.5493061443340547]),
    (["radius", "hadamard", "--family", "rotation", "--alpha", "[0;(1)]"], "upper", "inf"),
])
def test_non_finite_values_are_written_as_json_text(argv, key, text, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and loads(out)[key] == text


def test_scan_json_row_with_no_upper_bound_is_json(capsys):
    code, out, _ = run_cli(["scan", "--grid", "1/3", "--estimators", "escape,hadamard",
                            "--format", "json"], capsys)
    rows = loads(out)["rows"]
    assert code == 0 and rows[1]["method"] == "hadamard:error:SmallDivisorBlowup"
    assert rows[1]["r_upper"] == "inf" and float(rows[1]["r_upper"]) == math.inf


def test_scan_digest_names_the_argv_run(tmp_path, capsys):
    # in-process scans over different grids: each digest hashes its own argv
    digests = []
    for grid in ("farey:Q=3", "farey:Q=4"):
        man = tmp_path / "man.json"
        argv = ["scan", "--family", "quadratic", "--grid", grid, "--format", "csv",
                "--max-iter", "50", "--manifest", str(man)]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        digest = loads(man.read_text(encoding="utf-8"))["digest"]
        assert digest == skio.invocation_digest(argv, DEFAULT_CONFIG)
        assert f"# manifest: {digest}\n" in out
        digests.append(digest)
    assert digests[0] != digests[1]


def test_renorm_rotnum_cli_with_trace(tmp_path, capsys):
    trace = tmp_path / "orbit.csv"
    man = tmp_path / "man.json"
    code, out, _ = run_cli(["renorm", "rotnum", "--family", "quadratic",
                            "--alpha", "[0;(1)]", "--k", "1", "--returns", "50",
                            "--trace", str(trace), "--manifest", str(man)], capsys)
    assert code == 0
    data = loads(out)
    assert data["error"] < 1e-6
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "step,re,im,in_U"
    assert len(lines) > 2
    assert loads(man.read_text(encoding="utf-8"))["outputs"] == {
        str(trace): skio.file_sha256(str(trace))}


def test_renorm_return_cli_with_trace(tmp_path, capsys):
    trace = tmp_path / "orbit.csv"
    code, out, _ = run_cli(["renorm", "return", "--family", "rotation", "--alpha", "[0;(1)]",
                            "--N", "8", "--trace", str(trace)], capsys)
    assert code == 0
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "step,re,im,in_U"
    assert len(lines) == loads(out)["hops"] + 3  # header, start, jump, hops


def test_renorm_setup_refuses_trace_before_any_work(tmp_path, monkeypatch, capsys):
    # setup runs no orbit, so the trace would be listed nowhere and never written
    monkeypatch.setattr(germs, "lift_of_germ", _refuse)
    trace, man = tmp_path / "t.csv", tmp_path / "m.json"
    code, out, err = run_cli(["renorm", "setup", "--family", "rotation", "--alpha", "[0;(1)]",
                              "--N", "8", "--trace", str(trace), "--manifest", str(man)],
                             capsys)
    assert code == 1 and out == ""
    assert err.startswith("usage error:")
    assert not trace.exists() and not man.exists()


# each JSON artifact: the command that writes it, its loader and its writer
_ARTIFACTS = {
    "construction": (["construct", "--theta0", "[0;(1)]", "--stages", "2"],
                     skio.load_construction_states, skio.construction_states_json),
    "lift": (["lift", "build", "--alpha", "[0;(1)]"], skio.load_lift, skio.lift_json),
    "renorm": (["renorm", "rotnum", "--alpha", "[0;(1)]", "--returns", "20"],
               skio.load_renorm_report, skio.renorm_report_json),
}


@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory):
    """Artifact name -> the text the CLI wrote to --out."""
    tmp = tmp_path_factory.mktemp("artifacts")
    texts = {}
    for name, (argv, _, _) in _ARTIFACTS.items():
        path = tmp / f"{name}.json"
        assert main(argv + ["--out", str(path)]) == 0
        texts[name] = path.read_text(encoding="utf-8")
    return texts


@pytest.mark.parametrize("name", sorted(_ARTIFACTS))
def test_cli_artifact_reencodes_to_its_own_bytes(name, cli_artifacts):
    _, load, write = _ARTIFACTS[name]
    text = cli_artifacts[name]
    assert write(load(text), DEFAULT_CONFIG) + "\n" == text


_DELETED = object()


@pytest.mark.parametrize("name,path,value", [
    ("construction", ["states", 0, "k_chosen"], "x"),
    ("construction", ["states", 0, "stage"], [1]),
    ("construction", ["states", 0, "diagnostics"], 7),
    ("construction", ["states", 0, "diagnostics"], _DELETED),
    ("renorm", ["n_returns"], 2.7),
    ("renorm", ["undefined_returns"], True),
    ("renorm", ["diagnostics"], [1]),
    ("lift", ["alpha"], "0.6"),
])
def test_cli_artifact_with_a_field_of_another_type_is_refused(name, path, value, cli_artifacts):
    data = json.loads(cli_artifacts[name])
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    assert path[-1] in parent
    if value is _DELETED:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with pytest.raises(SchemaMismatch):
        _ARTIFACTS[name][1](json.dumps(data))


@pytest.mark.parametrize("argv", [
    ["cf", "expand", "--alpha", "1/3"],
    ["cf", "eval", "--cf", "[0;(2)]"],
    ["cf", "convergents", "--cf", "[0;(1)]"],
    ["cf", "special-seq", "--alpha", "1/2"],
    ["cf", "theta-seq", "--alpha", "[0;(1)]"],
    ["brjuno", "--alpha", "[0;(1)]"],
    ["const", "C", "--K", "1", "--q", "1"],
    ["lin", "coeffs", "--alpha", "1/3", "--N", "8"],
    ["lin", "compose-check", "--alpha", "[0;(1)]", "--N", "8"],
    ["lin", "pole-probe", "--p", "0", "--q", "1", "--n", "2"],
    ["radius", "hadamard", "--alpha", "[0;(1)]", "--N", "64", "--window", "16"],
    ["radius", "escape", "--alpha", "[0;(1)]", "--N", "16", "--max-iter", "50"],
    ["lift", "build", "--alpha", "[0;(1)]", "--N", "8"],
    ["lift", "h", "--family", "rotation", "--alpha", "[0;(1)]", "--N", "8"],
    ["renorm", "setup", "--family", "rotation", "--alpha", "[0;(1)]", "--N", "8"],
    ["renorm", "return", "--family", "rotation", "--alpha", "[0;(1)]", "--N", "8"],
    ["renorm", "rotnum", "--family", "rotation", "--alpha", "[0;(1)]", "--N", "8",
     "--returns", "5"],
    ["scan", "--grid", "1/3", "--max-iter", "20"],
    ["construct", "--theta0", "[0;(1)]", "--stages", "1"],
    ["probe", "main-lemma", "--pq", "1/2", "--N", "2", "--K", "2"],
    ["probe", "degenerate", "--family", "rotation", "--t", "[0;(1)],[0;(2)]"],
    ["probe", "cond-bdd", "--family", "rotation", "--alpha", "[0;(1)]", "--K", "2"],
])
def test_every_json_report_echoes_config(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    assert loads(out)["config"] == format_config(DEFAULT_CONFIG)


def test_lift_h_cli(capsys):
    code, out, _ = run_cli(["lift", "h", "--family", "rotation",
                            "--alpha", "[0;(1)]", "--N", "32"], capsys)
    data = loads(out)
    assert data["h_estimate"] == 0.0
    assert data["r_floor"] == 1.0


def test_probe_degenerate_cli(capsys):
    code, out, _ = run_cli(["probe", "degenerate", "--family", "flow", "--chi", "1",
                            "--t", "[0;(1)],[0;(2)]", "--K", "7"], capsys)
    data = loads(out)
    assert code == 0
    assert data["degenerate_flag"] is True


def test_probe_degenerate_needs_no_lipschitz_estimate(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("probe degenerate must not compute K")

    _refuse_lipschitz_bound(monkeypatch, refuse)
    code, out, _ = run_cli(["probe", "degenerate", "--family", "flow", "--chi", "1",
                            "--t", "[0;(1)],[0;(2)]"], capsys)
    assert code == 0
    assert "degenerate_flag" in loads(out)


def test_flow_lipschitz_overflow_is_a_numeric_error(capsys, monkeypatch):
    # max(1.0, nan) is 1.0: a bound that is not finite must not become K = 1,
    # so the probe raises before it linearizes germs that would overflow too
    monkeypatch.setattr(scan, "linearizations", _refuse)
    code, out, err = run_cli(["probe", "main-lemma", "--family", "flow", "--chi", "1e300"],
                             capsys)
    assert code == 2 and out == ""
    assert err.startswith("OverflowGuard:")


@pytest.mark.parametrize("argv,flag", [
    (["scan", "--grid", "1/3"], "--out"),
    (["probe", "cond-bdd", "--alpha", "[0;(1)]"], "--out"),
    (["scan", "--grid", "1/3"], "--manifest"),
    (["scan", "--grid", "1/3"], "--config"),
    (["renorm", "rotnum", "--alpha", "[0;(1)]", "--returns", "2"], "--trace"),
])
def test_missing_file_or_directory_is_a_usage_error(argv, flag, tmp_path, capsys):
    path = str(tmp_path / "no-such-dir" / "file")
    code, _, err = run_cli(argv + [flag, path], capsys)
    assert code == 1
    assert err.startswith(f"usage error: cannot use {path!r}")
    assert "Traceback" not in err


@pytest.mark.parametrize("name,reason", [("no-such-dir/file", "No such file or directory"),
                                         (".", "Is a directory")])
@pytest.mark.parametrize("argv,flag", [
    (["scan", "--grid", "1/3"], "--out"),
    (["probe", "cond-bdd", "--alpha", "[0;(1)]"], "--out"),
    (["scan", "--grid", "1/3"], "--manifest"),
    (["renorm", "rotnum", "--alpha", "[0;(1)]", "--returns", "2"], "--trace"),
])
def test_unusable_output_path_fails_before_any_work(argv, flag, name, reason, tmp_path,
                                                   monkeypatch, capsys):
    # every numeric step of these handlers starts from make_family
    monkeypatch.setattr(cli, "make_family", _refuse)
    path = str(tmp_path / name)
    code, out, err = run_cli(argv + [flag, path], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"usage error: cannot use {path!r}: {reason}\n")


def test_every_output_flag_is_an_option_of_some_command():
    # a flag that left the parser would leave a stale path check and digest rule
    options = {opt for p in build_parser().commands.values()
               for action in p._actions for opt in action.option_strings}
    assert sorted(set(skio.OUTPUT_FLAGS) - options) == []


def test_failed_command_leaves_an_existing_out_as_it_was(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    out_file.write_text("earlier rows\n", encoding="utf-8")
    code, _, err = run_cli(["scan", "--grid", "1/3", "--bisect-tol", "0",
                            "--out", str(out_file)], capsys)
    assert code == 2 and err.startswith("DomainError:")
    assert out_file.read_text(encoding="utf-8") == "earlier rows\n"


def test_config_file_flows_through(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("c1 = 4.0\n", encoding="utf-8")
    code, out, _ = run_cli(["const", "C", "--K", "1", "--q", "1",
                            "--config", str(cfgfile)], capsys)
    data = loads(out)
    assert data["value"] == 4.0
    assert "c1=4.0" in data["config"]


def test_scan_worker_byte_identity_small(tmp_path):
    # small end-to-end check through the real executable; the acceptance
    # suite repeats this at Farey-64 scale
    outs = []
    for workers, name in ((1, "a.csv"), (3, "b.csv")):
        path = tmp_path / name
        cmd = [sys.executable, "-m", "siegelkit.cli", "scan",
               "--family", "quadratic", "--grid", "farey:Q=5",
               "--format", "csv", "--max-iter", "120",
               "--workers", str(workers), "--out", str(path)]
        proc = subprocess.run(cmd, capture_output=True, encoding="utf-8", timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


_NUMERIC_MODULES = ("numpy", "siegelkit.series", "siegelkit.germs", "siegelkit.linearize",
                    "siegelkit.renorm", "siegelkit.scan")
_OPENSSL = ("hashlib", "_hashlib")  # hashlib loads OpenSSL
_LOADED_MODULES = """
import contextlib, io, json, sys
from siegelkit import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""


def _src_env():
    """The environment for a child that imports this siegelkit."""
    return {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}


def _fresh_interpreter(src, *argv):
    """The JSON that ``src`` prints, run by a fresh interpreter, so that no
    other test's imports are counted."""
    proc = subprocess.run([sys.executable, "-c", src, *argv], env=_src_env(),
                          capture_output=True, encoding="utf-8", timeout=120)
    assert proc.returncode == 0, proc.stderr
    return loads(proc.stdout)


def _skip_if_a_bare_interpreter_loads_openssl():
    if "_hashlib" in _fresh_interpreter("import json, sys; print(json.dumps(list(sys.modules)))"):
        pytest.skip("a site hook of this interpreter loads _hashlib")


@pytest.mark.parametrize("argv,absent", [
    (["const", "C", "--K", "1", "--q", "1"], _NUMERIC_MODULES),
    (["cf", "expand", "--alpha", "1/3"], _NUMERIC_MODULES),
    (["brjuno", "--alpha", "[0;(1)]"], _NUMERIC_MODULES),
    (["--help"], _NUMERIC_MODULES),
    (["scan", "--grid", "1/3", "--max-iter", "20"], ("siegelkit.renorm",)),
    # hashes --out and the invocation
    (["scan", "--grid", "1/3", "--max-iter", "20", "--format", "csv", "--out", "{tmp}/s.csv",
      "--manifest", "{tmp}/m.json"], ("siegelkit.renorm",)),
])
def test_commands_load_only_the_modules_they_run(argv, absent, tmp_path):
    _skip_if_a_bare_interpreter_loads_openssl()
    code, loaded = _fresh_interpreter(_LOADED_MODULES,
                                      *(a.format(tmp=tmp_path) for a in argv))
    assert code == 0
    assert sorted(set(absent + _OPENSSL) & set(loaded)) == []


def test_importing_io_leaves_openssl_unloaded():
    _skip_if_a_bare_interpreter_loads_openssl()
    loaded = _fresh_interpreter("import json, sys, siegelkit.io; print(json.dumps(list(sys.modules)))")
    assert "siegelkit.io" in loaded
    assert sorted(set(_OPENSSL) & set(loaded)) == []


def test_in_process_main_leaves_the_collector_alone(monkeypatch, capsys):
    registered = []
    monkeypatch.setattr(cli.atexit, "register", registered.append)
    frozen = gc.get_freeze_count()
    assert run_cli(["const", "C", "--K", "1", "--q", "1"], capsys)[0] == 0
    assert registered == [] and gc.get_freeze_count() == frozen
    # reading sys.argv makes the call the process's command
    monkeypatch.setattr(sys, "argv", ["siegelkit", "const", "C", "--K", "1", "--q", "1"])
    assert run_cli(None, capsys)[0] == 0
    assert registered == [gc.freeze] and gc.get_freeze_count() == frozen


# runs the command as ``python -m siegelkit.cli`` does; the handler registered
# before main runs after main's own, at the very end
_PROCESS_EXIT = """
import atexit, gc, sys
from siegelkit import cli
atexit.register(lambda: sys.stderr.write(f"frozen at exit: {gc.get_freeze_count() > 0}\\n"))
sys.exit(cli.main())
"""


@pytest.mark.parametrize("argv,code", [
    (["const", "C", "--K", "1", "--q", "1"], 0),
    (["const", "C", "--K", "1"], 1),   # --q is missing
    (["brjuno", "--alpha", "1/2"], 2),  # RationalInput
])
def test_process_exit_keeps_code_and_output(argv, code, capsys):
    expected = run_cli(argv, capsys)
    proc = subprocess.run([sys.executable, "-c", _PROCESS_EXIT, *argv], env=_src_env(),
                          capture_output=True, encoding="utf-8", timeout=120)
    assert expected[0] == code
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, expected[1], expected[2] + "frozen at exit: True\n")
