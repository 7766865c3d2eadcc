import hashlib
import json
import math
import signal
from collections import Counter
import subprocess
import sys

import pytest

from siegelkit import cli, scan
from siegelkit.cf import farey_fractions
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


def test_cf_expand(capsys):
    code, out, _ = run_cli(["cf", "expand", "--alpha", "355/113"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["cf"] == "[3;7,16]"
    assert "config" in data


def test_cf_special_seq_matches_library(capsys):
    code, out, _ = run_cli(["cf", "special-seq", "--alpha", "0/1",
                            "--variant", "short", "--n", "3"], capsys)
    data = json.loads(out)
    assert data["exact"] == "(4-1*sqrt(2))/14"   # 1/(4+sqrt2)
    assert abs(data["float"] - (4 - math.sqrt(2)) / 14) < 1e-15


def test_cf_eval_and_convergents(capsys):
    code, out, _ = run_cli(["cf", "eval", "--cf", "[0;2,(2)]"], capsys)
    assert json.loads(out)["exact"] == "(-1+1*sqrt(2))/1"
    code, out, _ = run_cli(["cf", "convergents", "--cf", "[1;(1)]", "--n", "4"], capsys)
    rows = json.loads(out)["convergents"]
    assert [r["p"] for r in rows] == ["1", "2", "3", "5", "8"]


def test_const_passthrough(capsys):
    code, out, _ = run_cli(["const", "Cprime", "--K", "10", "--q", "5"], capsys)
    assert code == 0
    assert abs(json.loads(out)["value"] - const_Cprime(10.0, 5)) < 1e-15


def test_brjuno(capsys):
    code, out, _ = run_cli(["brjuno", "--alpha", "[1;(1)]", "--depth", "80"], capsys)
    data = json.loads(out)
    assert data["converged"] and 3.0 < data["value"] < 3.5


def test_lin_pole_probe(capsys):
    code, out, _ = run_cli(["lin", "pole-probe", "--family", "quadratic",
                            "--p", "0", "--q", "1", "--n", "2"], capsys)
    assert json.loads(out)["verdict"] == "pole"


def test_radius_escape(capsys):
    code, out, _ = run_cli(["radius", "escape", "--family", "quadratic",
                            "--alpha", "[0;(1)]", "--N", "96",
                            "--max-iter", "1000", "--bisect-tol", "4e-3"], capsys)
    data = json.loads(out)
    assert 0.2 < data["lower"] <= data["upper"] < 0.45


def test_cli_defaults_are_the_dataclass_defaults():
    radius = build_parser().parse_args(["radius", "escape", "--alpha", "1/3"])
    esc = EscapeParams()
    assert (radius.max_iter, radius.samples, radius.bisect_tol, radius.residual_tol) == \
        (esc.max_iter, esc.circle_samples, esc.bisect_tol, esc.residual_tol)
    lift = build_parser().parse_args(["lift", "h", "--alpha", "1/3"])
    assert lift.max_iter == HParams().max_iter


def test_usage_error_exit_1(capsys):
    code, _, err = run_cli(["radius", "escape", "--family", "nosuch",
                            "--alpha", "1/2"], capsys)
    assert code == 1
    assert "usage" in err.lower()
    code, _, _ = run_cli(["cf", "nonsense-op"], capsys)
    assert code == 1


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
    (_ESCAPE + ["--bisect-tol", "0"], {}),
    (_ESCAPE + ["--bisect-tol", "-1"], {}),
    (_ESCAPE + ["--bisect-tol", "nan"], {}),
    (_ESCAPE + ["--residual-tol", "nan"], {}),
    (_ESCAPE + ["--samples", "0"], {}),
    (["scan", "--grid", "1/3,2/5", "--bisect-tol", "0"], {}),
    (_FLOW + ["--restriction", "nan"], {}),
    (_FLOW + ["--restriction", "-1"], {}),
    (["lin", "coeffs", "--alpha", "1/3", "--N", "4", "--family", "flow", "--chi", "nan"], {}),
    (["brjuno", "--alpha", "[0;(1)]", "--tol", "-1"], {}),
    (["brjuno", "--alpha", "[0;(1)]", "--tol", "nan"], {}),
    (["probe", "main-lemma", "--pq", "1/2", "--N", "1", "--seed", "-1"], {}),
])
def test_nan_input_is_a_numeric_error(argv, env, capsys, monkeypatch):
    # a NaN must not reach the report: json.dumps would print the non-JSON
    # NaN; nor a tolerance at or below zero, which no bracket ever gets under
    for key, val in env.items():
        monkeypatch.setenv(key, val)
    previous = signal.signal(signal.SIGALRM, _no_return)
    signal.alarm(60)
    try:
        code, out, err = run_cli(argv, capsys)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
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
])
def test_bad_construct_and_cond_bdd_input_fails_before_any_work(argv, monkeypatch, capsys):
    # neither a linearization nor the Lipschitz estimate runs first
    monkeypatch.setattr(scan, "linearizations", _refuse)
    monkeypatch.setattr(cli, "lipschitz_estimate", _refuse)
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("DomainError:")


# With c_2 = 3 the flow germs have numerical poles at rationals: 23 of the
# 47 series of this grid stop before lin_order 48, so the lock-step batches
# of a scan chunk mix full and truncated series.  The digest is that of the
# CSV the per-germ recursion wrote.
_FLOW_SCAN = ["scan", "--family", "flow", "--chi", "3", "--grid", "farey:Q=12",
              "--format", "csv"]
_FLOW_SCAN_SHA256 = "4b0bebb90a62dcae79aa3c252dd4c1d012e47101235a07ba38b3730660d1d487"


def test_flow_scan_csv_is_worker_independent_and_pinned(capsys):
    runs = [run_cli(_FLOW_SCAN + ["--workers", w], capsys) for w in ("1", "2")]
    assert runs[0] == runs[1] and runs[0][0] == 0
    assert hashlib.sha256(runs[0][1].encode()).hexdigest() == _FLOW_SCAN_SHA256
    grid = farey_fractions(12)
    phis = linearizations([FlowFamily([3.0]).at(a, 32) for a in grid], 48,
                          allow_rational=True, on_failure="truncate")
    assert (len(grid), sum(phi.order < 48 for phi in phis)) == (47, 23)


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
    plot = tmp_path / "plot.dat"
    code, _, _ = run_cli(["scan", "--family", "quadratic", "--grid", "farey:Q=6",
                          "--format", "csv", "--max-iter", "150",
                          "--out", str(out_file), "--plot-data", str(plot),
                          "--manifest", str(tmp_path / "man.json")], capsys)
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("# schema: scanrow/2\n")
    assert "# manifest: " in text and "# config: c1=1.0" in text
    with open(out_file) as fh:
        rows = skio.load_scan_csv(fh)
    grid_size = len([1 for line in text.splitlines() if not line.startswith("#")]) - 1
    assert len(rows) == grid_size
    assert all(r.max_iter == 150 for r in rows if r.method == "escape")
    man = json.loads((tmp_path / "man.json").read_text())
    assert man["outputs"] == {str(out_file): skio.file_sha256(str(out_file)),
                              str(plot): skio.file_sha256(str(plot))}
    assert len(plot.read_text().splitlines()) == len(rows)


def test_scan_digest_names_the_argv_run(tmp_path, capsys):
    # in-process scans over different grids: each digest hashes its own argv
    digests = []
    for grid in ("farey:Q=3", "farey:Q=4"):
        man = tmp_path / "man.json"
        argv = ["scan", "--family", "quadratic", "--grid", grid, "--format", "csv",
                "--max-iter", "50", "--manifest", str(man)]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        digest = json.loads(man.read_text())["digest"]
        assert digest == skio.invocation_digest(argv, DEFAULT_CONFIG, 0)
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
    data = json.loads(out)
    assert data["error"] < 1e-6
    lines = trace.read_text().splitlines()
    assert lines[0] == "step,re,im,in_U"
    assert len(lines) > 2
    assert json.loads(man.read_text())["outputs"] == {
        str(trace): skio.file_sha256(str(trace))}


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
    ["probe", "degenerate", "--family", "rotation", "--t", "[0;(1)]"],
    ["probe", "cond-bdd", "--family", "rotation", "--alpha", "[0;(1)]", "--K", "2"],
])
def test_every_json_report_echoes_config(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    assert json.loads(out)["config"] == format_config(DEFAULT_CONFIG)


def test_lift_h_cli(capsys):
    code, out, _ = run_cli(["lift", "h", "--family", "rotation",
                            "--alpha", "[0;(1)]", "--N", "32"], capsys)
    data = json.loads(out)
    assert data["h_estimate"] == 0.0
    assert data["r_floor"] == 1.0


def test_probe_degenerate_cli(capsys):
    code, out, _ = run_cli(["probe", "degenerate", "--family", "flow", "--chi", "1",
                            "--t", "[0;(1)],[0;(2)]", "--K", "7"], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["degenerate_flag"] is True


def test_probe_degenerate_needs_no_lipschitz_estimate(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("probe degenerate must not estimate K")

    monkeypatch.setattr("siegelkit.cli.lipschitz_estimate", refuse)
    code, out, _ = run_cli(["probe", "degenerate", "--family", "flow", "--chi", "1",
                            "--t", "[0;(1)]"], capsys)
    assert code == 0
    assert "degenerate_flag" in json.loads(out)


@pytest.mark.parametrize("argv,flag", [
    (["scan", "--grid", "1/3"], "--out"),
    (["scan", "--grid", "1/3"], "--plot-data"),
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


def test_config_file_flows_through(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("c1 = 4.0\n")
    code, out, _ = run_cli(["const", "C", "--K", "1", "--q", "1",
                            "--config", str(cfgfile)], capsys)
    data = json.loads(out)
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
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
