import hashlib
import io
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from siegelkit import io as skio
from siegelkit.bounds import DEFAULT_CONFIG
from siegelkit.errors import SchemaMismatch
from siegelkit.germs import LiftMap
from siegelkit.renorm import RenormReport
from siegelkit.scan import ConstructionState, ScanRow
from siegelkit.surd import QuadraticIrrational


def random_rows(n, seed=0):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        out.append(ScanRow(
            alpha_text=f"{rng.randint(0, 99)}/{rng.randint(1, 99)}",
            alpha_float=rng.random(),
            r_lower=rng.random(),
            r_upper=rng.random() + 1.0 if rng.random() < 0.9 else math.inf,
            method=rng.choice(["escape", "hadamard", "escape:error:OverflowGuard"]),
            max_iter=rng.randint(0, 10**6)))
    return out


def test_scan_csv_roundtrip_100_random():
    rows = random_rows(100)
    buf = io.StringIO()
    skio.emit_scan_csv(rows, buf, comments={"manifest": "abc123", "config": "c1=1.0"})
    buf.seek(0)
    assert skio.load_scan_csv(buf) == rows


def test_scan_csv_header_mandatory():
    with pytest.raises(SchemaMismatch):
        skio.load_scan_csv(io.StringIO("# schema: scanrow/2\nwrong,header\n1,2\n"))
    with pytest.raises(SchemaMismatch):
        skio.load_scan_csv(io.StringIO(""))


def test_scan_csv_version_bump_is_explicit_error():
    rows = random_rows(3, seed=1)
    buf = io.StringIO()
    skio.emit_scan_csv(rows, buf)
    text = buf.getvalue().replace("scanrow/2", "scanrow/1")
    with pytest.raises(SchemaMismatch) as exc:
        skio.load_scan_csv(io.StringIO(text))
    assert "migration" in str(exc.value)


def test_scan_csv_fuzzed_headers_never_parse_silently(BOUND=25):
    rng = random.Random(9)
    base_rows = random_rows(2, seed=2)
    buf = io.StringIO()
    skio.emit_scan_csv(base_rows, buf)
    base = buf.getvalue()
    header_line = [l for l in base.splitlines() if l.startswith("alpha_text")][0]
    for _ in range(BOUND):
        chars = list(header_line)
        pos = rng.randrange(len(chars))
        chars[pos] = rng.choice("abcxyz_#!")
        mutated = base.replace(header_line, "".join(chars))
        if mutated == base:
            continue
        with pytest.raises(SchemaMismatch):
            skio.load_scan_csv(io.StringIO(mutated))


def test_scan_json_shape():
    rows = random_rows(5, seed=3)
    data = json.loads(skio.scan_rows_json(rows, DEFAULT_CONFIG))
    assert data["schema"] == "scanrow/2"
    assert len(data["rows"]) == 5


def _report(**changes):
    fields = dict(measured_alpha_prime=-1.618, expected_alpha_prime=-1.618,
                  error=1e-13, y0=0.4, y1=0.5, y2=1.2,
                  single_pass_violations=0, budget_violations=0,
                  undefined_returns=0, n_returns=1000, im_drift=0.0,
                  diagnostics="")
    return RenormReport(**{**fields, **changes})


def test_renorm_report_roundtrip():
    rep = _report()
    text = skio.renorm_report_json(rep, DEFAULT_CONFIG)
    assert json.loads(text)["schema"] == "renorm-report/2"
    assert "H0_estimate" not in text
    assert skio.load_renorm_report(text) == rep
    with pytest.raises(SchemaMismatch):
        skio.load_renorm_report(text.replace("renorm-report/2", "other/9"))
    # a /1 report, which carried H0_estimate, is refused rather than read as /2
    old = json.loads(text)
    old.update(schema="renorm-report/1", H0_estimate=0.15)
    with pytest.raises(SchemaMismatch, match="not a renorm report"):
        skio.load_renorm_report(json.dumps(old))


def test_report_json_writes_non_finite_floats_as_text():
    rep = _report(error=math.inf, im_drift=-math.inf, measured_alpha_prime=math.nan)
    text = skio.renorm_report_json(rep, DEFAULT_CONFIG)
    data = json.loads(text, parse_constant=_not_json)
    assert (data["error"], data["im_drift"], data["measured_alpha_prime"]) == ("inf", "-inf", "nan")
    back = skio.load_renorm_report(text)
    assert (back.error, back.im_drift) == (math.inf, -math.inf)
    assert math.isnan(back.measured_alpha_prime)
    nested = skio.report_json({"a": [np.float64(-np.inf), (1.5, math.nan)], "b": {"c": math.inf}},
                              DEFAULT_CONFIG)
    assert json.loads(nested, parse_constant=_not_json)["a"] == ["-inf", [1.5, "nan"]]
    assert json.loads(nested)["b"] == {"c": "inf"}


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


def test_renorm_report_with_missing_fields_is_a_schema_mismatch():
    data = json.loads(skio.renorm_report_json(_report(), DEFAULT_CONFIG))
    del data["y2"]
    with pytest.raises(SchemaMismatch, match="y2"):
        skio.load_renorm_report(json.dumps(data))
    with pytest.raises(SchemaMismatch):
        skio.load_renorm_report(json.dumps({**data, "y2": 1.0, "y0": "high"}))
    with pytest.raises(SchemaMismatch):
        skio.load_renorm_report("[1, 2]")


def _scan_csv_with_row(row):
    buf = io.StringIO()
    skio.emit_scan_csv(random_rows(2, seed=4), buf)
    return io.StringIO(buf.getvalue() + row + "\n")


@pytest.mark.parametrize("row", [
    "1/3,0.3333333333333333,0.1,0.2,escape",              # 5 cells
    "1/3,0.3333333333333333,0.1,0.2,escape,300,extra",    # 7 cells
    "1/3,0.3333333333333333,x,0.2,escape,300",            # r_lower is no number
    "1/3,0.3333333333333333,0.1,0.2,escape,3.5",          # max_iter is no integer
])
def test_malformed_scan_row_is_a_schema_mismatch(row):
    with pytest.raises(SchemaMismatch):
        skio.load_scan_csv(_scan_csv_with_row(row))
    assert len(skio.load_scan_csv(_scan_csv_with_row(""))) == 2


def test_malformed_lift_is_a_schema_mismatch():
    L = LiftMap(alpha=0.618, h_coeffs=np.array([0.1 + 0.2j, 0.05j]), alpha_exact=None)
    data = json.loads(skio.lift_json(L, DEFAULT_CONFIG))
    for h in ([[1]], [[1, 2, 3]], [["x", 0.0]], 5):
        with pytest.raises(SchemaMismatch):
            skio.load_lift(json.dumps({**data, "h_coeffs": h}))
    with pytest.raises(SchemaMismatch):
        skio.load_lift(json.dumps({**data, "alpha_exact": "1/0"}))


def test_construction_state_without_interval_is_a_schema_mismatch():
    text = skio.construction_states_json([_state()], DEFAULT_CONFIG)
    data = json.loads(text)
    del data["states"][0]["interval"]
    with pytest.raises(SchemaMismatch, match="interval"):
        skio.load_construction_states(json.dumps(data))


def _state():
    return ConstructionState(
        stage=1, theta=QuadraticIrrational(-1, 1, 2, 5), rho=0.31,
        rho_sched=0.22, rho_target=0.15,
        interval=(Fraction(3, 8), Fraction(7, 8)),
        deriv_gaps=[0.01, 0.002], thresholds=[0.5, 0.25], k_chosen=2,
        diagnostics="k=2")


def test_construction_roundtrip():
    st = _state()
    text = skio.construction_states_json([st], DEFAULT_CONFIG)
    back = skio.load_construction_states(text)[0]
    assert back.theta == st.theta
    assert back.interval == st.interval
    assert back.deriv_gaps == st.deriv_gaps
    assert back.rho_sched == st.rho_sched


def _lift(**changes):
    fields = dict(alpha=0.618, h_coeffs=np.array([0.1 + 0.2j, 0.05j]), alpha_exact=Fraction(2, 5))
    return LiftMap(**{**fields, **changes})


# each loader with a record text it reads back
_RECORDS = [
    (skio.load_renorm_report, lambda: skio.renorm_report_json(_report(), DEFAULT_CONFIG), None),
    (skio.load_construction_states,
     lambda: skio.construction_states_json([_state()], DEFAULT_CONFIG), "states"),
    (skio.load_lift, lambda: skio.lift_json(_lift(), DEFAULT_CONFIG), None),
]


def _record(data, key):
    """The one record of an artifact's body: the body, or its first list item."""
    return data if key is None else data[key][0]


@pytest.mark.parametrize("load,text,key", _RECORDS)
def test_every_field_is_required(load, text, key):
    data = json.loads(text())
    names = set(_record(data, key)) - {"schema", "config", "theta_float"}
    assert len(names) >= 3
    for name in names:
        broken = json.loads(text())
        del _record(broken, key)[name]
        with pytest.raises(SchemaMismatch, match=name):
            load(json.dumps(broken))


@pytest.mark.parametrize("load,field,value", [
    # float: a number or the text of inf, -inf or nan
    (skio.load_renorm_report, "y0", True),
    (skio.load_renorm_report, "y0", "0.4"),
    (skio.load_renorm_report, "y0", "Infinity"),
    (skio.load_renorm_report, "y0", None),
    (skio.load_renorm_report, "y0", [0.4]),
    # int: no bool, no float, no text
    (skio.load_renorm_report, "n_returns", 1000.0),
    (skio.load_renorm_report, "n_returns", False),
    (skio.load_renorm_report, "n_returns", "1000"),
    # str
    (skio.load_renorm_report, "diagnostics", None),
    (skio.load_renorm_report, "diagnostics", 0),
    # ExactReal and Optional[ExactReal]: text only
    (skio.load_construction_states, "theta", 0.618),
    (skio.load_construction_states, "theta", None),
    (skio.load_lift, "alpha_exact", 0.4),
    (skio.load_lift, "alpha_exact", ["2/5"]),
    # the interval: two texts
    (skio.load_construction_states, "interval", ["3/8"]),
    (skio.load_construction_states, "interval", ["3/8", "7/8", "1"]),
    (skio.load_construction_states, "interval", [0.375, "7/8"]),
    (skio.load_construction_states, "interval", "38"),
    # List[float]: a list of floats
    (skio.load_construction_states, "deriv_gaps", 0.01),
    (skio.load_construction_states, "deriv_gaps", ["0.01"]),
    (skio.load_construction_states, "deriv_gaps", {"0": 0.01}),
    # the complex array: a list of [re, im] pairs of floats
    (skio.load_lift, "h_coeffs", [[0.1, True]]),
    (skio.load_lift, "h_coeffs", [{"re": 0.1, "im": 0.2}]),
    (skio.load_lift, "h_coeffs", "[[0.1, 0.2]]"),
])
def test_a_field_of_another_json_type_is_refused(load, field, value):
    (_, text, key), = [r for r in _RECORDS if r[0] is load]
    data = json.loads(text())
    assert field in _record(data, key)
    _record(data, key)[field] = value
    with pytest.raises(SchemaMismatch):
        load(json.dumps(data))


def test_float_fields_take_integers_and_the_non_finite_texts():
    data = json.loads(skio.construction_states_json([_state()], DEFAULT_CONFIG))
    data["states"][0].update(rho=1, rho_sched="inf", deriv_gaps=["-inf", "nan", 0])
    back = skio.load_construction_states(json.dumps(data))[0]
    assert (back.rho, back.rho_sched, back.deriv_gaps[0]) == (1.0, math.inf, -math.inf)
    assert type(back.rho) is float and math.isnan(back.deriv_gaps[1])
    data = json.loads(skio.lift_json(_lift(alpha_exact=None), DEFAULT_CONFIG))
    assert data["alpha_exact"] is None
    assert skio.load_lift(json.dumps(data)).alpha_exact is None


def test_lift_roundtrip():
    L = LiftMap(alpha=0.618, h_coeffs=np.array([0.1 + 0.2j, 0.05j]),
                alpha_exact=Fraction(2, 5))
    back = skio.load_lift(skio.lift_json(L, DEFAULT_CONFIG))
    assert back.alpha == L.alpha
    assert np.array_equal(back.h_coeffs, L.h_coeffs)
    assert back.alpha_exact == Fraction(2, 5)


def test_invocation_digest_skips_worker_flag():
    d1 = skio.invocation_digest(["scan", "--grid", "farey:Q=8", "--workers", "1"],
                                DEFAULT_CONFIG)
    d2 = skio.invocation_digest(["scan", "--grid", "farey:Q=8", "--workers", "8"],
                                DEFAULT_CONFIG)
    d3 = skio.invocation_digest(["scan", "--grid", "farey:Q=9"], DEFAULT_CONFIG)
    assert d1 == d2 != d3


def test_invocation_digest_reads_opt_equals_value_as_its_space_form():
    space = skio.invocation_digest(["scan", "--grid", "1/3,2/5", "--format", "csv"],
                                   DEFAULT_CONFIG)
    assert space == "76fcb20a76da9f87"
    for argv in (["scan", "--grid=1/3,2/5", "--format=csv"],
                 ["scan", "--grid", "1/3,2/5", "--format", "csv", "--workers=2", "--out=x.csv"]):
        assert skio.invocation_digest(argv, DEFAULT_CONFIG) == space
    # a value may hold "=": only the first one ends the option's name
    assert (skio.invocation_digest(["lin", "--chi=a=b"], DEFAULT_CONFIG)
            == skio.invocation_digest(["lin", "--chi", "a=b"], DEFAULT_CONFIG))


def test_manifest_build(tmp_path):
    out = tmp_path / "x.csv"
    out.write_text("hello\n")
    data = json.loads(skio.manifest_json(["scan"], DEFAULT_CONFIG,
                                         {str(out): skio.file_sha256(str(out))}))
    assert data["schema"] == "manifest/2"
    assert "seed" not in data
    assert data["config"] == {"c1": 1.0, "c3": 1.0, "C_sqrt2": 1.0, "A": 2.0, "C1_glue": 1.0}
    assert data["digest"] == skio.invocation_digest(["scan"], DEFAULT_CONFIG)
    assert str(out) in data["outputs"]


def test_invocation_digest_is_the_sha256_of_its_payload():
    argv = ["scan", "--grid", "farey:Q=8", "--format", "csv", "--workers", "2", "--out", "x.csv"]
    payload = json.dumps({"cmdline": ["scan", "--grid", "farey:Q=8", "--format", "csv"],
                          "config": "c1=1.0 c3=1.0 C_sqrt2=1.0 A=2.0 C1_glue=1.0"},
                         sort_keys=True)
    digest = skio.invocation_digest(argv, DEFAULT_CONFIG)
    assert digest == hashlib.sha256(payload.encode()).hexdigest()[:16] == "d3d3e1b1c1ddca3b"


@pytest.mark.parametrize("size", [0, 1, 65535, 65536, 200_001])  # around the 64 KiB block
def test_file_sha256_matches_hashlib(size, tmp_path):
    data = random.Random(size).randbytes(size)
    path = tmp_path / "payload.bin"
    path.write_bytes(data)
    assert skio.file_sha256(str(path)) == hashlib.sha256(data).hexdigest()
