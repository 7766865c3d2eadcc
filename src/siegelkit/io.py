"""Serialization, schema versioning, and the reproducibility manifest.

Every JSON report goes through :func:`report_json`, which echoes the active
configuration.  Artifacts carry a schema tag ("name/version"); loaders refuse
another tag or a body that does not fit it with :class:`SchemaMismatch` and
guess no migration.  Exact values are text ("p/q", "(a+b*sqrt(d))/c"); floats
use ``repr`` (bit-exact round-trips), and JSON writes inf and NaN as text.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, TextIO, get_type_hints

from .bounds import ConstantConfig, format_config
from .cf import format_exact, parse_exact
from .errors import SchemaMismatch
from .surd import to_float

try:  # the interpreter's own SHA-256: hashlib would load OpenSSL for one digest
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

if TYPE_CHECKING:
    from .germs import LiftMap
    from .renorm import RenormReport
    from .scan import ConstructionState, ScanRow

# The loaders import the numeric modules whose records they build, so that a
# command that only writes a report does not load numpy.

__all__ = [
    "report_json",
    "SCAN_SCHEMA",
    "emit_scan_csv",
    "load_scan_csv",
    "scan_rows_json",
    "renorm_report_json",
    "load_renorm_report",
    "construction_states_json",
    "load_construction_states",
    "lift_json",
    "load_lift",
    "manifest_json",
    "invocation_digest",
    "file_sha256",
]

def _json_safe(x):
    """``x`` with each non-finite float as its text, which ``float`` reads back."""
    if isinstance(x, (dict, list, tuple)):
        return ({k: _json_safe(v) for k, v in x.items()} if isinstance(x, dict)
                else [_json_safe(v) for v in x])
    return repr(float(x)) if isinstance(x, float) and not math.isfinite(x) else x


def report_json(data: dict, cfg: ConstantConfig) -> str:
    """The one JSON report layout: ``data`` plus the active configuration
    echo under ``config``, keys sorted, one-space indent, strict JSON."""
    return json.dumps(_json_safe({**data, "config": format_config(cfg)}),
                      indent=1, sort_keys=True, allow_nan=False)


@contextmanager
def _body(what: str):
    """Turn a missing key, a wrong type or count, or a bad number into SchemaMismatch."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaMismatch(f"malformed {what}: {exc!r}") from None


SCAN_SCHEMA = "scanrow/2"
SCAN_HEADER = ["alpha_text", "alpha_float", "r_lower", "r_upper", "method", "max_iter"]


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_scan_csv(rows: Sequence[ScanRow], fh: TextIO,
                  comments: Optional[Dict[str, str]] = None) -> None:
    """Schema-stamped CSV; comment lines first, then the mandatory header."""
    fh.write(f"# schema: {SCAN_SCHEMA}\n")
    for key, val in (comments or {}).items():
        fh.write(f"# {key}: {val}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(SCAN_HEADER)
    for r in rows:
        writer.writerow([r.alpha_text, _fmt(r.alpha_float), _fmt(r.r_lower),
                         _fmt(r.r_upper), r.method, str(r.max_iter)])


def load_scan_csv(fh: TextIO) -> List[ScanRow]:
    from .scan import ScanRow

    schema_seen = None
    rows: List[ScanRow] = []
    header_seen = False
    for line in fh:
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("schema:"):
                schema_seen = body.split(":", 1)[1].strip()
            continue
        cells = next(csv.reader([line]))
        if not header_seen:
            if cells != SCAN_HEADER:
                raise SchemaMismatch(f"bad header: {cells}")
            if schema_seen != SCAN_SCHEMA:
                raise SchemaMismatch(
                    f"schema {schema_seen!r} needs explicit migration to {SCAN_SCHEMA!r}")
            header_seen = True
            continue
        if not cells:
            continue
        with _body("scan row"):
            text, alpha, lower, upper, method, max_iter = cells
            rows.append(ScanRow(alpha_text=text, alpha_float=float(alpha),
                                r_lower=float(lower), r_upper=float(upper),
                                method=method, max_iter=int(max_iter)))
    if not header_seen:
        raise SchemaMismatch("missing header")
    return rows


def scan_rows_json(rows: Sequence[ScanRow], cfg: ConstantConfig) -> str:
    return report_json({"schema": SCAN_SCHEMA,
                        "rows": [dataclasses.asdict(r) for r in rows]}, cfg)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

RENORM_SCHEMA = "renorm-report/2"


def renorm_report_json(rep: RenormReport, cfg: ConstantConfig) -> str:
    return report_json({**dataclasses.asdict(rep), "schema": RENORM_SCHEMA}, cfg)


def load_renorm_report(text: str) -> RenormReport:
    from .renorm import RenormReport

    with _body("renorm report"):
        data = json.loads(text)
        if data.get("schema") != RENORM_SCHEMA:
            raise SchemaMismatch("not a renorm report")
        return RenormReport(**{name: kind(data[name])
                               for name, kind in get_type_hints(RenormReport).items()})


CONSTRUCTION_SCHEMA = "construction/1"


def construction_states_json(states: Sequence[ConstructionState],
                             cfg: ConstantConfig) -> str:
    items = [{
        "stage": st.stage,
        "theta": format_exact(st.theta),
        "theta_float": to_float(st.theta),
        "rho": st.rho,
        "rho_sched": st.rho_sched,
        "rho_target": st.rho_target,
        "interval": [f"{st.interval[0].numerator}/{st.interval[0].denominator}",
                     f"{st.interval[1].numerator}/{st.interval[1].denominator}"],
        "deriv_gaps": list(st.deriv_gaps),
        "thresholds": list(st.thresholds),
        "k_chosen": st.k_chosen,
        "diagnostics": st.diagnostics,
    } for st in states]
    return report_json({"schema": CONSTRUCTION_SCHEMA, "states": items}, cfg)


def load_construction_states(text: str) -> List[ConstructionState]:
    from .scan import ConstructionState

    with _body("construction artifact"):
        data = json.loads(text)
        if data.get("schema") != CONSTRUCTION_SCHEMA:
            raise SchemaMismatch("not a construction artifact")
        out = []
        for item in data["states"]:
            lo, hi = item["interval"]
            out.append(ConstructionState(
                stage=item["stage"], theta=parse_exact(item["theta"]),
                rho=float(item["rho"]), rho_sched=float(item["rho_sched"]),
                rho_target=float(item["rho_target"]),
                interval=(Fraction(lo), Fraction(hi)),
                deriv_gaps=[float(g) for g in item["deriv_gaps"]],
                thresholds=[float(t) for t in item["thresholds"]],
                k_chosen=item["k_chosen"], diagnostics=item.get("diagnostics", "")))
    return out


# ---------------------------------------------------------------------------
# lifts
# ---------------------------------------------------------------------------

LIFT_SCHEMA = "lift/1"


def lift_json(L: LiftMap, cfg: ConstantConfig) -> str:
    return report_json({
        "schema": LIFT_SCHEMA,
        "alpha": L.alpha,
        "alpha_exact": None if L.alpha_exact is None else format_exact(L.alpha_exact),
        "h_coeffs": [[c.real, c.imag] for c in L.h_coeffs],
    }, cfg)


def load_lift(text: str) -> LiftMap:
    import numpy as np

    from .germs import LiftMap

    with _body("lift artifact"):
        data = json.loads(text)
        if data.get("schema") != LIFT_SCHEMA:
            raise SchemaMismatch("not a lift artifact")
        h = np.array([complex(float(re), float(im)) for re, im in data["h_coeffs"]],
                     dtype=np.complex128)
        ae = data.get("alpha_exact")
        return LiftMap(alpha=float(data["alpha"]), h_coeffs=h,
                       alpha_exact=None if ae is None else parse_exact(ae))


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


def file_sha256(path: str) -> str:
    h = _sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


_EXECUTION_FLAGS = ("--workers", "--out", "--manifest", "--trace", "--plot-data")


def _semantic_cmdline(cmdline: Sequence[str]) -> List[str]:
    """Drop execution-only flags (worker count, output paths) so the digest
    names the work, not the scheduling or where results land; ``--opt=value``
    counts as ``--opt value``."""
    out: List[str] = []
    skip = False
    for tok in cmdline:
        for part in tok.split("=", 1) if tok.startswith("--") else (tok,):
            if skip:
                skip = False
            elif part in _EXECUTION_FLAGS:
                skip = True
            else:
                out.append(part)
    return out


def invocation_digest(cmdline: Sequence[str], cfg: ConstantConfig) -> str:
    """Identity of an invocation; timestamps, worker counts and output hashes
    stay outside so reruns with the same manifest reproduce identical bytes."""
    payload = json.dumps({"cmdline": _semantic_cmdline(cmdline),
                          "config": format_config(cfg)}, sort_keys=True)
    return _sha256(payload.encode()).hexdigest()[:16]


def manifest_json(cmdline: Sequence[str], cfg: ConstantConfig,
                  outputs: Dict[str, str]) -> str:
    """The run manifest (``manifest/2``): the command line, the configuration,
    a UTC timestamp, the SHA-256 of each output file and the invocation digest."""
    return json.dumps({"schema": "manifest/2", "cmdline": list(cmdline),
                       "config": dataclasses.asdict(cfg),
                       "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                       "outputs": dict(outputs), "digest": invocation_digest(cmdline, cfg)},
                      indent=1, sort_keys=True)
