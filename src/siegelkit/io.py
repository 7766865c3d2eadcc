"""Serialization, schema versioning, and the reproducibility manifest.

Every JSON report goes through :func:`report_json`, which echoes the active
configuration.  Artifacts carry a schema tag ("name/version"); loaders refuse
another tag or a body that does not fit it with :class:`SchemaMismatch` and
guess no migration.  The fields of a JSON record are written and read by one
codec keyed by their annotations: exact values are text ("p/q",
"(a+b*sqrt(d))/c"), floats use ``repr`` (bit-exact round-trips) with inf and
NaN as text, and a loader takes no JSON type but the field's own.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence, TextIO, Tuple,
                    get_type_hints)

from .bounds import ConstantConfig, format_config
from .cf import format_exact, parse_exact
from .errors import SchemaMismatch
from .surd import ExactReal, to_float

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
    "report_json", "SCAN_SCHEMA", "emit_scan_csv", "load_scan_csv", "scan_rows_json",
    "renorm_report_json", "load_renorm_report",
    "construction_states_json", "load_construction_states",
    "lift_json", "load_lift",
    "manifest_json", "invocation_digest", "file_sha256",
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
    return report_json({"schema": SCAN_SCHEMA, "rows": [_encode(r) for r in rows]}, cfg)


# ---------------------------------------------------------------------------
# JSON records: one field codec, chosen by each field's annotation
# ---------------------------------------------------------------------------

RENORM_SCHEMA = "renorm-report/2"
CONSTRUCTION_SCHEMA = "construction/1"
LIFT_SCHEMA = "lift/1"


def _want(v, kind):
    """``v`` if it is a JSON value of ``kind``; a bool is no number."""
    if isinstance(v, bool) or not isinstance(v, kind):
        raise TypeError(f"{v!r} is not of {kind}")
    return v


def _real(v) -> float:
    """A float field: a number, or the text ``_json_safe`` writes for a non-finite one."""
    return float(v if v in ("inf", "-inf", "nan") else _want(v, (int, float)))


def _pair(v) -> tuple:
    lo, hi = _want(v, list)
    return lo, hi


@functools.lru_cache(maxsize=None)
def _fields(cls) -> tuple:
    """(name, encode, decode) for each field of the record class ``cls``;
    each decoder refuses every JSON type but its own."""
    import numpy as np  # loaded already: every record class lives in a numeric module

    same = lambda x: x  # noqa: E731 -- report_json writes these as they are
    exact = lambda v: parse_exact(_want(v, str))  # noqa: E731
    kinds = {
        float: (same, _real),
        int: (same, lambda v: _want(v, int)),
        str: (same, lambda v: _want(v, str)),
        ExactReal: (format_exact, exact),
        Optional[ExactReal]: (lambda x: None if x is None else format_exact(x),
                              lambda v: None if v is None else exact(v)),
        Tuple[Fraction, Fraction]: (
            lambda iv: [f"{f.numerator}/{f.denominator}" for f in iv],
            lambda v: tuple(Fraction(_want(t, str)) for t in _pair(v))),
        List[float]: (list, lambda v: [_real(x) for x in _want(v, list)]),
        np.ndarray: (lambda a: [[c.real, c.imag] for c in a],  # complex coefficients
                     lambda v: np.array([complex(*map(_real, _pair(p))) for p in _want(v, list)],
                                        dtype=np.complex128)),
    }
    return tuple((name, *kinds[hint]) for name, hint in get_type_hints(cls).items())


def _encode(rec) -> dict:
    return {name: enc(getattr(rec, name)) for name, enc, _ in _fields(type(rec))}


def _decode(cls, item):
    return cls(**{name: dec(item[name]) for name, _, dec in _fields(cls)})


def _load(text: str, schema: str, what: str, decode):
    """``decode`` of the body of an artifact tagged ``schema``."""
    with _body(what):
        data = json.loads(text)
        if not isinstance(data, dict) or data.get("schema") != schema:
            raise SchemaMismatch(f"not a {what}")
        return decode(data)


def renorm_report_json(rep: RenormReport, cfg: ConstantConfig) -> str:
    return report_json({**_encode(rep), "schema": RENORM_SCHEMA}, cfg)


def load_renorm_report(text: str) -> RenormReport:
    from .renorm import RenormReport

    return _load(text, RENORM_SCHEMA, "renorm report", lambda d: _decode(RenormReport, d))


def construction_states_json(states: Sequence[ConstructionState],
                             cfg: ConstantConfig) -> str:
    items = [{**_encode(st), "theta_float": to_float(st.theta)} for st in states]
    return report_json({"schema": CONSTRUCTION_SCHEMA, "states": items}, cfg)


def load_construction_states(text: str) -> List[ConstructionState]:
    from .scan import ConstructionState

    return _load(text, CONSTRUCTION_SCHEMA, "construction artifact", lambda d: [
        _decode(ConstructionState, item) for item in _want(d["states"], list)])


def lift_json(L: LiftMap, cfg: ConstantConfig) -> str:
    return report_json({**_encode(L), "schema": LIFT_SCHEMA}, cfg)


def load_lift(text: str) -> LiftMap:
    from .germs import LiftMap

    return _load(text, LIFT_SCHEMA, "lift artifact", lambda d: _decode(LiftMap, d))


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
