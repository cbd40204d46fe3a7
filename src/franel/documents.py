"""Serialization of operators and certificates (schema version 1).

Integers are stored as decimal strings so coefficients of any size
round-trip losslessly through JSON; native JSON numbers would already
corrupt the certificates at moderate powers.
"""

from __future__ import annotations

import json
import os
import re
import time

from .bipoly import BiPoly, RatFunc
from .errors import DocumentError
from .intpoly import IntPoly
from .operators import Certificate, RecurrenceOperator

SCHEMA_VERSION = 1
TOOL_VERSION = "0.1.0"

_DECIMAL = re.compile(r"-?[0-9]+")

# the largest power of n or k a certificate record may carry.  The s=12
# document's largest is 130 (of n); a record at (256, 256) added to the
# s=3 document's certificate still fails verification within 4 s, while
# an exponent of 3,000,000 ran past 20 s and one of 10^12 exhausted memory,
# because each column is stored densely
MAX_EXPONENT = 256


def timestamp() -> str:
    """ISO timestamp; honors SOURCE_DATE_EPOCH for reproducible output.

    Raises DocumentError when SOURCE_DATE_EPOCH is set but is not a Unix
    time that a timestamp can spell.
    """
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        t = time.gmtime(int(epoch) if epoch else int(time.time()))
    except (ValueError, OverflowError, OSError) as exc:
        raise DocumentError("SOURCE_DATE_EPOCH=%r is not a Unix time: %s"
                            % (epoch, exc)) from exc
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", t)


def _is_int(value) -> bool:
    """A JSON integer; bool is a subclass of int in Python."""
    return isinstance(value, int) and not isinstance(value, bool)


def _decimal(text) -> int:
    """The integer a stored decimal string spells: ASCII digits with an
    optional leading minus, nothing else."""
    if not isinstance(text, str) or not _DECIMAL.fullmatch(text):
        raise DocumentError("coefficient %r is not a decimal string"
                            % (text,))
    return int(text)


def intpoly_to_json(p: IntPoly):
    return [str(c) for c in p.coeffs]


def intpoly_from_json(data) -> IntPoly:
    if not isinstance(data, list):
        raise DocumentError("polynomial must be a list of decimal strings")
    return IntPoly([_decimal(c) for c in data])


def bipoly_to_json(p: BiPoly):
    out = []
    for (dn, dk), c in sorted(p.terms.items()):
        out.append([str(c), dn, dk])
    return out


def bipoly_from_json(data) -> BiPoly:
    """One pass: each record is checked and stored in the dense column of
    its power of k; a filled slot is a duplicate (none holds a zero)."""
    if not isinstance(data, list):
        raise DocumentError("bivariate polynomial must be a list of records")
    cols = []
    for rec in data:
        if (not isinstance(rec, list) or len(rec) != 3
                or not _is_int(rec[1]) or not _is_int(rec[2])
                or rec[1] < 0 or rec[2] < 0):
            raise DocumentError("bad monomial record %r" % (rec,))
        dn, dk = rec[1], rec[2]
        if dn > MAX_EXPONENT or dk > MAX_EXPONENT:
            raise DocumentError("monomial exponent above %d in %r"
                                % (MAX_EXPONENT, rec))
        coef = _decimal(rec[0])
        if coef == 0:
            raise DocumentError("zero coefficient stored in %r" % (rec,))
        if dk >= len(cols):
            cols.extend([] for _ in range(dk + 1 - len(cols)))
        col = cols[dk]
        if dn >= len(col):
            col.extend([0] * (dn + 1 - len(col)))
        elif col[dn]:
            raise DocumentError("duplicate monomial %r" % (rec,))
        col[dn] = coef
    return BiPoly.from_kpoly([IntPoly(c) for c in cols])


def operator_document(s: int, op: RecurrenceOperator, cert: Certificate,
                      r_max: int, stamp: str) -> dict:
    """The document of an operator; `stamp` is its `timestamp()`."""
    return {
        "schema_version": SCHEMA_VERSION,
        "s": s,
        "order": op.order,
        "coeffs": [intpoly_to_json(c) for c in op.coeffs],
        "certificate": {
            "num": bipoly_to_json(cert.ratio.num),
            "den": bipoly_to_json(cert.ratio.den),
        },
        "provenance": {
            "tool_version": TOOL_VERSION,
            "timestamp": stamp,
            "r_max": r_max,
        },
    }


def document_bytes(doc: dict) -> bytes:
    """The one JSON encoding of documents, and of the `compute` tables and
    `telescope` summaries: sorted keys, indent 2, a final newline."""
    return (json.dumps(doc, sort_keys=True, indent=2,
                       separators=(",", ": ")) + "\n").encode("utf-8")


def parse_operator_document(raw: bytes):
    """Validate and decode a document; returns (s, operator, certificate,
    provenance dict).  Raises DocumentError on any schema violation."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DocumentError("not valid JSON: %s" % exc) from exc
    except RecursionError as exc:
        raise DocumentError("not valid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    version = doc.get("schema_version")
    if not _is_int(version) or version != SCHEMA_VERSION:
        raise DocumentError("unsupported schema_version %r" % (version,))
    s = doc.get("s")
    if not _is_int(s) or s < 1:
        raise DocumentError("field s must be a positive integer")
    coeffs = doc.get("coeffs")
    if not isinstance(coeffs, list) or not coeffs:
        raise DocumentError("field coeffs must be a nonempty list")
    polys = tuple(intpoly_from_json(c) for c in coeffs)
    order = doc.get("order")
    if not _is_int(order) or order != len(polys) - 1:
        raise DocumentError("order field disagrees with coefficient count")
    try:
        op = RecurrenceOperator(polys)
    except ValueError as exc:
        raise DocumentError("invalid operator: %s" % exc) from exc
    cert_data = doc.get("certificate")
    if not isinstance(cert_data, dict):
        raise DocumentError("certificate must be an object")
    for part in ("num", "den"):
        if part not in cert_data:
            raise DocumentError("certificate lacks the field %s" % part)
    num = bipoly_from_json(cert_data["num"])
    den = bipoly_from_json(cert_data["den"])
    if den.is_zero:
        raise DocumentError("certificate denominator is zero")
    cert = Certificate(RatFunc(num, den))
    prov = doc.get("provenance")
    if not isinstance(prov, dict):
        raise DocumentError("provenance must be an object")
    return s, op, cert, prov
