import json
import random
from pathlib import Path

import pytest

from franel import cli, operators, telescoper
from franel.bipoly import BiPoly, RatFunc
from franel.documents import (MAX_EXPONENT, bipoly_from_json, bipoly_to_json,
                              document_bytes, intpoly_from_json,
                              intpoly_to_json, operator_document,
                              parse_operator_document, timestamp)
from franel.errors import DocumentError
from franel.hyperterm import binom_power_term
from franel.intpoly import IntPoly
from franel.operators import Certificate, normalize_operator_coeffs
from franel.telescoper import zeilberger

REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs"


def rand_operator(rng):
    while True:
        coeffs = [IntPoly([rng.randint(-9, 9)
                           for _ in range(rng.randint(1, 4))])
                  for _ in range(rng.randint(1, 4))]
        if coeffs[-1].is_zero:
            continue
        try:
            return normalize_operator_coeffs(coeffs)[0]
        except ValueError:
            continue


def rand_certificate(rng):
    terms = {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-99, 99)
             for _ in range(rng.randint(1, 6))}
    num = BiPoly(terms)
    den = BiPoly({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, 9)
                  for _ in range(rng.randint(1, 4))})
    if den.is_zero:
        den = BiPoly.const(1)
    return Certificate(RatFunc(num if not num.is_zero else BiPoly.const(1),
                               den))


def test_roundtrip_random():
    rng = random.Random(4242)
    for _ in range(100):
        op = rand_operator(rng)
        cert = rand_certificate(rng)
        doc = operator_document(3, op, cert, 4, timestamp())
        s, op2, cert2, prov = parse_operator_document(document_bytes(doc))
        assert s == 3
        assert op2.coeffs == op.coeffs
        assert cert2.ratio == cert.ratio
        assert prov["r_max"] == 4


def test_huge_coefficients_roundtrip():
    big = 10 ** 120 + 7
    p = IntPoly((big, -big * 3, 1))
    assert intpoly_from_json(intpoly_to_json(p)) == p
    b = BiPoly({(5, 7): big, (0, 0): -1})
    assert bipoly_from_json(bipoly_to_json(b)) == b


def test_document_bytes_stable():
    op, cert = zeilberger(binom_power_term(2), 1)
    import os
    os.environ["SOURCE_DATE_EPOCH"] = "1700000000"
    try:
        d1 = document_bytes(
            operator_document(2, op, cert, 1, timestamp()))
        d2 = document_bytes(
            operator_document(2, op, cert, 1, timestamp()))
    finally:
        del os.environ["SOURCE_DATE_EPOCH"]
    assert d1 == d2
    assert d1.endswith(b"\n")
    # parse back and re-serialize: lossless
    s, op2, cert2, prov = parse_operator_document(d1)
    doc2 = operator_document(s, op2, cert2, prov["r_max"], timestamp())
    doc2["provenance"]["timestamp"] = json.loads(d1)["provenance"]["timestamp"]
    assert document_bytes(doc2) == d1


def _valid_doc_bytes():
    op, cert = zeilberger(binom_power_term(1), 1)
    return document_bytes(operator_document(1, op, cert, 1, timestamp()))


def test_parse_rejects_bad_documents():
    raw = _valid_doc_bytes()
    doc = json.loads(raw)

    def corrupted(**changes):
        bad = json.loads(raw)
        bad.update(changes)
        return json.dumps(bad).encode()

    with pytest.raises(DocumentError):
        parse_operator_document(b"not json at all")
    with pytest.raises(DocumentError):
        parse_operator_document(raw[:40])
    with pytest.raises(DocumentError):
        parse_operator_document(corrupted(schema_version=2))
    with pytest.raises(DocumentError):
        parse_operator_document(corrupted(s=0))
    with pytest.raises(DocumentError):
        parse_operator_document(corrupted(order=5))
    with pytest.raises(DocumentError):
        parse_operator_document(corrupted(coeffs=[]))
    bad = json.loads(raw)
    bad["certificate"]["den"] = []
    with pytest.raises(DocumentError):
        parse_operator_document(json.dumps(bad).encode())
    bad = json.loads(raw)
    bad["coeffs"][0] = ["zz"]
    with pytest.raises(DocumentError):
        parse_operator_document(json.dumps(bad).encode())
    # sanity: the pristine document still parses
    parse_operator_document(raw)
    assert doc["schema_version"] == 1


def _frozen(s):
    return json.loads((REFS / ("operator-s%d.json" % s)).read_bytes())


def test_parse_rejects_json_booleans_and_numbers():
    # True == 1 in Python, so a bare comparison reads "s": true as s = 1
    def rejected(s, edit):
        doc = _frozen(s)
        edit(doc)
        with pytest.raises(DocumentError):
            parse_operator_document(json.dumps(doc).encode())

    rejected(3, lambda d: d.update(s=True))
    rejected(3, lambda d: d.update(s=3.0))
    rejected(1, lambda d: d.update(order=True))
    rejected(3, lambda d: d.update(schema_version=True))
    rejected(3, lambda d: d["certificate"]["num"][0].__setitem__(1, True))
    rejected(3, lambda d: d["certificate"]["den"][0].__setitem__(2, 1.0))
    for coefficient in (1, True, 1.5, None, " 8", "+8", "8_0", "\u0668",
                        "-", ""):
        rejected(3, lambda d: d["coeffs"][0].__setitem__(0, coefficient))
        rejected(3, lambda d: d["certificate"]["num"][0].__setitem__(
            0, coefficient))
    for s in (1, 2, 3):
        assert parse_operator_document(
            json.dumps(_frozen(s)).encode())[0] == s


def test_parse_rejects_an_operator_with_a_common_factor():
    # the proof modulo p fails on coefficients times n + 1, and the content
    # pass it falls back to names the factor
    doc = _frozen(5)
    doc["coeffs"] = [intpoly_to_json(intpoly_from_json(c) * IntPoly((1, 1)))
                     for c in doc["coeffs"]]
    with pytest.raises(DocumentError, match="share the common factor"):
        parse_operator_document(json.dumps(doc).encode())


def test_exponents_above_the_cap_end_in_one_error_line(tmp_path, capsys):
    # an exponent of 10^12 was stored densely until memory ran out, one of
    # 3,000,000 ran verify past 20 s; both are refused before any fill
    for s in range(1, 8):
        records = [r for part in ("num", "den")
                   for r in _frozen(s)["certificate"][part]]
        assert max(max(r[1], r[2]) for r in records) <= MAX_EXPONENT // 4
    for part in ("num", "den"):
        for exponent in (MAX_EXPONENT + 1, 3000000, 10 ** 12):
            for record in (["1", exponent, 0], ["1", 0, exponent]):
                doc = _frozen(3)
                doc["certificate"][part].append(record)
                bad = tmp_path / "huge.json"
                bad.write_text(json.dumps(doc))
                assert cli.main(["verify", "--in", str(bad)]) == 2
                out, err = capsys.readouterr()
                assert out == ""
                assert err == ("error: invalid document: monomial exponent "
                               "above %d in %r\n" % (MAX_EXPONENT, record))
    # at the cap a record is read; the certificate then fails to verify
    doc = _frozen(3)
    doc["certificate"]["num"].append(["1", MAX_EXPONENT, MAX_EXPONENT])
    num = parse_operator_document(json.dumps(doc).encode())[2].ratio.num
    assert (num.deg_n, num.deg_k) == (MAX_EXPONENT, MAX_EXPONENT)


def test_frozen_documents_parse_and_audit_without_a_content_pass(
        monkeypatch):
    def no_content_pass(polys, g=None):
        raise AssertionError("poly_content reached without a failed proof")

    monkeypatch.setattr(operators, "poly_content", no_content_pass)
    monkeypatch.setattr(telescoper, "poly_content", no_content_pass)
    for s in range(1, 8):
        _, op, cert, _ = parse_operator_document(
            (REFS / ("operator-s%d.json" % s)).read_bytes())
        report = telescoper.analyze_structure(op, cert, s)
        assert report.integer_roots_of_denominator_in_n == ()


def test_tool_version_matches_package():
    import franel
    from franel.documents import TOOL_VERSION
    assert TOOL_VERSION == franel.__version__
