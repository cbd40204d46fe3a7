"""The frozen order-m table the row source reads, against the search it
replaced: the documents `telescope` writes, and the direct rows a broken
entry falls back to."""

import hashlib
import json
from pathlib import Path

import pytest

from franel import cli, sequences, telescoper
from franel.documents import parse_operator_document
from franel.hyperterm import binom_power_term
from franel.sequences import coefficient_row, coefficient_rows
from franel.telescoper import verify_certificate
from test_golden import GOLDEN, OPERATOR_DIGESTS

FROZEN = Path(sequences._FROZEN)


def test_table_holds_s_1_to_12():
    assert sorted(p.name for p in FROZEN.iterdir()) == \
        sorted("operator-s%d.json" % s for s in range(1, 13))
    # s = 8 is pinned below; CI re-solves s = 9..12 against these digests
    for s in range(9, 13):
        raw = (FROZEN / ("operator-s%d.json" % s)).read_bytes()
        assert hashlib.sha256(raw).hexdigest() == OPERATOR_DIGESTS[s]


@pytest.mark.parametrize("s", range(1, 8))
def test_entry_is_the_document_telescope_writes(s, tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    out = tmp_path / "operator.json"
    assert cli.main(["telescope", "--s", str(s), "--r-max", "4",
                     "--cache-dir", str(tmp_path / "cache"), "--out",
                     str(out)]) == 0
    capsys.readouterr()
    assert (FROZEN / ("operator-s%d.json" % s)).read_bytes() == \
        out.read_bytes()


def test_entry_s8_is_the_pinned_document():
    # test_golden pins a fresh `telescope --s 8 --r-max 5` to this digest
    raw = (FROZEN / "operator-s8.json").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == OPERATOR_DIGESTS[8]


def _truncated(raw):
    return raw[:len(raw) // 2]


def _c0_plus_one(raw):
    doc = json.loads(raw)
    doc["coeffs"][0][0] = str(int(doc["coeffs"][0][0]) + 1)
    return json.dumps(doc).encode()


def _other_s(raw):
    doc = json.loads(raw)
    doc["s"] = 5
    return json.dumps(doc).encode()


@pytest.mark.parametrize("damage", [_truncated, _c0_plus_one, _other_s,
                                    None],
                         ids=["truncated", "c0-plus-one", "other-s",
                              "missing"])
def test_broken_entry_falls_back_to_direct_rows(damage, tmp_path,
                                                monkeypatch):
    s, J, rows = 3, 1, (199, 200)
    name = "operator-s%d.json" % s
    if damage is not None:
        broken = damage((FROZEN / name).read_bytes())
        (tmp_path / name).write_bytes(broken)
        if damage is _c0_plus_one:
            # it parses, so the certificate check is what refuses it
            _, op, cert, _ = parse_operator_document(broken)
            assert not verify_certificate(binom_power_term(s), op, cert)
    monkeypatch.setattr(sequences, "_FROZEN", str(tmp_path))
    solved = []
    solve = telescoper.solve_at_order
    monkeypatch.setattr(telescoper, "solve_at_order",
                        lambda term, r: solved.append(r) or solve(term, r))
    assert sequences._order_m_telescoper(s) is None
    assert list(coefficient_rows(s, J, *rows)) == \
        [coefficient_row(s, n, J) for n in rows]
    assert solved == []


def _unreachable(*args):
    raise RuntimeError("a path that must not run ran")


@pytest.mark.parametrize("argv, proof", [
    ("compute --s 5 --n-max 80 --J 2 --format json", (5, 2)),
    ("limits --s 3 --n-max 2000 --J 1 --json", (3, 1)),
    ("demo-apery --n-max 40 --precision-bits 512", None),
])
def test_commands_run_without_the_search(argv, proof, tmp_path,
                                         monkeypatch, capsys):
    monkeypatch.setattr(telescoper, "solve_at_order", _unreachable)
    assert cli.main(argv.split()) == 0
    out = capsys.readouterr().out
    if proof is None:
        assert out == (GOLDEN / "demo-apery-n40-512.txt").read_text()
        return
    # rows by recursion (2J < s), and the same bytes from direct rows with
    # an empty table
    s, J = proof
    assert 2 * J < s
    monkeypatch.setattr(sequences, "_FROZEN", str(tmp_path))
    monkeypatch.setattr(sequences, "recursion_rows", _unreachable)
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr().out == out


def test_telescope_and_verify_never_read_the_table(tmp_path, monkeypatch,
                                                   capsys):
    def unread(s):
        raise AssertionError("the table was read")
    monkeypatch.setattr(sequences, "_order_m_telescoper", unread)
    solved = []
    solve = telescoper.solve_at_order
    monkeypatch.setattr(telescoper, "solve_at_order",
                        lambda term, r: solved.append(r) or solve(term, r))
    out = tmp_path / "operator.json"
    assert cli.main(["telescope", "--s", "5", "--r-max", "4", "--cache-dir",
                     str(tmp_path / "cache"), "--out", str(out)]) == 0
    assert solved == [3]
    assert cli.main(["verify", "--in", str(out)]) == 0
    capsys.readouterr()
