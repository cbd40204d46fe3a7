"""Byte-for-byte outputs of the sequence commands, frozen in tests/golden/.

Each file is the stdout of `python -m franel.cli` with the arguments listed
next to its name; regenerate one with, for example,

    PYTHONPATH=src python -m franel.cli asym --s 5 --n 2000 \\
        > tests/golden/asym-s5-n2000.txt

but only when an output is meant to change.  The parser's text is frozen
at 80 columns: `COLUMNS=80 python -m franel.cli telescope --help`, and the
stderr of each usage error.
"""

import hashlib
from pathlib import Path

import pytest

from franel import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "compute-s5-n40-J2.json":
        "compute --s 5 --n-max 40 --J 2 --format json",
    "compute-s5-n40-J2.txt":
        "compute --s 5 --n-max 40 --J 2 --format text",
    "limits-s5-n300-J2.json": "limits --s 5 --n-max 300 --J 2 --json",
    "limits-s5-n1000-J2.json": "limits --s 5 --n-max 1000 --J 2 --json",
    "limits-s3-n2000-J1.json": "limits --s 3 --n-max 2000 --J 1 --json",
    "limits-s5-n300-J2.txt": "limits --s 5 --n-max 300 --J 2",
    "limits-s5-n300-J3-force-1024.json":
        "limits --s 5 --n-max 300 --J 3 --J-force --precision-bits 1024 "
        "--json",
    "asym-s5-n2000.txt": "asym --s 5 --n 2000",
    "demo-apery-n40-512.txt": "demo-apery --n-max 40 --precision-bits 512",
}

# the parser's text: `--help` of the program and of each subcommand
HELP_CASES = {
    "help-franel.txt": "--help",
    "help-compute.txt": "compute --help",
    "help-telescope.txt": "telescope --help",
    "help-verify.txt": "verify --help",
    "help-limits.txt": "limits --help",
    "help-asym.txt": "asym --help",
    "help-demo-apery.txt": "demo-apery --help",
}

# stderr of usage errors, which exit 2: from the parser of every
# subcommand (the one `main` builds when the first word names it), and from
# the full parser, which only top-level help and these errors need
USAGE_CASES = {
    "usage-telescope-unknown-flag.txt": "telescope --s 3 --r-max 4 --bogus",
    "usage-franel-no-arguments.txt": "",
    "usage-franel-unknown-command.txt": "bogus",
    "usage-compute-missing-s.txt": "compute --n-max 5",
    "usage-telescope-missing-r-max.txt": "telescope --s 3",
    "usage-verify-missing-in.txt": "verify",
    "usage-limits-missing-n-max.txt": "limits --s 3",
    "usage-asym-missing-n.txt": "asym --s 3",
    "usage-demo-apery-missing-n-max.txt": "demo-apery",
    "usage-limits-bad-precision.txt":
        "limits --s 3 --n-max 10 --precision-bits 32",
}

# outputs too large to keep as files, frozen as the SHA-256 of their bytes
DIGESTS = {
    "compute --s 6 --n-max 200 --J 2 --format json":
        "d5fcdb20ae20e3935808b8ef6d84930cfd58d33cafaafaa81d9e63428719808a",
    # the benchmark's sizes: franel's full sum at n = 7969 and 9975, and
    # the recursion rows' head checked against it at n = 993
    "asym --s 5 --n 7969":
        "f86d66114bde643e6197429cdcae8ba94b3cdc31ec17ca6c9678e442d9fc01eb",
    "asym --s 3 --n 9975 --precision-bits 2048":
        "d992c438a67e7bec602b7ce54e31928e9b539fd13d534fcba189cb9fef4076f6",
    "limits --s 5 --n-max 993 --J 2 --json":
        "13d72d26ebc75db88a63c4a1e7c631ef56a2c8f1861b81ddcccf24dda0388497",
}


# `telescope --s S --r-max R --out FILE` with SOURCE_DATE_EPOCH=0, frozen
# as the SHA-256 of FILE: R = 5 for s = 8..10 (112 KB, 279 KB, 398 KB) and
# R = 6 for s = 11 and 12 (903 KB, 1.2 MB).  Tier-1 re-solves s=8 (under
# 1 s); CI re-solves s = 9..12, which take about 1 s, 6 s, 7 s and 80 s of
# solve on 2 cores, and verifies the documents.
OPERATOR_DIGESTS = {
    8: "15c4b10663f82d04dec3e78003dab6f648ffd4826ef63c4357ddf43e74fdd301",
    9: "e5052705f864d2821d3c6f6b8597d1ab6b9094d8be6a6e4cfedf3642e8d90105",
    10: "378a56f33a941b727adbb2077582511f41e37d0c5fb046a9558d4f935d312283",
    11: "4154946388880169a76501cee094b5d265cdcbf49e1a27e460a4c8141e98da01",
    12: "b682607f4cea2ff121cd01b8e5ac1c41c7c1c88315869e514932212a7985562f",
}


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == \
        sorted([*CASES, *HELP_CASES, *USAGE_CASES])


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_equals_golden(name, capsys):
    assert cli.main(CASES[name].split()) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(HELP_CASES))
def test_help_equals_golden(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main(HELP_CASES[name].split()) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(USAGE_CASES))
def test_usage_error_equals_golden(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main(USAGE_CASES[name].split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.encode("utf-8") == (GOLDEN / name).read_bytes()


def _parse(parser, argv, capsys):
    """The Namespace of argv, or the exit code and output of a parser
    that exits."""
    try:
        return parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code, capsys.readouterr()


@pytest.mark.parametrize("argv", sorted(
    {*CASES.values(), *HELP_CASES.values(), *DIGESTS, *USAGE_CASES.values()}
    - {"--help", "", "bogus"}))
def test_one_subcommand_parser_equals_the_full_one(argv, capsys,
                                                   monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    words = argv.split()
    assert words[0] in cli._COMMANDS
    assert _parse(cli.build_parser(words[0]), words, capsys) == \
        _parse(cli.build_parser(), words, capsys)


@pytest.mark.parametrize("argv", sorted(DIGESTS))
def test_output_digest_equals_golden(argv, capsys):
    assert cli.main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[argv]


def test_operator_document_digest_s8(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    out = tmp_path / "operator-s8.json"
    assert cli.main(["telescope", "--s", "8", "--r-max", "5", "--cache-dir",
                     str(tmp_path / "cache"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        OPERATOR_DIGESTS[8]
