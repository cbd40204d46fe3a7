import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import franel
from franel import cli, sequences, telescoper
from franel.bipoly import BiPoly
from franel.documents import bipoly_from_json, bipoly_to_json

_REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs"


@pytest.fixture()
def env(tmp_path, monkeypatch):
    monkeypatch.setenv("FRANEL_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    return tmp_path


def run(argv):
    return cli.main(argv)


def test_compute_text(env, capsys):
    assert run(["compute", "--s", "3", "--n-max", "4", "--J", "1"]) == 0
    out = capsys.readouterr().out
    assert "346" in out
    assert "12" in out


def test_compute_json_file(env, tmp_path):
    out = tmp_path / "table.json"
    assert run(["compute", "--s", "3", "--n-max", "1", "--J", "1",
                "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["rows"][1] == ["2", "12"]


def test_compute_out_that_cannot_be_written(env, tmp_path, capsys):
    blocker = tmp_path / "plain-file"
    blocker.write_text("not a directory")
    for out in (blocker / "x.json", tmp_path):
        assert run(["compute", "--s", "3", "--n-max", "2",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write %s" % out)
    assert blocker.read_text() == "not a directory"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain-file"]


def test_telescope_out_that_cannot_be_written(env, tmp_path, capsys):
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    assert run(["telescope", "--s", "2", "--r-max", "2",
                "--out", str(blocker / "op.json")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write ")


def test_compute_rejects_bad_s(env):
    assert run(["compute", "--s", "0", "--n-max", "4"]) == 2


def test_limits_rejects_bad_bounds(env, capsys):
    for argv in (["--n-max", "1", "--J", "1"], ["--n-max", "0", "--J", "1"],
                 ["--n-max", "4", "--J", "-1"],
                 ["--n-max", "4", "--J", "-1", "--J-force"]):
        assert run(["limits", "--s", "3"] + argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")


def test_argparse_errors_exit_2(env):
    assert run(["compute", "--s", "notanint", "--n-max", "4"]) == 2
    assert run(["nosuchcommand"]) == 2


def test_telescope_verify_cycle(env, tmp_path, capsys):
    out = tmp_path / "op.json"
    assert run(["telescope", "--s", "3", "--r-max", "3",
                "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["verify", "--in", str(out)]) == 0
    msg = capsys.readouterr().out
    assert "verifies exactly" in msg

    doc = json.loads(out.read_text())
    doc["certificate"]["num"][0][0] = str(
        int(doc["certificate"]["num"][0][0]) + 1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", "--in", str(bad)]) == 1

    trunc = tmp_path / "trunc.json"
    trunc.write_text(out.read_text()[:80])
    assert run(["verify", "--in", str(trunc)]) == 2
    assert run(["verify", "--in", str(tmp_path / "missing.json")]) == 2


def test_verify_rejects_a_boolean_power(env, tmp_path, capsys):
    # read as s = 1, the s = 3 document would fail with MISMATCH (exit 1)
    doc = json.loads((_REFS / "operator-s3.json").read_text())
    doc["s"] = True
    bad = tmp_path / "bool-s.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", "--in", str(bad)]) == 2
    assert "error: invalid document" in capsys.readouterr().err


@pytest.mark.parametrize("part", ["num", "den"])
def test_verify_rejects_a_certificate_without_a_part(env, tmp_path, capsys,
                                                     part):
    # read as zero, a missing num failed verification (exit 1) and a
    # missing den was reported as a zero denominator
    doc = json.loads((_REFS / "operator-s3.json").read_text())
    del doc["certificate"][part]
    bad = tmp_path / ("no-%s.json" % part)
    bad.write_text(json.dumps(doc))
    assert run(["verify", "--in", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: invalid document: certificate lacks "
                            "the field %s\n" % part)


# 1,000 nested arrays, 2,000 bytes: json.loads raises RecursionError,
# which once ended verify in a traceback with exit 1
_NESTED = "[" * 1000 + "]" * 1000


def test_verify_rejects_a_deeply_nested_document(env, tmp_path, capsys):
    bad = tmp_path / "nested.json"
    bad.write_text(_NESTED)
    assert run(["verify", "--in", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: invalid document: not valid JSON: "
                            "nested too deeply\n")


def test_telescope_rejects_a_malformed_source_date_epoch(env, monkeypatch,
                                                         capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "abc")
    assert run(["telescope", "--s", "2", "--r-max", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: SOURCE_DATE_EPOCH='abc' ")
    assert not (env / "cache").exists()


def test_telescope_reads_source_date_epoch_before_the_search(
        env, monkeypatch, capsys):
    # read after the search, the timestamp would end the run only after
    # the s=10 solve, about 10 s
    def solve(term, r):
        raise AssertionError("solve_at_order called")
    monkeypatch.setattr(telescoper, "solve_at_order", solve)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "abc")
    assert run(["telescope", "--s", "10", "--r-max", "5"]) == 2
    assert capsys.readouterr().err.startswith("error: SOURCE_DATE_EPOCH=")
    assert not (env / "cache").exists()


def test_telescope_not_found_exit_3(env):
    assert run(["telescope", "--s", "3", "--r-max", "1"]) == 3


@pytest.fixture()
def searches(monkeypatch):
    """The order of each `solve_at_order` that `telescope` runs."""
    calls = []
    solve = telescoper.solve_at_order

    def spy(term, r):
        calls.append(r)
        return solve(term, r)
    monkeypatch.setattr(telescoper, "solve_at_order", spy)
    return calls


def test_telescope_solves_order_m_first(env, searches, capsys):
    want = {"m": 3, "N": 0, "roots": [], "W": "-2350"}
    for _ in ("solved", "cached"):
        assert run(["telescope", "--s", "5", "--r-max", "4", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["order"], summary["minimality"]) == (3, want)
    assert searches == [3]


def test_telescope_searches_once_from_order_m(env, monkeypatch):
    # the benchmark reads a cache hit off a run with no `zeilberger` call
    calls = []
    search = cli.zeilberger

    def spy(term, r_max, r_from=1):
        calls.append((r_max, r_from))
        return search(term, r_max, r_from)
    monkeypatch.setattr(cli, "zeilberger", spy)
    assert run(["telescope", "--s", "5", "--r-max", "4"]) == 0
    assert calls == [(4, 3)]
    assert run(["telescope", "--s", "5", "--r-max", "4"]) == 0
    assert calls == [(4, 3)]


def test_below_the_bound_one_solve_and_no_document(env, tmp_path, searches,
                                                   capsys):
    # by the padding lemma one solve at --r-max rules out every lower order
    out = tmp_path / "op.json"
    assert run(["telescope", "--s", "6", "--r-max", "2",
                "--out", str(out)]) == 3
    assert searches == [2]
    assert "no telescoping operator up to order 2" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "cache").exists()


def test_failed_certificate_exits_4(env, tmp_path, searches, monkeypatch,
                                    capsys):
    out = tmp_path / "op.json"
    assert run(["telescope", "--s", "3", "--r-max", "3",
                "--out", str(out)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "minimality_certificate", lambda *a: None)
    # the cached entry is not used without its certificate, and a solution
    # at order m without one contradicts the bound
    again = tmp_path / "again.json"
    assert run(["telescope", "--s", "3", "--r-max", "3", "--json",
                "--out", str(again)]) == 4
    out_text, err = capsys.readouterr()
    assert out_text == ""
    assert "no minimality certificate" in err
    assert searches == [2, 2]
    assert not again.exists()


# `verify` stdout, byte for byte, on the frozen documents and on altered
# copies (see _verify_document); a certificate check must leave them as
# they are
VERIFY_STDOUT = {
    "frozen-s1": "certificate verifies exactly (s=1, order 1)\n",
    "frozen-s2": "certificate verifies exactly (s=2, order 1)\n",
    "frozen-s3": "certificate verifies exactly (s=3, order 2)\n",
    "frozen-s4": "certificate verifies exactly (s=4, order 2)\n",
    "frozen-s5": "certificate verifies exactly (s=5, order 3)\n",
    "frozen-s6": "certificate verifies exactly (s=6, order 3)\n",
    "frozen-s7": "certificate verifies exactly (s=7, order 4)\n",
    "c0+1-s5":
        "certificate MISMATCH; unreduced residual: numerator of degree 30 "
        "in n, 35 in k; denominator of degree 30 in n, 35 in k\n",
    "c0+1-s7":
        "certificate MISMATCH; unreduced residual: numerator of degree 56 "
        "in n, 63 in k; denominator of degree 56 in n, 63 in k\n",
    "num-1-s7":
        "certificate MISMATCH; unreduced residual: numerator of degree 35 "
        "in n, 35 in k; denominator of degree 56 in n, 63 in k\n",
    "den*(n+k+2)-s5":
        "certificate MISMATCH; unreduced residual: numerator of degree 53 "
        "in n, 52 in k; denominator of degree 47 in n, 52 in k\n",
    "den+1-s5":
        "certificate MISMATCH; unreduced residual: numerator of degree 36 "
        "in n, 35 in k; denominator of degree 45 in n, 50 in k\n",
    "den+1-s6":
        "certificate MISMATCH; unreduced residual: numerator of degree 44 "
        "in n, 42 in k; denominator of degree 54 in n, 60 in k\n",
}


def _verify_document(tmp_path, case):
    """The document of a VERIFY_STDOUT case, written to a file: the frozen
    one, or a copy with the constant term of c_0 raised by 1, the
    certificate numerator lowered by 1, or its denominator raised by 1 or
    multiplied by n + k + 2."""
    kind, s = case.rsplit("-s", 1)
    doc = json.loads((_REFS / ("operator-s%s.json" % s)).read_text())
    cert = doc["certificate"]
    if kind == "c0+1":
        doc["coeffs"][0][0] = str(int(doc["coeffs"][0][0]) + 1)
    elif kind == "num-1":
        cert["num"] = bipoly_to_json(bipoly_from_json(cert["num"]) - 1)
    elif kind == "den+1":
        cert["den"] = bipoly_to_json(bipoly_from_json(cert["den"]) + 1)
    elif kind == "den*(n+k+2)":
        cert["den"] = bipoly_to_json(bipoly_from_json(cert["den"])
                                     * (BiPoly.var_n() + BiPoly.var_k() + 2))
    path = tmp_path / "verify.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("case", sorted(VERIFY_STDOUT))
def test_verify_stdout_is_pinned(env, tmp_path, capsys, case):
    code = run(["verify", "--in", str(_verify_document(tmp_path, case))])
    assert code == (0 if case.startswith("frozen") else 1)
    assert capsys.readouterr().out == VERIFY_STDOUT[case]


def test_verify_reports_an_unreduced_residual_quickly(env, tmp_path, capsys):
    # the s=7 certificate numerator with its constant term lowered by 1;
    # reducing this residual took about 18 s
    bad = _verify_document(tmp_path, "num-1-s7")
    t0 = time.perf_counter()
    assert run(["verify", "--in", str(bad)]) == 1
    assert time.perf_counter() - t0 < 10
    assert capsys.readouterr().out == VERIFY_STDOUT["num-1-s7"]


@pytest.fixture()
def int_str_limit():
    """Python's default int <-> str digit limit for the test, which `main`
    must lift, and the limit as it was after it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield  # 3.10.0-3.10.6 have no limit
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


def test_compute_prints_a_row_past_the_int_str_limit(env, capsys,
                                                    int_str_limit):
    # the last row has 4,323 digits, past the default limit of 4,300
    assert run(["compute", "--s", "8", "--n-max", "1800", "--J", "0"]) == 0
    last = capsys.readouterr().out.splitlines()[-1].split()
    assert last[0] == "1800"
    assert len(last[1]) > 4300
    assert int(last[1]) == franel.franel(8, 1800)


def test_verify_reads_a_coefficient_past_the_int_str_limit(env, tmp_path,
                                                          capsys,
                                                          int_str_limit):
    doc = json.loads((_REFS / "operator-s3.json").read_text())
    doc["coeffs"][0][0] = "1" + "0" * 4999
    bad = tmp_path / "long.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", "--in", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("certificate MISMATCH; unreduced residual:")
    assert err == ""


def test_verify_rejects_a_power_beyond_the_certificate_quickly(env, tmp_path,
                                                              capsys):
    # the s=3 document read with s=200: building that term and checking it
    # ran for minutes; the k-degree of the numerator refutes it at once
    doc = json.loads((_REFS / "operator-s3.json").read_text())
    doc["s"] = 200
    bad = tmp_path / "s200.json"
    bad.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    assert run(["verify", "--in", str(bad)]) == 1
    assert time.perf_counter() - t0 < 5
    assert capsys.readouterr().out.startswith("certificate MISMATCH")


def test_telescope_internal_error_exit_4(env, monkeypatch):
    monkeypatch.setattr(telescoper, "verify_certificate",
                        lambda *a, **k: False)
    assert run(["telescope", "--s", "1", "--r-max", "1"]) == 4


def test_cache_byte_for_byte(env, tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run(["telescope", "--s", "2", "--r-max", "2",
                "--out", str(out1)]) == 0
    cache = tmp_path / "cache" / "telescope-s2-v0.1.0.json"
    assert cache.exists()
    first = cache.read_bytes()
    # second run hits the cache and must reproduce identical bytes
    assert run(["telescope", "--s", "2", "--r-max", "2",
                "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes() == first


def test_concurrent_telescopes_share_one_cache(env, tmp_path):
    cache = tmp_path / "shared"
    src = str(Path(franel.__file__).resolve().parent.parent)
    child_env = dict(os.environ,
                     PYTHONPATH=os.pathsep.join(
                         [src] + [p for p in [os.environ.get("PYTHONPATH")]
                                  if p]))
    argv = [sys.executable, "-m", "franel.cli", "telescope", "--s", "4",
            "--r-max", "3", "--cache-dir", str(cache)]
    procs = [subprocess.Popen(argv, env=child_env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) for _ in range(2)]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert b"warning" not in err
    ref = tmp_path / "ref.json"
    assert run(["telescope", "--s", "4", "--r-max", "3",
                "--out", str(ref)]) == 0
    files = list(cache.iterdir())
    assert [f.name for f in files] == \
        ["telescope-s4-v%s.json" % cli.TOOL_VERSION]
    assert files[0].read_bytes() == ref.read_bytes()


def test_failed_cache_write_leaves_no_temp_file(env, tmp_path, monkeypatch,
                                                capsys):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    cache = tmp_path / "cache"
    assert run(["telescope", "--s", "2", "--r-max", "1",
                "--cache-dir", str(cache)]) == 0
    assert "could not write cache: disk full" in capsys.readouterr().err
    assert list(cache.iterdir()) == []


def test_cache_corruption_recomputes(env, tmp_path, capsys):
    assert run(["telescope", "--s", "1", "--r-max", "1"]) == 0
    cache = tmp_path / "cache" / "telescope-s1-v0.1.0.json"
    cache.write_text("{broken")
    assert run(["telescope", "--s", "1", "--r-max", "1"]) == 0
    err = capsys.readouterr().err
    assert "corrupt cache" in err
    # cache healed
    json.loads(cache.read_text())


def test_deeply_nested_cache_entry_recomputes(env, tmp_path, capsys):
    assert run(["telescope", "--s", "1", "--r-max", "1"]) == 0
    cache = tmp_path / "cache" / "telescope-s1-v0.1.0.json"
    good = cache.read_bytes()
    cache.write_text(_NESTED)
    capsys.readouterr()
    assert run(["telescope", "--s", "1", "--r-max", "1"]) == 0
    assert capsys.readouterr().err == ("warning: ignoring corrupt cache "
                                       "entry: not valid JSON: nested too "
                                       "deeply\n")
    assert cache.read_bytes() == good


def test_cache_respects_smaller_r_max(env, tmp_path):
    assert run(["telescope", "--s", "3", "--r-max", "3"]) == 0
    # a cached order-2 document must not satisfy a request capped at 1
    assert run(["telescope", "--s", "3", "--r-max", "1"]) == 3


def test_limits_text(env, capsys):
    assert run(["limits", "--s", "3", "--n-max", "40", "--J", "1"]) == 0
    out = capsys.readouterr().out
    assert "4.9348" in out
    assert "normalized" in out


def test_limits_guard_and_force(env, capsys):
    assert run(["limits", "--s", "3", "--n-max", "30", "--J", "2"]) == 2
    assert run(["limits", "--s", "3", "--n-max", "30", "--J", "2",
                "--J-force"]) == 0
    capsys.readouterr()


def test_limits_bad_precision(env):
    assert run(["limits", "--s", "3", "--n-max", "30", "--J", "1",
                "--precision-bits", "16"]) == 2


def test_precision_below_64_exits_2(env, capsys):
    # one parser type checks the flag for all three subcommands
    for argv in (["limits", "--s", "3", "--n-max", "30"],
                 ["asym", "--s", "3", "--n", "10"],
                 ["demo-apery", "--n-max", "5"]):
        for bits in ("4", "0", "63", "many"):
            assert run(argv + ["--precision-bits", bits]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert "--precision-bits" in err


# every (subcommand, flag) pair that the subcommand does not read
_UNREAD_FLAGS = {
    "compute": ["--json", "--cache-dir", "--precision-bits"],
    "telescope": ["--precision-bits"],
    "verify": ["--json", "--out", "--cache-dir", "--precision-bits"],
    "limits": ["--cache-dir"],
    "asym": ["--json", "--out", "--cache-dir"],
    "demo-apery": ["--json", "--out", "--cache-dir"],
}
_REQUIRED = {
    "compute": ["--s", "3", "--n-max", "2"],
    "telescope": ["--s", "1", "--r-max", "1"],
    "verify": ["--in", str(_REFS / "operator-s1.json")],
    "limits": ["--s", "3", "--n-max", "4"],
    "asym": ["--s", "3", "--n", "10"],
    "demo-apery": ["--n-max", "3"],
}


def test_unread_flags_exit_2(env, tmp_path, monkeypatch, capsys):
    # a path-valued flag that were accepted would leave a file behind
    monkeypatch.chdir(tmp_path)
    values = {"--json": [], "--precision-bits": ["256"]}
    for command, flags in _UNREAD_FLAGS.items():
        for flag in flags:
            argv = [command] + _REQUIRED[command] + [flag] \
                + values.get(flag, ["x"])
            assert run(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == ""
            assert "unrecognized arguments: " + flag in err
    assert list(tmp_path.iterdir()) == []


def test_asym(env, capsys):
    assert run(["asym", "--s", "1", "--n", "100"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].endswith("1." + "0" * 30)
    assert run(["asym", "--s", "2", "--n", "50"]) == 0
    assert run(["asym", "--s", "2", "--n", "0"]) == 2


def test_demo_apery(env, capsys):
    assert run(["demo-apery", "--n-max", "5"]) == 0
    out = capsys.readouterr().out
    assert "73" in out and "117/8" in out
    assert "1.2020569031595942" in out


def test_exit_code_domain(env, tmp_path, monkeypatch):
    # exactly the documented exit codes are reachable
    codes = set()
    codes.add(run(["compute", "--s", "1", "--n-max", "2"]))
    codes.add(run(["compute", "--s", "-1", "--n-max", "2"]))
    out = tmp_path / "c.json"
    run(["telescope", "--s", "1", "--r-max", "1", "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["certificate"]["num"][0][0] = str(
        int(doc["certificate"]["num"][0][0]) + 2)
    bad = tmp_path / "cbad.json"
    bad.write_text(json.dumps(doc))
    codes.add(run(["verify", "--in", str(bad)]))
    codes.add(run(["telescope", "--s", "3", "--r-max", "1"]))
    monkeypatch.setattr(telescoper, "verify_certificate",
                        lambda *a, **k: False)
    codes.add(run(["telescope", "--s", "2", "--r-max", "2"]))
    assert codes == {0, 1, 2, 3, 4}


def test_telescope_s6_order_three(env, tmp_path, capsys):
    out = tmp_path / "op6.json"
    assert run(["telescope", "--s", "6", "--r-max", "4", "--json",
                "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["order"] == 3
    assert summary["coefficient_degree"] == 9
    assert summary["denominator_matches"] is True
    assert summary["first_valid_row"] == 0
    assert run(["verify", "--in", str(out)]) == 0


def test_limits_s4_against_target(env, capsys):
    assert run(["limits", "--s", "4", "--n-max", "300", "--J", "1"]) == 0
    out = capsys.readouterr().out
    # 2 pi^2 / 3 = 6.57973626739290...
    assert "6.57973626739290" in out


def test_failed_internal_checks_exit_4_under_every_command(env, monkeypatch,
                                                          capsys):
    # an AssertionError from a proof or an exact check ends any command in
    # exit 4 with one line on stderr, not in a traceback with exit 1
    with monkeypatch.context() as patch:
        patch.setattr(sequences, "recursion_start", lambda *a: 1)
        assert run(["demo-apery", "--n-max", "5"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("internal error: the Apery telescoper does not prove the "
                   "classical recurrence from n=0\n")
    monkeypatch.setattr(sequences, "franel", lambda s, n: -1)
    for argv in (["compute", "--s", "3", "--n-max", "4", "--J", "1"],
                 ["limits", "--s", "3", "--n-max", "6", "--J", "1"]):
        assert run(argv) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("internal error: constant term disagrees with the "
                       "direct sum\n")
