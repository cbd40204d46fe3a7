"""The benchmark's workloads: job lists made from a seed, and their checks.

A job is one `franel` command line.  Its check compares the command's
exit code and values (not its formatting) with the frozen operator
documents in `refs/` and with `oracles`, which never call the package.
Extra keys in `--json` output are ignored, and the expected exit codes 1
(a tampered certificate) and 3 (no telescoper up to `--r-max`) count as
successes.

Workloads:

- `solve`: cold-cache `telescope` for s = 1..7 and one search that must
  fail (s = 6 below its order).  The solver's write path.
- `reuse`: the same telescopes against a cache seeded with the frozen
  documents (one entry truncated), `verify --in` on every document and on
  three tampered ones.  The read path: parsing, verification, audit.
- `sequences`: `compute`, `limits`, `asym` and `demo-apery`; many small
  rows and a few large ones.  Row construction and direct summation.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import oracles

WORKLOADS = ("solve", "reuse", "sequences")
COMMANDS = ("telescope", "verify", "compute", "limits", "asym", "demo-apery")

REFS_DIR = Path(__file__).resolve().parent / "refs"

# The tiny sizes exist for the benchmark's self-test.
_SIZES = {
    False: {
        "solve_s": range(1, 8), "not_found": (6, 2),
        "reuse_s": range(1, 8), "tampered_s": (5, 6, 7),
        "truncated_s": (1, 2, 3),
        # (s, n_max, J), n_max drawn from [n_max - 4, n_max]
        "compute": ((3, 200, 1), (5, 150, 2), (6, 200, 2)),
        # (s, n_max, J, bits), n_max drawn from [n_max - 10, n_max]
        "limits": ((5, 1000, 2, 256), (3, 2000, 1, 256), (5, 600, 2, 4096)),
        # (s, n, bits), n drawn from [n - 40, n]
        "asym": ((5, 8000, 256), (3, 10000, 2048)),
        # (n_max, bits), n_max drawn from [n_max - 5, n_max]
        "apery": (300, 1024),
    },
    True: {
        "solve_s": range(1, 5), "not_found": (4, 1),
        "reuse_s": range(1, 5), "tampered_s": (3, 4),
        "truncated_s": (1, 2),
        "compute": ((3, 24, 1), (5, 16, 2)),
        "limits": ((5, 30, 2, 256), (3, 40, 1, 512)),
        "asym": ((5, 120, 256),),
        "apery": (20, 256),
    },
}


@dataclass
class Outcome:
    code: Optional[int]
    stdout: str
    stderr: str
    seconds: float
    error: Optional[str] = None  # traceback when the command raised


@dataclass
class Job:
    name: str
    command: str
    argv: Callable[[Path], list]
    check: Callable[[Outcome, Path], Optional[str]]
    prepare: Callable[[Path], None] = lambda jobdir: None
    s: Optional[int] = None  # set on telescope jobs
    cache_seeded: bool = False


@dataclass
class Refs:
    """The frozen operator documents and the telescope summaries."""

    docs: dict  # s -> document bytes
    summaries: dict  # s -> expected telescope --json values
    source_date_epoch: str
    r_max: int
    _memo: dict = field(default_factory=dict)

    @classmethod
    def load(cls, refs_dir: Path = REFS_DIR) -> "Refs":
        meta = json.loads((refs_dir / "telescope.json").read_text())
        docs = {int(s): (refs_dir / ("operator-s%s.json" % s)).read_bytes()
                for s in meta["summaries"]}
        return cls(docs, {int(s): v for s, v in meta["summaries"].items()},
                   str(meta["source_date_epoch"]), meta["r_max"])

    def doc_path(self, s: int) -> Path:
        return REFS_DIR / ("operator-s%d.json" % s)

    def doc(self, s: int) -> dict:
        return json.loads(self.docs[s])

    def cache_name(self, s: int) -> str:
        """The file name `telescope` gives its cache entry for s."""
        version = self.doc(s)["provenance"]["tool_version"]
        return "telescope-s%d-v%s.json" % (s, version)

    def oracle(self, key, n_max, compute):
        """compute(n_max): a list indexed by n, kept while it reaches n_max.

        The first pass pays for the oracles; later passes reuse them.
        """
        have = self._memo.get(key)
        if have is None or len(have) <= n_max:
            have = self._memo[key] = compute(n_max)
        return have

    def rows(self, s: int, n_max: int, J: int):
        """Oracle rows (A_0(n), .., A_J(n)) for n <= at least n_max."""
        return self.oracle(("rows", s, J), n_max, lambda n: (
            oracles.recurrence_rows(oracles.operator_coeffs(self.doc(s)), s,
                                    n, J,
                                    self.summaries[s]["first_valid_row"])))

    def franel_values(self, s: int, n_max: int):
        """Oracle A_0(n) for n <= at least n_max."""
        return self.oracle(("A0", s), n_max, lambda n: (
            oracles.franel_by_recurrence(
                oracles.operator_coeffs(self.doc(s)), n,
                self.summaries[s]["first_valid_row"], s)))


# ---------------------------------------------------------------------------
# checks: each returns None on success or a one-line reason
# ---------------------------------------------------------------------------


def _expect_code(out: Outcome, code: int) -> Optional[str]:
    if out.error:
        return "raised: " + out.error.strip().splitlines()[-1]
    if out.code != code:
        return "exit %r, expected %d" % (out.code, code)
    return None


def _json(out: Outcome):
    try:
        return json.loads(out.stdout), None
    except ValueError as exc:
        return None, "output is not JSON: %s" % exc


def _check_summary(refs: Refs, s: int, out: Outcome, cache_file: Path):
    summary, err = _json(out)
    if err:
        return err
    for key, want in refs.summaries[s].items():
        if summary.get(key) != want:
            return "%s = %r, expected %r" % (key, summary.get(key), want)
    if Path(summary.get("cached_document", "")) != cache_file:
        return "cached_document %r, expected %s" % (
            summary.get("cached_document"), cache_file)
    if not cache_file.is_file() or cache_file.read_bytes() != refs.docs[s]:
        return "cache entry differs from the frozen document"
    return None


def _places(text) -> int:
    text = str(text)
    return len(text.split(".", 1)[1]) if "." in text else 0


def _check_decimal(label, text, want: Fraction, min_places: int):
    if text is None:
        return "%s missing" % label
    places = _places(text)
    if places < min_places:
        return "%s has %d decimals, expected %d" % (label, places,
                                                    min_places)
    if abs(oracles.to_fraction(text) - want) > Fraction(1, 10 ** places):
        return "%s = %s, expected %s" % (label, text,
                                         oracles.decimal_string(want,
                                                                places))
    return None


def _check_upper_bound(label, text, true_value: Fraction):
    """A printed error bound must cover the true error."""
    if text is None:
        return "%s missing" % label
    bound = oracles.to_fraction(text)
    if bound < true_value * (1 - Fraction(1, 10 ** 9)):
        return "%s = %s is below the true error %.6e" % (
            label, text, float(true_value))
    return None


# ---------------------------------------------------------------------------
# job builders
# ---------------------------------------------------------------------------


def _telescope_argv(s, r_max, cache_dir):
    return ["telescope", "--s", str(s), "--r-max", str(r_max),
            "--cache-dir", str(cache_dir), "--json"]


def _fresh_dir(jobdir: Path):
    shutil.rmtree(jobdir, ignore_errors=True)
    jobdir.mkdir(parents=True)


def solve_job(refs: Refs, s: int) -> Job:
    def check(out, jobdir):
        return _expect_code(out, 0) or \
            _check_summary(refs, s, out, jobdir / refs.cache_name(s))
    return Job("telescope-s%d" % s, "telescope",
               lambda jobdir: _telescope_argv(s, refs.r_max, jobdir),
               check, _fresh_dir, s)


def not_found_job(refs: Refs, s: int, r_max: int) -> Job:
    def check(out, jobdir):
        err = _expect_code(out, 3)
        if err is None and (jobdir / refs.cache_name(s)).exists():
            err = "a document was written although no telescoper exists"
        return err
    return Job("telescope-s%d-rmax%d" % (s, r_max), "telescope",
               lambda jobdir: _telescope_argv(s, r_max, jobdir),
               check, _fresh_dir, s)


def cached_job(refs: Refs, s: int, cache_dir: Path,
               truncate_at: Optional[int] = None) -> Job:
    """telescope against the seeded cache; truncate_at damages the entry."""
    cache_file = cache_dir / refs.cache_name(s)

    def prepare(jobdir):
        if truncate_at is not None:
            cache_file.write_bytes(refs.docs[s][:truncate_at])

    def check(out, jobdir):
        err = _expect_code(out, 0)
        if err is None and truncate_at is not None and not out.stderr.strip():
            err = "no warning about the truncated cache entry"
        return err or _check_summary(refs, s, out, cache_file)

    name = "telescope-s%d-%s" % (s, "truncated" if truncate_at is not None
                                  else "cached")
    return Job(name, "telescope",
               lambda jobdir: _telescope_argv(s, refs.r_max, cache_dir),
               check, prepare, s, cache_seeded=True)


def verify_job(name: str, path: Path, code: int) -> Job:
    return Job(name, "verify", lambda jobdir: ["verify", "--in", str(path)],
               lambda out, jobdir: _expect_code(out, code))


def tamper(refs: Refs, s: int, rng: random.Random) -> bytes:
    """The document with one coefficient of c_0 changed.

    c_1..c_r have no common factor in every frozen operator, so the result
    still parses as an operator; its certificate no longer verifies.
    """
    doc = refs.doc(s)
    poly = doc["coeffs"][0]
    i = rng.randrange(len(poly))
    poly[i] = str(int(poly[i]) + rng.choice((-2, -1, 1, 2)))
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def compute_job(refs: Refs, s: int, n_max: int, J: int) -> Job:
    def check(out, jobdir):
        err = _expect_code(out, 0)
        if err:
            return err
        doc, err = _json(out)
        if err:
            return err
        if (doc.get("s"), doc.get("J"), doc.get("n_max")) != (s, J, n_max):
            return "header (s, J, n_max) = (%r, %r, %r)" % (
                doc.get("s"), doc.get("J"), doc.get("n_max"))
        want = refs.rows(s, n_max, J)
        rows = doc.get("rows") or []
        if len(rows) != n_max + 1:
            return "%d rows, expected %d" % (len(rows), n_max + 1)
        for n, row in enumerate(rows):
            if tuple(oracles.to_fraction(c) for c in row) != want[n]:
                return "row n=%d differs from the recurrence oracle" % n
        return None
    return Job("compute-s%d-n%d-J%d" % (s, n_max, J), "compute",
               lambda jobdir: ["compute", "--s", str(s), "--n-max",
                               str(n_max), "--J", str(J), "--format",
                               "json"], check)


def limits_job(refs: Refs, s: int, n: int, J: int, bits: int) -> Job:
    def check(out, jobdir):
        err = _expect_code(out, 0)
        if err:
            return err
        items, err = _json(out)
        if err:
            return err
        rows = refs.rows(s, n, J)
        at_one = oracles.deformed_direct(s, 1, J)
        phis = oracles.phi(s, J)
        places = min(40, bits // 8) - 2
        by_j = {item.get("j"): item for item in items
                if isinstance(item, dict)}
        for j in range(J + 1):
            item = by_j.get(j)
            if item is None:
                return "no report for j=%d" % j
            if (item.get("s"), item.get("n")) != (s, n):
                return "j=%d reports (s, n) = (%r, %r)" % (
                    j, item.get("s"), item.get("n"))
            ratio = rows[n][j] / rows[n][0]
            target = phis[j] * oracles.pi() ** (2 * j)
            err = (_check_decimal("estimate j=%d" % j, item.get("estimate"),
                                  ratio, places)
                   or _check_decimal("target j=%d" % j, item.get("target"),
                                     target, places)
                   or _check_upper_bound("abs_error_upper j=%d" % j,
                                         item.get("abs_error_upper"),
                                         abs(ratio - target)))
            if err is None and j in (1, 2):
                # normalised by A_j(1), the value at the first row
                err = (_check_decimal(
                    "normalized_estimate j=%d" % j,
                    item.get("normalized_estimate"), ratio / at_one[j],
                    places) or _check_decimal(
                    "normalized_target j=%d" % j,
                    item.get("normalized_target"), target / at_one[j],
                    places))
            if err:
                return err
        return None
    extra = [] if bits == 256 else ["--precision-bits", str(bits)]
    return Job("limits-s%d-n%d-J%d-b%d" % (s, n, J, bits), "limits",
               lambda jobdir: ["limits", "--s", str(s), "--n-max", str(n),
                               "--J", str(J), "--json"] + extra, check)


def asym_job(refs: Refs, s: int, n: int, bits: int) -> Job:
    def check(out, jobdir):
        err = _expect_code(out, 0)
        if err:
            return err
        want = oracles.growth_ratio(refs.franel_values(s, n)[n], s, n)
        return _check_decimal("ratio", oracles.labelled_number(
            out.stdout, "ratio"), want, 28)
    extra = [] if bits == 256 else ["--precision-bits", str(bits)]
    return Job("asym-s%d-n%d-b%d" % (s, n, bits), "asym",
               lambda jobdir: ["asym", "--s", str(s), "--n", str(n)] + extra,
               check)


def apery_job(refs: Refs, n_max: int, bits: int) -> Job:
    def check(out, jobdir):
        err = _expect_code(out, 0)
        if err:
            return err
        want = refs.oracle("apery", n_max, oracles.apery_direct)[:n_max + 1]
        table = {}
        for line in out.stdout.splitlines():
            cells = line.split()
            if len(cells) == 3 and cells[0].isdigit():
                table[int(cells[0])] = (int(cells[1]),
                                        oracles.to_fraction(cells[2]))
        for n, pair in enumerate(want):
            if table.get(n) != pair:
                return "row n=%d is %r, expected %r" % (n, table.get(n),
                                                        pair)
        a, b = want[n_max]
        places = min(50, bits // 6) - 2
        convergent = 6 * b / a
        return (_check_decimal("6 B(n)/A(n)", oracles.labelled_number(
            out.stdout, "6 B(n)/A(n)"), convergent, places)
            or _check_decimal("zeta(3) ref", oracles.labelled_number(
                out.stdout, "zeta(3) ref"), oracles.ZETA3, places)
            or _check_upper_bound("|difference|", oracles.labelled_number(
                out.stdout, "|difference| <="),
                abs(convergent - oracles.ZETA3) - oracles.ZETA3_ERROR))
    return Job("demo-apery-n%d-b%d" % (n_max, bits), "demo-apery",
               lambda jobdir: ["demo-apery", "--n-max", str(n_max),
                               "--precision-bits", str(bits)], check)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def build(workload: str, seed: int, refs: Refs, workdir: Path,
          tiny: bool = False) -> list:
    """The workload's jobs in seed order; writes the inputs they read.

    The seed fixes the job order, each job's n within its window, the
    tampered coefficients and the truncated cache entry.
    """
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("%s:%d" % (workload, seed))
    size = _SIZES[tiny]
    jobs = []
    if workload == "solve":
        jobs = [solve_job(refs, s) for s in size["solve_s"]]
        jobs.append(not_found_job(refs, *size["not_found"]))
    elif workload == "reuse":
        cache_dir = workdir / "cache"
        cache_dir.mkdir(parents=True, exist_ok=True)
        truncated = rng.choice(size["truncated_s"])
        for s in size["reuse_s"]:
            (cache_dir / refs.cache_name(s)).write_bytes(refs.docs[s])
            cut = rng.randrange(1, len(refs.docs[s]) - 1) \
                if s == truncated else None
            jobs.append(cached_job(refs, s, cache_dir, cut))
            jobs.append(verify_job("verify-s%d" % s, refs.doc_path(s), 0))
        for s in size["tampered_s"]:
            path = workdir / ("tampered-s%d.json" % s)
            path.write_bytes(tamper(refs, s, rng))
            jobs.append(verify_job("verify-tampered-s%d" % s, path, 1))
    else:
        for s, n_max, J in size["compute"]:
            jobs.append(compute_job(refs, s, n_max - rng.randrange(5), J))
        for s, n_max, J, bits in size["limits"]:
            jobs.append(limits_job(refs, s, n_max - rng.randrange(11), J,
                                   bits))
        for s, n, bits in size["asym"]:
            jobs.append(asym_job(refs, s, n - rng.randrange(41), bits))
        n_max, bits = size["apery"]
        jobs.append(apery_job(refs, n_max - rng.randrange(6), bits))
    rng.shuffle(jobs)
    return jobs
