"""Regenerate the frozen references in perfbench/refs/.

    python3 perfbench/freeze.py

Runs `franel telescope --s s --r-max 4` for s = 1..7 with
SOURCE_DATE_EPOCH fixed, stores each operator document byte for byte and
the command's `--json` values, then checks every document against the
package-free oracles: the recurrence must reproduce the direct sums A_0
and, for 2j < s, the directly expanded A_j.  Takes about 20 s.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import oracles
from run import OUT, import_franel
from workloads import REFS_DIR

SOURCE_DATE_EPOCH = "0"
R_MAX = 4
POWERS = range(1, 8)


def check_document(doc: dict, first_row: int):
    s = doc["s"]
    coeffs = oracles.operator_coeffs(doc)
    values = oracles.franel_by_recurrence(coeffs, 40, first_row, s)
    if values != [oracles.franel_direct(s, n) for n in range(41)]:
        raise SystemExit("s=%d: the operator does not give A_0" % s)
    J = min(2, (s - 1) // 2)
    if J:
        rows = oracles.recurrence_rows(coeffs, s, 12, J, first_row)
        if rows != [oracles.deformed_direct(s, n, J) for n in range(13)]:
            raise SystemExit("s=%d: the operator does not give A_j" % s)


def main():
    os.environ["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    cli = import_franel()
    tmp = OUT / "freeze"
    shutil.rmtree(tmp, ignore_errors=True)
    summaries = {}
    REFS_DIR.mkdir(exist_ok=True)
    for s in POWERS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["telescope", "--s", str(s), "--r-max",
                             str(R_MAX), "--cache-dir", str(tmp), "--json"])
        if code != 0:
            raise SystemExit("telescope --s %d exited %d" % (s, code))
        summary = json.loads(stdout.getvalue())
        raw = Path(summary.pop("cached_document")).read_bytes()
        check_document(json.loads(raw), summary["first_valid_row"])
        (REFS_DIR / ("operator-s%d.json" % s)).write_bytes(raw)
        summaries[str(s)] = summary
        print("s=%d order %d, %d bytes" % (s, summary["order"], len(raw)))
    meta = {"source_date_epoch": int(SOURCE_DATE_EPOCH), "r_max": R_MAX,
            "summaries": summaries}
    (REFS_DIR / "telescope.json").write_text(
        json.dumps(meta, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
