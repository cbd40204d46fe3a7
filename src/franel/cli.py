"""Command-line interface.

Subcommands: compute, telescope, verify, limits, asym, demo-apery.
Exit codes: 0 success, 1 failed verification, 2 usage or input error,
3 no telescoper up to the requested order, 4 internal verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from .bigfloat import BigFloat
from .documents import (TOOL_VERSION, document_bytes, operator_document,
                        parse_operator_document, timestamp)
from .errors import DocumentError, TelescoperNotFoundError
from .hyperterm import binom_power_term
from .limits import asymptotic_ratio, limit_report, zeta3_reference
from .sequences import apery_zeta3, coefficient_table, minimality_certificate
from .telescoper import (analyze_structure, certificate_mismatch,
                         expected_order, first_valid_row, verify_certificate,
                         zeilberger)

_EXIT_OK = 0
_EXIT_VERIFY_FAILED = 1
_EXIT_USAGE = 2
_EXIT_NOT_FOUND = 3
_EXIT_INTERNAL = 4


def _default_cache_dir(explicit):
    if explicit:
        return Path(explicit)
    env = os.environ.get("FRANEL_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "franel"


def _replace_file(path: Path, data: bytes):
    """Replace the file at path with data, through a unique temp file.

    The temp file sits in the same directory, so concurrent writers never
    move each other's half-written file into place; it is removed if
    anything fails before the replace.
    """
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp",
                               dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp's 0600 is not what open gives
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_output(data: bytes, out) -> int:
    """Write data to the path out, or to stdout; returns the exit code."""
    if not out:
        sys.stdout.write(data.decode("utf-8"))
        return _EXIT_OK
    path = Path(out)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        _replace_file(path, data)
    except OSError as exc:
        print("error: cannot write %s: %s" % (out, exc), file=sys.stderr)
        return _EXIT_USAGE
    return _EXIT_OK


def _fmt_table(rows, headers):
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for row in rows:
        lines.append("  ".join(cell.rjust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else \
        "%d/%d" % (q.numerator, q.denominator)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_compute(args) -> int:
    if args.s < 1:
        print("error: --s must be a positive integer", file=sys.stderr)
        return _EXIT_USAGE
    if args.n_max < 0 or args.J < 0:
        print("error: --n-max and --J must be nonnegative", file=sys.stderr)
        return _EXIT_USAGE
    table = coefficient_table(args.s, args.n_max, args.J)
    if args.format == "json":
        doc = {
            "schema_version": 1,
            "s": table.s,
            "J": table.J,
            "n_max": table.n_max,
            "rows": [[_frac_str(c) for c in row] for row in table.rows],
        }
        data = document_bytes(doc)
    else:
        headers = ["n"] + ["A_%d" % j for j in range(table.J + 1)]
        rows = [[str(n)] + [_frac_str(c) for c in row]
                for n, row in enumerate(table.rows)]
        data = _fmt_table(rows, headers).encode()
    return _write_output(data, args.out)


def _minimality_block(proof) -> dict | None:
    """The `minimality` block of `telescope`; None when the first solution
    lies above m, so the search alone proves the order."""
    if proof is None:
        return None
    return {"m": proof.m, "N": proof.N, "roots": list(proof.roots),
            "W": _frac_str(proof.W)}


def cmd_telescope(args) -> int:
    if args.s < 1 or args.r_max < 1:
        print("error: --s and --r-max must be positive", file=sys.stderr)
        return _EXIT_USAGE
    cache_dir = _default_cache_dir(args.cache_dir)
    cache_path = cache_dir / ("telescope-s%d-v%s.json"
                              % (args.s, TOOL_VERSION))
    term = binom_power_term(args.s)
    data = op = cert = minimality = None
    if cache_path.exists():
        try:
            raw = cache_path.read_bytes()
            s_doc, op_c, cert_c, _ = parse_operator_document(raw)
            # an entry is used only with its minimality certified
            if s_doc == args.s and op_c.order <= args.r_max \
                    and verify_certificate(term, op_c, cert_c):
                minimality = minimality_certificate(args.s, op_c, cert_c)
                if minimality is not None:
                    data, op, cert = raw, op_c, cert_c
        except (DocumentError, OSError) as exc:
            print("warning: ignoring corrupt cache entry: %s" % exc,
                  file=sys.stderr)
    if data is None:
        # the document's timestamp is read before the search, so a bad
        # SOURCE_DATE_EPOCH ends the run before any solving
        try:
            stamp = timestamp()
        except DocumentError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return _EXIT_USAGE
        # one upward search from r0 = min(m, --r-max), m = ceil(s/2).  By
        # the padding lemma (see solve_at_order) no solution at r0 rules out
        # every lower order, and a first solution above r0 has order above
        # r0.  A solution of order at most r0 must be the order-m operator
        # with its Casoratian certificate; anything else contradicts the
        # weak Franel bound.
        m = expected_order(args.s)
        r0 = min(m, args.r_max)
        try:
            op, cert = zeilberger(term, args.r_max, r0)
        except TelescoperNotFoundError as exc:
            print("no telescoping operator up to order %d (tried %s)"
                  % (args.r_max, list(exc.orders_tried)), file=sys.stderr)
            return _EXIT_NOT_FOUND
        except AssertionError:
            print("internal error: certificate failed exact verification",
                  file=sys.stderr)
            return _EXIT_INTERNAL
        if op.order <= r0:
            minimality = minimality_certificate(args.s, op, cert)
            if minimality is None:
                print("internal error: the operator of order %d has no "
                      "minimality certificate of order %d" % (op.order, m),
                      file=sys.stderr)
                return _EXIT_INTERNAL
        data = document_bytes(operator_document(args.s, op, cert, args.r_max,
                                                stamp))
        try:
            cache_dir.mkdir(parents=True, exist_ok=True)
            _replace_file(cache_path, data)
        except OSError as exc:
            print("warning: could not write cache: %s" % exc,
                  file=sys.stderr)
    report = analyze_structure(op, cert, args.s)
    if args.out and _write_output(data, args.out) != _EXIT_OK:
        return _EXIT_USAGE
    summary = {
        "s": args.s,
        "order": report.order,
        "expected_order": report.expected_order,
        "coefficient_degree": report.coeff_degree,
        "expected_degree": report.expected_degree,
        "denominator_matches": report.denominator_matches,
        "denominator_divides": report.denominator_divides,
        "numerator_k_degree": report.numerator_k_degree,
        "expected_numerator_k_degree": report.expected_numerator_k_degree,
        "denominator_integer_roots_in_n":
            list(report.integer_roots_of_denominator_in_n),
        "first_valid_row": first_valid_row(report),
        "minimality": _minimality_block(minimality),
        "cached_document": str(cache_path),
    }
    if args.json:
        sys.stdout.write(document_bytes(summary).decode())
    else:
        for key, val in summary.items():
            print("%s: %s" % (key, val))
    return _EXIT_OK


def cmd_verify(args) -> int:
    """Check an operator document exactly: exit 0, or 1 on a mismatch.

    The k-degree check comes first.  For binom(n, k)^s the Gosper form at
    every order r is A = (n+r-k)^s, B = (k+1)^s, C = 1, because the
    dispersion set is empty.  So the certificate B(k-1) f(k)/(C d(k)) has
    k^s in its numerator, and d has no factor k.  A certificate is unique
    for its operator, so k^s divides every valid numerator in lowest
    terms.  A k-degree below s is refuted before the term of power s is
    built, which a wrong "s" would make huge.
    """
    try:
        raw = Path(args.infile).read_bytes()
    except OSError as exc:
        print("error: cannot read %s: %s" % (args.infile, exc),
              file=sys.stderr)
        return _EXIT_USAGE
    try:
        s, op, cert, _ = parse_operator_document(raw)
    except DocumentError as exc:
        print("error: invalid document: %s" % exc, file=sys.stderr)
        return _EXIT_USAGE
    k_degree = cert.ratio.num.deg_k
    if k_degree < s:
        print("certificate MISMATCH; numerator of degree %d in k, but "
              "k^%d divides every valid one" % (k_degree, s))
        return _EXIT_VERIFY_FAILED
    # the verdict of verify_certificate, with the degrees of a nonzero
    # residual; the residual is never reduced
    mismatch = certificate_mismatch(binom_power_term(s), op, cert)
    if mismatch is None:
        print("certificate verifies exactly (s=%d, order %d)"
              % (s, op.order))
        return _EXIT_OK
    (num_n, num_k), (den_n, den_k) = mismatch
    print("certificate MISMATCH; unreduced residual: numerator of degree "
          "%d in n, %d in k; denominator of degree %d in n, %d in k"
          % (num_n, num_k, den_n, den_k))
    return _EXIT_VERIFY_FAILED


def cmd_limits(args) -> int:
    if args.s < 1:
        print("error: --s must be a positive integer", file=sys.stderr)
        return _EXIT_USAGE
    if args.n_max < 2 or args.J < 0:
        print("error: --n-max must be at least 2 and --J nonnegative",
              file=sys.stderr)
        return _EXIT_USAGE
    theory_max = (args.s - 1) // 2
    if args.J > theory_max and not args.J_force:
        print("error: --J exceeds floor((s-1)/2) = %d; pass --J-force to "
              "explore anyway" % theory_max, file=sys.stderr)
        return _EXIT_USAGE
    reports = limit_report(args.s, args.n_max, args.J, args.precision_bits,
                           enforce_theory_range=not args.J_force)
    places = min(40, args.precision_bits // 8)
    if args.json:
        payload = []
        for rep in reports:
            item = {
                "s": rep.s, "j": rep.j, "n": rep.n_used,
                "estimate": rep.estimate.decimal(places),
                "target": rep.target.decimal(places),
                "abs_error_upper": str(float(rep.abs_error.abs_upper())),
            }
            if rep.successive_diff_ratio is not None:
                item["successive_diff_ratio"] = str(
                    float(rep.successive_diff_ratio.to_fraction()))
            if rep.normalized_estimate is not None:
                item["normalized_estimate"] = \
                    rep.normalized_estimate.decimal(places)
                item["normalized_target"] = \
                    rep.normalized_target.decimal(places)
            payload.append(item)
        data = (json.dumps(payload, indent=2) + "\n").encode()
    else:
        lines = []
        for rep in reports:
            lines.append("s=%d j=%d n=%d" % (rep.s, rep.j, rep.n_used))
            lines.append("  estimate  %s" % rep.estimate.decimal(places))
            lines.append("  target    %s" % rep.target.decimal(places))
            lines.append("  |error| <= %.3e"
                         % float(rep.abs_error.abs_upper()))
            if rep.successive_diff_ratio is not None:
                lines.append("  successive error ratio ~ %.6f" % float(
                    rep.successive_diff_ratio.to_fraction()))
            if rep.normalized_estimate is not None:
                lines.append("  normalized  %s  (target %s)"
                             % (rep.normalized_estimate.decimal(places),
                                rep.normalized_target.decimal(places)))
        data = ("\n".join(lines) + "\n").encode()
    return _write_output(data, args.out)


def cmd_asym(args) -> int:
    if args.n < 1 or args.s < 1:
        print("error: --s and --n must be positive", file=sys.stderr)
        return _EXIT_USAGE
    ratio = asymptotic_ratio(args.s, args.n, args.precision_bits)
    deviation = abs(ratio - 1)
    print("ratio       %s" % ratio.decimal(30))
    print("|ratio - 1| %.6e (error bound %.3e)"
          % (float(deviation.to_fraction()),
             float(deviation.error_fraction())))
    return _EXIT_OK


def cmd_demo_apery(args) -> int:
    if args.n_max < 1:
        print("error: --n-max must be at least 1", file=sys.stderr)
        return _EXIT_USAGE
    pairs = apery_zeta3(args.n_max)
    rows = [[str(p.n), str(p.a), _frac_str(p.b)] for p in pairs]
    sys.stdout.write(_fmt_table(rows, ["n", "A", "B"]))
    places = min(50, args.precision_bits // 6)
    last = pairs[-1]
    approx = BigFloat.from_fraction(6 * last.b / last.a, args.precision_bits)
    ref = zeta3_reference(args.precision_bits)
    diff = abs(approx - ref)
    print("6 B(n)/A(n) = %s" % approx.decimal(places))
    print("zeta(3) ref = %s" % ref.decimal(places))
    print("|difference| <= %.3e" % float(diff.abs_upper()))
    return _EXIT_OK


def _precision_bits(text: str) -> int:
    """The parser type of --precision-bits: an integer of at least 64."""
    try:
        bits = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "invalid int value: %r" % text) from None
    if bits < 64:
        raise argparse.ArgumentTypeError("must be at least 64, not %d" % bits)
    return bits


_REQUIRED_INT = {"type": int, "required": True}
_S = ("--s", _REQUIRED_INT)
_N_MAX = ("--n-max", _REQUIRED_INT)
# the shared flags; a subcommand lists the ones it takes first, in this order
_JSON = ("--json", {"action": "store_true", "help": "machine-readable output"})
_OUT = ("--out", {"help": "write output to this path"})
_CACHE = ("--cache-dir", {"help": "cache directory (default $FRANEL_CACHE_DIR "
                                  "or ~/.cache/franel)"})
_PRECISION = ("--precision-bits", {"type": _precision_bits, "default": 256,
                                   "help": "at least 64 (default 256)"})

# name: (handler, summary, flags), the shared flags first.  Each subcommand
# takes only the flags it reads; argparse rejects the rest.
_COMMANDS = {
    "compute": (cmd_compute, "tabulate the deformation coefficient sequences",
                (_OUT, _S, _N_MAX, ("--J", {"type": int, "default": 0}),
                 ("--format", {"choices": ["json", "text"],
                               "default": "text"}))),
    "telescope": (cmd_telescope, "find and verify the telescoping operator",
                  (_JSON, _OUT, _CACHE, _S, ("--r-max", _REQUIRED_INT))),
    "verify": (cmd_verify, "verify an operator document exactly",
               (("--in", {"dest": "infile", "required": True}),)),
    "limits": (cmd_limits, "limit estimates against exact targets",
               (_JSON, _OUT, _PRECISION, _S, _N_MAX,
                ("--J", {"type": int, "default": 1}),
                ("--J-force",
                 {"action": "store_true",
                  "help": "allow J beyond the guaranteed range"}))),
    "asym": (cmd_asym, "growth-formula ratio check",
             (_PRECISION, _S, ("--n", _REQUIRED_INT))),
    "demo-apery": (cmd_demo_apery, "the classical zeta(3) convergents",
                   (_PRECISION, _N_MAX)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of `franel` with the subparser of `command` only, or with
    all of them when command is None."""
    parser = argparse.ArgumentParser(
        prog="franel",
        description="Exact telescoping recurrences, certificates, and "
                    "deformation limits for sums of powers of binomial "
                    "coefficients.")
    # with one subparser, the explicit metavar keeps the usage line printed
    # with "unrecognized arguments"; the full parser derives the same one
    # from its choices, and its errors name the positional "command"
    metavar = None if command is None else "{%s}" % ",".join(_COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        func, summary, flags = _COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    # rows and documents may pass Python's 4,300-digit int <-> str limit,
    # which 3.10.0-3.10.6 do not have
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    argv = list(sys.argv[1:] if argv is None else argv)
    # only the subcommand that runs needs its parser; top-level help and a
    # missing or unknown command need them all
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _EXIT_USAGE
    # a failed internal check (a proof, an exact division, a comparison
    # with the direct sum) is exit 4 under every command, as documented
    try:
        return args.func(args)
    except AssertionError as exc:
        print("internal error: %s" % (str(exc) or "a check failed"),
              file=sys.stderr)
        return _EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
