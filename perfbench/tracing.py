"""Spans around the calls franel's modules make into each other.

`Tracer.install` wraps each target function and binds the wrapper to every
name in every loaded `franel` module that held the original, which covers
both the names a consuming module imported (`franel.cli.zeilberger`,
`franel.limits.coefficient_row`) and the defining module's own global, used
for calls inside that module (`coefficient_table` -> `coefficient_row`).
`Tracer.restore` puts every original back.  The program itself is not
changed and keeps no counters of its own.

A span is `[name, start, end, parent, job, counts]`; `counts` holds numbers
computed from the call's arguments and result at the boundary.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_bareiss(args, kwargs, result, exc):
    return {"cells": len(args[0]) ** 2}


def _count_nullspace(args, kwargs, result, exc):
    matrix = args[0]
    cells = len(matrix) * len(matrix[0]) if matrix else 0
    bits = max((e.max_coeff_bits() for row in matrix for e in row),
               default=0)
    return {"cells": cells, "in_bits_max": bits,
            "useful": int(bool(result))}


def _count_zeilberger(args, kwargs, result, exc):
    if result is not None:
        first = 0 if kwargs.get("allow_order_zero") else 1
        return {"orders": result[0].order - first + 1, "solved": 1}
    return {"orders": len(getattr(exc, "orders_tried", ())), "solved": 0}


def _count_parse(args, kwargs, result, exc):
    return {"bytes": len(args[0])}


def _count_document_bytes(args, kwargs, result, exc):
    return {"bytes": len(result) if result is not None else 0}


def _count_row(args, kwargs, result, exc):
    return {"k_steps": _arg(args, kwargs, 1, "n")}


def _count_franel(args, kwargs, result, exc):
    return {"terms": _arg(args, kwargs, 1, "n") + 1}


def _count_pi(args, kwargs, result, exc):
    return {"bits": _arg(args, kwargs, 0, "prec", 256)}


# (defining module, attribute, counter, names of the counter's counts);
# attributes with a dot live on a class
TARGETS = (
    ("franel.linalg", "bareiss_determinant", _count_bareiss, ("cells",)),
    ("franel.linalg", "fraction_free_nullspace", _count_nullspace,
     ("cells", "in_bits_max", "useful")),
    ("franel.telescoper", "zeilberger", _count_zeilberger,
     ("orders", "solved")),
    ("franel.telescoper", "verify_certificate", None, ()),
    ("franel.telescoper", "certificate_residual", None, ()),
    ("franel.telescoper", "analyze_structure", None, ()),
    ("franel.bipoly", "poly_gcd", None, ()),
    ("franel.intpoly", "integer_roots", None, ()),
    ("franel.intpoly", "poly_gcd_int", None, ()),
    ("franel.hyperterm", "shift_quotient_products", None, ()),
    ("franel.operators", "normalize_operator_coeffs", None, ()),
    ("franel.documents", "parse_operator_document", _count_parse,
     ("bytes",)),
    ("franel.documents", "document_bytes", _count_document_bytes,
     ("bytes",)),
    ("franel.sequences", "coefficient_row", _count_row, ("k_steps",)),
    ("franel.sequences", "coefficient_table", None, ()),
    ("franel.sequences", "franel", _count_franel, ("terms",)),
    ("franel.sequences", "apery_zeta3", None, ()),
    ("franel.limits", "phi", None, ()),
    ("franel.limits", "limit_report", None, ()),
    ("franel.limits", "asymptotic_ratio", None, ()),
    ("franel.bigfloat", "pi", _count_pi, ("bits",)),
    ("franel.bigfloat", "BigFloat.from_fraction", None, ()),
    ("franel.bigfloat", "BigFloat.sqrt", None, ()),
)


def label(module_name: str, attr: str) -> str:
    """The span name of a target: module without the package, attribute."""
    return module_name.split(".", 1)[1] + "." + attr


def _franel_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "franel"
                                  or name.startswith("franel."))]


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._patches = []  # (owner, key, original)

    def _wrap(self, name, func, counter):
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            result = exc = None
            rec[1] = perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if counter is not None:
                    rec[5] = counter(args, kwargs, result, exc)

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _franel_modules()
        for module_name, attr, counter, _ in TARGETS:
            name = label(module_name, attr)
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, key = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[key]
                if isinstance(original, classmethod):
                    patched = classmethod(
                        self._wrap(name, original.__func__, counter))
                else:
                    patched = self._wrap(name, original, counter)
                self._patches.append((owner, key, original))
                setattr(owner, key, patched)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def restore(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def root(self, name, job):
        """Open a root span for one job; returns a function closing it."""
        self.job = job
        rec = [name, 0.0, 0.0, -1, job, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()

        def close():
            rec[2] = perf_counter()
            self._stack.pop()
            self.job = None
        return close


def aggregate(spans, lo=0, hi=None):
    """Per span name over spans[lo:hi]: calls, total_s, self_s and counts.

    total_s counts only spans with no enclosing span of the same name, so
    recursion is not counted twice; self_s is a span's duration minus the
    durations of its direct children (spans of one thread nest, so those
    never overlap).  Counts named `*_max` take the maximum, others the sum.
    """
    hi = len(spans) if hi is None else hi
    child = [0.0] * (hi - lo)
    for rec in spans[lo:hi]:
        if rec[3] >= lo:
            child[rec[3] - lo] += rec[2] - rec[1]
    stats = defaultdict(lambda: defaultdict(float))
    for i in range(lo, hi):
        name, start, end, parent, _, counts = spans[i]
        st = stats[name]
        st["calls"] += 1
        st["self_s"] += (end - start) - child[i - lo]
        while parent >= lo and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < lo:
            st["total_s"] += end - start
        for key, value in (counts or {}).items():
            if key.endswith("_max"):
                st[key] = max(st[key], value)
            else:
                st[key] += value
    return stats
