"""The document decoder before the one-pass one, kept as the oracle: every
record checked into a dict of monomials, then one BiPoly built from it."""

from franel.bipoly import BiPoly
from franel.documents import _decimal, _is_int
from franel.errors import DocumentError


def reference_bipoly_from_json(data) -> BiPoly:
    if not isinstance(data, list):
        raise DocumentError("bivariate polynomial must be a list of records")
    terms = {}
    for rec in data:
        if (not isinstance(rec, list) or len(rec) != 3
                or not _is_int(rec[1]) or not _is_int(rec[2])
                or rec[1] < 0 or rec[2] < 0):
            raise DocumentError("bad monomial record %r" % (rec,))
        coef = _decimal(rec[0])
        if coef == 0:
            raise DocumentError("zero coefficient stored in %r" % (rec,))
        key = (rec[1], rec[2])
        if key in terms:
            raise DocumentError("duplicate monomial %r" % (rec,))
        terms[key] = coef
    return BiPoly(terms)
