"""Slow exact paths kept as test oracles: the row sum by stepping its terms,
and annihilation over a window of n, the operator applied to the direct
rows with every residue an exact rational."""

from dataclasses import dataclass

from franel.operators import RecurrenceOperator, apply_operator
from franel.sequences import coefficient_row


def reference_franel(s: int, n: int) -> int:
    """Sum of binom(n, k)**s over k = 0..n, the power stepped by its ratio
    (n-k)^s / (k+1)^s, an exact division as binom(n, k+1)**s is an
    integer; by symmetry the terms k < (n+1)/2 are summed twice, plus the
    middle term when n is even."""
    total = 0
    p = 1
    for k in range((n + 1) // 2):
        total += p
        p = p * (n - k) ** s // (k + 1) ** s
    total *= 2
    if n % 2 == 0:
        total += p
    return total


@dataclass(frozen=True)
class AnnihilationReport:
    s: int
    j_max: int
    n_from: int
    n_to: int
    violations: tuple  # (j, n, exact residue) triples
    first_zero_run_start: tuple  # per j: first n with zero residues onward

    @property
    def all_zero(self) -> bool:
        return not self.violations


def annihilation_check(s: int, op: RecurrenceOperator, j_max: int,
                       n_from: int, n_to: int) -> AnnihilationReport:
    """Apply the operator to every coefficient sequence A_j, j <= j_max.

    The rows come from the direct kernel.  Any nonzero residue is reported
    as data together with the first n from which the residues stay zero
    through n_to (None when they never settle).
    """
    if n_from < 0 or n_to < n_from:
        raise ValueError("need 0 <= n_from <= n_to")
    rows = [coefficient_row(s, n, j_max)
            for n in range(n_to + op.order + 1)]
    violations = []
    first_zero = []
    for j in range(j_max + 1):
        seq = [row[j] for row in rows]
        last_bad = None
        for n in range(n_from, n_to + 1):
            residue = apply_operator(op, seq, n)
            if residue != 0:
                violations.append((j, n, residue))
                last_bad = n
        first_zero.append(n_from if last_bad is None
                          else (last_bad + 1 if last_bad < n_to else None))
    return AnnihilationReport(s, j_max, n_from, n_to, tuple(violations),
                              tuple(first_zero))
