"""Bernoulli numbers as exact rationals, and the zeta-value route to the
deformation limits; kept as oracles for `franel.limits.phi` and for the
Euler-Maclaurin check of the frozen zeta(3).

Convention: B_1 = -1/2 (the one under which sum_{i=0}^{m} C(m+1, i) B_i = 0
for every m >= 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial


@dataclass(frozen=True)
class BernoulliTable:
    values: tuple  # B_0 .. B_M

    def __post_init__(self):
        assert self.values[0] == 1
        for i in range(3, len(self.values), 2):
            assert self.values[i] == 0, "odd Bernoulli number B_%d nonzero" % i

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)


def bernoulli(m_max: int) -> BernoulliTable:
    """Exact B_0 .. B_{m_max} from the defining recurrence."""
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    values = [Fraction(1)]
    for m in range(1, m_max + 1):
        acc = Fraction(0)
        for i in range(m):
            if values[i]:
                acc += comb(m + 1, i) * values[i]
        values.append(-acc / (m + 1))
    return BernoulliTable(tuple(values))


def pi_sin_zeta_coeffs(J: int) -> tuple:
    """Rationals r_j with [t^(2j)] (pi t / sin(pi t)) = r_j * pi^(2j).

    The coefficient equals (2 - 2^(2-2j)) zeta(2j), and zeta(2j) is the
    classical Bernoulli multiple of pi^(2j); combining the two yields an
    exact rational.
    """
    if J < 0:
        raise ValueError("J must be nonnegative")
    table = bernoulli(2 * J)
    out = [Fraction(1)]
    for j in range(1, J + 1):
        zeta_ratio = (Fraction((-1) ** (j + 1)) * table[2 * j]
                      * 2 ** (2 * j) / (2 * factorial(2 * j)))
        out.append((2 - Fraction(2) ** (2 - 2 * j)) * zeta_ratio)
    return tuple(out)
