"""Reference values computed without the franel package.

The benchmark checks every job against these.  Nothing here imports
franel: the sums are direct `math.comb` sums, the deformed coefficients
for large n come from forward recursion with a frozen operator document,
and the seed values of that recursion come from a direct t-series
expansion written independently of the package.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from math import comb, factorial, isqrt

# zeta(3) to 110 decimals, from mpmath 1.3.0 at 120 digits
ZETA3_DIGITS = ("1.2020569031595942853997381615114499907649862923404988817922"
                "7155534183820578631309018645587360933525814619915780")
ZETA3 = Fraction(ZETA3_DIGITS)
ZETA3_ERROR = Fraction(1, 10 ** 108)


@functools.lru_cache(maxsize=None)
def pi(digits: int = 1600) -> Fraction:
    """pi within 10^-digits: 16 atan(1/5) - 4 atan(1/239) in fixed point.

    The default covers every precision the workloads request (4096 bits is
    1233 decimals), so the oracle's own error stays far below the
    program's.
    """
    one = 10 ** (digits + 10)

    def atan_inv(x):
        total, power, i = 0, x, 0
        while True:
            term = one // ((2 * i + 1) * power)
            if term == 0:
                return total
            total += -term if i % 2 else term
            power *= x * x
            i += 1
    return Fraction(16 * atan_inv(5) - 4 * atan_inv(239), one)


def franel_direct(s: int, n: int) -> int:
    """sum_k binom(n, k)**s."""
    return sum(comb(n, k) ** s for k in range(n + 1))


def _series_mul(a, b, size):
    out = [Fraction(0)] * size
    for i, ai in enumerate(a):
        if ai:
            for j in range(size - i):
                out[i + j] += ai * b[j]
    return out


def deformed_direct(s: int, n: int, J: int):
    """(A_0(n), .., A_J(n)) by direct expansion in t.

    A(n, t) = sum_k binom(n,k)^s [prod_{j<=k} (1 - t/j)
    prod_{j<=n-k} (1 + t/j)]^(-s); A_j(n) is its t^(2j) coefficient.
    Cost grows like n^2, so this only seeds the recursion.
    """
    size = 2 * J + 1
    total = [Fraction(0)] * size
    for k in range(n + 1):
        g = [Fraction(1)] + [Fraction(0)] * (size - 1)
        # multiply by 1/(1 - t/j) for j <= k and 1/(1 + t/j) for j <= n-k
        for j, sign in [(j, 1) for j in range(1, k + 1)] + \
                [(j, -1) for j in range(1, n - k + 1)]:
            step = Fraction(sign, j)
            for i in range(1, size):
                g[i] += step * g[i - 1]
        power = [Fraction(1)] + [Fraction(0)] * (size - 1)
        for _ in range(s):
            power = _series_mul(power, g, size)
        weight = comb(n, k) ** s
        for i in range(size):
            total[i] += weight * power[i]
    for i in range(1, size, 2):
        if total[i]:
            raise AssertionError("odd t-coefficient of the oracle is nonzero")
    return tuple(total[2 * j] for j in range(J + 1))


def _eval_poly(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def operator_coeffs(doc: dict):
    """c_0..c_r of an operator document as ascending integer lists."""
    return [[int(c) for c in poly] for poly in doc["coeffs"]]


def recurrence_rows(coeffs, s: int, n_max: int, J: int, n_first: int = 0):
    """Rows (A_0(n), .., A_J(n)) for n <= n_max.

    sum_i c_i(n) A_j(n + i) = 0 holds for n >= n_first and 2j < s, so rows
    below n_first + r come from `deformed_direct` and the rest from the
    recursion; a row where the leading coefficient vanishes is also
    computed directly.
    """
    if 2 * J >= s and J > 0:
        raise ValueError("the operator annihilates A_j only for 2j < s")
    r = len(coeffs) - 1
    rows = []
    for m in range(n_max + 1):
        n = m - r
        lead = _eval_poly(coeffs[r], n) if n >= n_first else 0
        if lead == 0:
            rows.append(deformed_direct(s, m, J))
            continue
        cs = [_eval_poly(coeffs[i], n) for i in range(r)]
        rows.append(tuple(
            -sum(cs[i] * rows[n + i][j] for i in range(r) if cs[i]) / lead
            for j in range(J + 1)))
    return rows


def franel_by_recurrence(coeffs, n_max: int, n_first: int = 0, s: int = 1):
    """A_0(n) for n <= n_max as exact integers, by forward recursion."""
    r = len(coeffs) - 1
    vals = []
    for m in range(n_max + 1):
        n = m - r
        lead = _eval_poly(coeffs[r], n) if n >= n_first else 0
        if lead == 0:
            vals.append(franel_direct(s, m))
            continue
        acc = -sum(_eval_poly(coeffs[i], n) * vals[n + i] for i in range(r))
        q, rem = divmod(acc, lead)
        if rem:
            raise AssertionError("recursion left a non-integer at n=%d" % m)
        vals.append(q)
    return vals


def apery_direct(n_max: int):
    """[(A(n), B(n))] of the zeta(3) recurrence for n <= n_max.

    A(n) is the binomial double-square sum; B(n) follows the three-term
    recurrence that defines it, from B(0) = 0, B(1) = 1.
    """
    a_vals = [sum((comb(n, k) * comb(n + k, k)) ** 2 for k in range(n + 1))
              for n in range(n_max + 1)]
    b_vals = [Fraction(0), Fraction(1)]
    for n in range(1, n_max):
        lead = (n + 1) ** 3
        mid = (2 * n + 1) * (17 * n * n + 17 * n + 5)
        b_vals.append((mid * b_vals[n] - n ** 3 * b_vals[n - 1]) / lead)
    return list(zip(a_vals, b_vals[:n_max + 1]))


def phi(s: int, J: int):
    """phi_0..phi_J, the t^(2j) coefficients of (t / sin t)^s."""
    size = 2 * J + 1
    sinc = [Fraction((-1) ** (i // 2), factorial(i + 1)) if i % 2 == 0
            else Fraction(0) for i in range(size)]
    inv = [Fraction(1)] + [Fraction(0)] * (size - 1)
    for i in range(1, size):
        inv[i] = -sum(sinc[m] * inv[i - m] for m in range(1, i + 1))
    power = [Fraction(1)] + [Fraction(0)] * (size - 1)
    for _ in range(s):
        power = _series_mul(power, inv, size)
    return tuple(power[2 * j] for j in range(J + 1))


def growth_ratio(a_n: int, s: int, n: int, places: int = 60) -> Fraction:
    """A(n) sqrt(s (pi n / 2)^(s-1)) / 2^(n s), to `places` decimals."""
    square = Fraction(a_n * a_n * s) * (pi() * n / 2) ** (s - 1) \
        / 4 ** (n * s)
    scaled = square * 10 ** (2 * places)
    return Fraction(isqrt(scaled.numerator // scaled.denominator),
                    10 ** places)


def to_fraction(text) -> Fraction:
    """An exact rational from a decimal or p/q string."""
    return Fraction(str(text).strip())


def decimal_string(q: Fraction, places: int) -> str:
    """q rounded to `places` fractional digits."""
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled = (q.numerator * 10 ** places * 2 + q.denominator) \
        // (2 * q.denominator)
    digits = str(scaled).rjust(places + 1, "0")
    return "%s%s.%s" % (sign, digits[:-places], digits[-places:])


_NUMBER = r"([-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)"


def labelled_number(text: str, label: str):
    """The number after `label` at the start of a line, as text, or None."""
    m = re.search(r"^\s*%s\s*[:=]?\s*%s" % (re.escape(label), _NUMBER),
                  text, re.MULTILINE)
    return m.group(1) if m else None
