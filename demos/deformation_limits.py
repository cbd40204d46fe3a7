#!/usr/bin/env python3
"""The deformed sums, their coefficient sequences, and their limits.

Perturbing each binomial term by a parameter t gives a power series
A(n, t) = sum_j A_j(n) t^(2j) whose even coefficients satisfy the very
recurrence produced by the telescoper, and whose ratios A_j(n)/A_0(n)
converge to phi_j * pi^(2j), with phi_j the t^(2j) coefficient of
(t/sin t)**s.  All series coefficients below are exact rationals.
"""

from franel import (apply_operator, binom_power_term, coefficient_row,
                    coefficient_table, deformed, limit_report, phi,
                    zeilberger)

s = 3
print(f"deformed sums for s = {s}:")
for n in range(5):
    d = deformed(s, n, J=2)
    print(f"  n={n}: " + " + ".join(
        f"({d[2 * j]}) t^{2 * j}" for j in range(3)))
print("(odd coefficients are checked to vanish on every construction)\n")

table = coefficient_table(s, n_max=8, J=1)
print("coefficient table (A_0 is the plain row sum):")
for n, row in enumerate(table.rows):
    print(f"  n={n:2d}  A_0 = {str(row[0]):>6}  A_1 = {row[1]}")
print()

op, cert = zeilberger(binom_power_term(s), 2)
rows = [coefficient_row(s, n, J=1) for n in range(30 + op.order + 1)]
zero = all(apply_operator(op, [row[j] for row in rows], n) == 0
           for j in range(2) for n in range(31))
print(f"operator annihilates A_0 and A_1 for n = 0..30: {zero}\n")

print("phi coefficients of (t/sin t)^s for s = 3, 5:")
for ss in (3, 5):
    print(f"  s={ss}: {list(phi(ss, 2).phis)}")
print()

print("limit estimates at n = 60 (256-bit enclosures):")
for rep in limit_report(s, n_max=60, J=1, precision_bits=256):
    print(f"  j={rep.j}: estimate {rep.estimate.decimal(30)}")
    print(f"        target   {rep.target.decimal(30)}")
    print(f"        |error| <= {float(rep.abs_error.abs_upper()):.3e}")
    if rep.successive_diff_ratio is not None:
        print(f"        successive error ratio ~ "
              f"{float(rep.successive_diff_ratio.to_fraction()):.4f} "
              f"(the subdominant/dominant root ratio is 1/8)")
    if rep.normalized_estimate is not None:
        print(f"        normalized to initial value 1: "
              f"{rep.normalized_estimate.decimal(30)}")
        print(f"        which approaches zeta(2)/(s+1) = "
              f"{rep.normalized_target.decimal(30)}")
