"""Slow exact path of franel.bigfloat, kept as an oracle: Machin's pi with
each arctangent term one floor division by (2i+1) x**(2i+1)."""

from franel.bigfloat import BigFloat, _err_norm


def reference_pi(prec: int) -> BigFloat:
    work = prec + 32

    def atan_inv(x: int):
        total = 0
        power = x
        i = 0
        while True:
            term = (1 << work) // ((2 * i + 1) * power)
            if term == 0:
                break
            total += term if i % 2 == 0 else -term
            power *= x * x
            i += 1
        return total, i + 1  # value, error in units of 2**-work

    a5, e5 = atan_inv(5)
    a239, e239 = atan_inv(239)
    man = 16 * a5 - 4 * a239
    units = 16 * e5 + 4 * e239
    return BigFloat(man, -work, _err_norm(units, -work), prec)
