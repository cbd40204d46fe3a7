import time
from functools import lru_cache

import pytest

from franel import sequences
from franel.hyperterm import binom_power_term
from franel.telescoper import (expected_order, solve_at_order,
                               verify_certificate, zeilberger)


@pytest.fixture(scope="session")
def telescoped():
    """Telescoping operator, certificate, and solve time for s = 1..6."""
    results = {}
    for s in range(1, 7):
        t0 = time.time()
        op, cert = zeilberger(binom_power_term(s), 4)
        results[s] = (op, cert, time.time() - t0)
    return results


@pytest.fixture(scope="session")
def order_m_operators():
    """The verified order ceil(s/2) operator and certificate, s = 1..8,
    from the one order-m solve that `telescope` runs."""
    results = {}
    for s in range(1, 9):
        term = binom_power_term(s)
        op, cert = solve_at_order(term, expected_order(s))
        assert verify_certificate(term, op, cert)
        results[s] = (op, cert)
    return results


@pytest.fixture(scope="session")
def table_operators():
    """s -> the frozen table's verified order ceil(s/2) operator and
    certificate, read and verified once per session; s = 11 and 12 take
    about 1-2 s each."""
    return lru_cache(maxsize=None)(sequences._order_m_telescoper)
