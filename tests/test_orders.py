"""Monomial orders: total, multiplicative, with 1 minimal; elimination blocks.

An order's only key, rkey, sorts the largest monomial first, so "a is larger
than b" reads rkey(a) < rkey(b).  Monomials are written here as exponent
tuples and handed to rkey packed (rk)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpv.orders import elimination, grevlex, lex
from dpv.ring import pack

EXPS = st.tuples(*([st.integers(0, 6)] * 4))


def rk(order, e):
    return order.rkey(pack(e))


@pytest.mark.parametrize("make", [grevlex, lex])
@given(a=EXPS, b=EXPS, c=EXPS)
@settings(deadline=None, max_examples=200)
def test_order_axioms(make, a, b, c):
    order = make(4)
    ka, kb = rk(order, a), rk(order, b)
    # total: keys decide, ties only on equality
    assert (ka == kb) == (a == b)
    # multiplicative: adding c preserves strict comparisons
    ac = tuple(x + y for x, y in zip(a, c))
    bc = tuple(x + y for x, y in zip(b, c))
    if ka < kb:
        assert rk(order, ac) < rk(order, bc)
    # 1 is minimal
    one = (0, 0, 0, 0)
    if a != one:
        assert rk(order, one) > ka


@given(a=EXPS, b=EXPS)
@settings(deadline=None, max_examples=200)
def test_elimination_block_dominates(a, b):
    order = elimination(4, (0, 1))
    ka, kb = rk(order, a), rk(order, b)
    # anything touching the block beats everything outside it
    if any(a[i] for i in (0, 1)) and not any(b[i] for i in (0, 1)):
        assert ka < kb
    # order restricted to the block-free part is still a monomial order
    if ka == kb:
        assert a == b


def test_grevlex_classic_comparisons():
    order = grevlex(3)
    # same total degree: grevlex prefers the monomial with smaller last exponent
    assert rk(order, (1, 1, 0)) < rk(order, (1, 0, 1))
    assert rk(order, (0, 2, 0)) < rk(order, (1, 0, 1))
    assert rk(order, (2, 0, 0)) < rk(order, (0, 2, 0))
    # degree dominates everything else
    assert rk(order, (0, 0, 3)) < rk(order, (2, 0, 0))


def test_lex_classic_comparisons():
    order = lex(3)
    assert rk(order, (1, 0, 0)) < rk(order, (0, 9, 9))
    assert rk(order, (1, 1, 0)) < rk(order, (1, 0, 9))


def test_elimination_requires_block():
    with pytest.raises(ValueError):
        elimination(3, ())
