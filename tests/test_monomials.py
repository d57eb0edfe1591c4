"""Packed geometric monomials against a textbook reference on exponent tuples.

The reference below keeps a polynomial as {exponent tuple: coefficient} and
knows nothing of the packed layout; keys cross over only through pack and
unpack.  Its coefficient arithmetic goes through the ring's domain, whose
canonical forms make equal field elements compare equal.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpv.groebner import Inconclusive, reduce
from dpv.orders import elimination, grevlex, lex
from dpv.parsing import parse_poly, parse_ring
from dpv.poly import Polynomial
from dpv.ring import MAX_DEGREE, RingContext, degree, divides, lcm, pack, unpack

from _gen import random_poly

NAMES = ("x", "y", "z", "w")


# -- the textbook reference ---------------------------------------------------


def textbook_key(order, e):
    """Ascending in the order: a larger monomial has a larger key."""

    def grevlex_key(v):
        return (sum(v), tuple(-x for x in reversed(v)))

    if order.kind == "grevlex":
        return grevlex_key(e)
    if order.kind == "lex":
        return tuple(e)
    rest = [i for i in range(order.n) if i not in order.block]
    return (grevlex_key([e[i] for i in order.block]), grevlex_key([e[i] for i in rest]))


def tuples(f):
    return {unpack(k, f.ring.ngeom): c for k, c in f.terms.items()}


def ref_add(dom, a, b):
    out = dict(a)
    for e, c in b.items():
        v = dom.add(out[e], c) if e in out else c
        if dom.is_zero(v):
            out.pop(e, None)
        else:
            out[e] = v
    return out


def ref_mul(dom, a, b):
    out = {}
    for (ea, ca), (eb, cb) in itertools.product(a.items(), b.items()):
        out = ref_add(dom, out, {tuple(x + y for x, y in zip(ea, eb)): dom.mul(ca, cb)})
    return out


def ref_substitute(f, name, image):
    """f with the variable name replaced by image, a polynomial of f's ring,
    expanded term by term."""
    dom = f.ring.domain
    i = f.ring.geom_index(name)
    img = tuples(image)
    out = {}
    for e, c in tuples(f).items():
        term = {e[:i] + (0,) + e[i + 1 :]: c}
        for _ in range(e[i]):
            term = ref_mul(dom, term, img)
        out = ref_add(dom, out, term)
    return out


# -- the properties -----------------------------------------------------------


def exps(n, top=6):
    return st.lists(st.integers(0, top), min_size=n, max_size=n).map(tuple)


@given(data=st.data(), n=st.integers(1, 4))
@settings(deadline=None, max_examples=200)
def test_key_helpers_follow_the_exponent_tuples(data, n):
    a, b = data.draw(exps(n)), data.draw(exps(n))
    ka, kb = pack(a), pack(b)
    assert divides(ka, kb) == all(x <= y for x, y in zip(a, b))
    assert lcm(ka, kb) == pack(tuple(map(max, a, b)))
    assert degree(ka) == sum(a)
    assert ka + kb == pack(tuple(x + y for x, y in zip(a, b)))
    block = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    for order in (grevlex(n), lex(n), elimination(n, block)):
        # ascending rkey is descending in the order
        assert (order.rkey(ka) < order.rkey(kb)) == (textbook_key(order, a) > textbook_key(order, b))


@pytest.mark.parametrize("p, params", [(2, ()), (3, ("s",))])
@given(seed=st.integers(0, 2**30))
@settings(deadline=None, max_examples=60)
def test_ring_changes_follow_the_exponent_tuples(p, params, seed):
    rng = random.Random(seed)
    ring = RingContext(p, NAMES[:3], (1, 1, 1), params)
    f = random_poly(ring, rng, 5, 3)
    dom = ring.domain
    # change_ring: each exponent moves to its variable's slot in the target
    big = RingContext(p, ("w", "z", "x", "y"), (1, 1, 1, 1), params)
    assert tuples(f.change_ring(big)) == {(0, e[2], e[0], e[1]): c for e, c in tuples(f).items()}
    # dehomogenize: drop the slot and add the terms that meet
    want = {}
    for e, c in tuples(f).items():
        want = ref_add(dom, want, {e[:1] + e[2:]: c})
    assert tuples(f.dehomogenize("y")) == want
    # substitute: expand each term against the image
    image = random_poly(ring, rng, 3, 2)
    assert tuples(f.substitute({"y": image})) == ref_substitute(f, "y", image)
    # to a constant, into the ring without the variable
    small = ring.without_geom_var("y")
    a = rng.randrange(p)
    got = f.substitute({"y": a}, small)
    want = ref_substitute(f, "y", Polynomial.constant(ring, a))
    assert tuples(got) == {e[:1] + e[2:]: c for e, c in want.items()}


@pytest.mark.parametrize("p, params", [(2, ()), (3, ("s",))])
@given(seed=st.integers(0, 2**30))
@settings(deadline=None, max_examples=60)
def test_dropping_two_variables_at_once_drops_them_in_turn(p, params, seed):
    rng = random.Random(seed)
    ring = RingContext(p, NAMES, (1, 1, 1, 1), params)
    f = random_poly(ring, rng, 6, 4)
    a, b = rng.sample(NAMES, 2)
    assert ring.without_geom_var(a, b) == ring.without_geom_var(a).without_geom_var(b)
    assert f.dehomogenize(a, b) == f.dehomogenize(a).dehomogenize(b)


# -- the limits of the layout ---------------------------------------------------


def test_geometric_limits_raise_and_never_wrap():
    with pytest.raises(ValueError, match=r"^17 geometric variables are too many \(at most 16\)$"):
        RingContext(3, tuple(f"x{i}" for i in range(17)), (1,) * 17)
    ring = parse_ring("ring p=3 geom x y")
    x20000 = parse_poly(ring, "x^20000")
    with pytest.raises(Inconclusive, match=f"^geometric degree above {MAX_DEGREE}$"):
        x20000 * x20000
    # degree MAX_DEGREE itself fits
    assert str(x20000 * parse_poly(ring, "x^12766*(y+1)")) == "x^32766*y + x^32766"
    # under lex the tail of x - y^20000 outgrows the term it replaces:
    # x^2 -> x*y^20000 -> y^40000
    f, g = parse_poly(ring, "x^2"), parse_poly(ring, "x - y^20000")
    with pytest.raises(Inconclusive, match=f"^geometric degree above {MAX_DEGREE}$"):
        reduce(f, [g], lex(2))
    # under grevlex y^20000 leads, and x^2 is already reduced
    assert reduce(f, [g], grevlex(2)) == f
