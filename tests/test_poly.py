"""Sparse polynomial layer: arithmetic, derivations, substitution, degrees."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpv.parsing import parse_poly, parse_ring
from dpv.poly import Polynomial
from dpv.ring import RingContext, pack, unpack, work_done

from _gen import random_poly

RING3 = parse_ring("ring p=3 geom x y z params s t")
RING2 = parse_ring("ring p=2 geom x:1 y:2 params s")
F2 = parse_ring("ring p=2 geom x y z")
F2S = parse_ring("ring p=2 geom x y z params s")


def polys(ring, max_terms=4, max_degree=3):
    seeds = st.integers(0, 2**30)
    return seeds.map(lambda n: random_poly(ring, random.Random(n), max_terms, max_degree))


@given(f=polys(RING3), g=polys(RING3), h=polys(RING3))
@settings(deadline=None, max_examples=120)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f - f).is_zero()
    assert f * Polynomial.one(RING3) == f
    assert (f * Polynomial.zero(RING3)).is_zero()


@given(f=polys(RING3), g=polys(RING3))
@settings(deadline=None, max_examples=120)
def test_diff_leibniz_all_derivations(f, g):
    # geometric variables and base-field parameters alike
    for var in ("x", "y", "z", "s", "t"):
        lhs = (f * g).diff(var)
        rhs = f.diff(var) * g + f * g.diff(var)
        assert lhs == rhs, var


@given(f=polys(RING3), g=polys(RING3))
@settings(deadline=None, max_examples=80)
def test_substitute_is_a_homomorphism(f, g):
    target = parse_ring("ring p=3 geom u v params s t")
    images = {
        "x": parse_poly(target, "u*v+1"),
        "y": parse_poly(target, "v^2"),
        "z": parse_poly(target, "u+2*v"),
    }
    assert (f + g).substitute(images) == f.substitute(images) + g.substitute(images)
    assert (f * g).substitute(images) == f.substitute(images) * g.substitute(images)


def test_substitute_keeps_parameters():
    f = parse_poly(RING3, "s*x^2+t*y+1")
    target = parse_ring("ring p=3 geom u params s t")
    u = parse_poly(target, "u")
    images = {"x": u, "y": u, "z": Polynomial.zero(target)}
    assert f.substitute(images) == parse_poly(target, "s*u^2+t*u+1")
    # parameters are part of the base field, not substitutable variables
    with pytest.raises(KeyError):
        f.substitute({"s": 1})


def test_substitute_ignores_unused_missing_variables():
    # z does not occur, so the map may omit it even across ring changes
    f = parse_poly(RING3, "x*y+s")
    target = parse_ring("ring p=3 geom x y params s t")
    images = {"x": parse_poly(target, "x"), "y": parse_poly(target, "y^2")}
    assert f.substitute(images, target) == parse_poly(target, "x*y^2+s")


def test_pth_root_and_power_p2():
    # None off the squares: s is no square in F_2(s), and x^1 is no square
    assert parse_poly(RING2, "x^2+s*y^2").pth_root() is None
    assert parse_poly(RING2, "x+y^2").pth_root() is None
    g = parse_poly(RING2, "x^2+s^2*y^2")
    r = g.pth_root()
    assert r * r == g
    assert r == parse_poly(RING2, "x+s*y")


@given(f=polys(RING2, max_terms=3, max_degree=2))
@settings(deadline=None, max_examples=80)
def test_pth_power_roundtrip_p2(f):
    sq = f * f
    if sq.is_zero():
        return
    # Frobenius is injective, so the root of f^2 is f itself
    assert sq.pth_root() == f


DENOMINATORS = ("s", "t+1", "s+t", "s*t+s+t", "s^2+t")


@given(
    f=polys(RING3),
    g=polys(RING3),
    a=st.sampled_from(DENOMINATORS),
    b=st.sampled_from(DENOMINATORS),
)
@settings(deadline=None, max_examples=80)
def test_clear_denominators_is_a_polynomial_unit_multiple(f, g, a, b):
    inv_a = parse_poly(RING3, a).constant_coefficient().inverse()
    inv_b = parse_poly(RING3, b).constant_coefficient().inverse()
    h = f * inv_a + g * inv_b
    cleared = h.clear_denominators()
    assert all(c.is_polynomial() for c in cleared.terms.values())
    if h.is_zero():
        assert cleared.is_zero()
        return
    e = next(iter(h.terms))
    factor = cleared.terms[e] / h.terms[e]
    assert factor.is_polynomial() and not factor.is_zero()
    assert h * factor == cleared


@given(f=polys(RING3))
@settings(deadline=None, max_examples=40)
def test_clear_denominators_keeps_polynomial_input(f):
    assert f.clear_denominators() == f


def test_clear_denominators_uses_the_lcm():
    f = parse_poly(RING3, "x/(s*t) + y/(s^2+s) + z")
    assert f.clear_denominators() == parse_poly(RING3, "(s+1)*x + t*y + (s^2*t+s*t)*z")


def test_dehomogenize():
    ring = parse_ring("ring p=3 geom x y z params s")
    f = parse_poly(ring, "x^2*y+s*z^3")
    g = f.dehomogenize("y")
    assert tuple(g.ring.geom) == ("x", "z")
    assert g == parse_poly(g.ring, "x^2+s*z^3")
    assert f.dehomogenize("x", "y") == parse_poly(ring.without_geom_var("x", "y"), "1+s*z^3")
    # the error names the variable whose weight is not 1
    with pytest.raises(ValueError, match="y has weight 2"):
        parse_poly(RING2, "y").dehomogenize("x", "y")


def test_total_degree_and_str_roundtrip():
    f = parse_poly(RING3, "x^2*y+2*z+s*t")
    assert f.total_degree() == 3
    assert parse_poly(RING3, str(f)) == f


@given(f=polys(RING3))
@settings(deadline=None, max_examples=150)
def test_parse_str_roundtrip(f):
    assert parse_poly(RING3, str(f)) == f


def test_change_ring_requires_compatible_names():
    bigger = RING3.with_extra_geom_vars(("w",))
    f = parse_poly(RING3, "x+s*y")
    lifted = f.change_ring(bigger)
    assert str(lifted) == str(f)
    with pytest.raises(KeyError):
        parse_poly(bigger, "w").change_ring(RING3)
    # z is unused, so a ring without it (and in another order) takes f
    smaller = parse_ring("ring p=3 geom y x params s t")
    assert f.change_ring(smaller) == parse_poly(smaller, "x+s*y")
    # the base field F_p(params) must stay the same
    for decl in ("p=5 geom x y z params s t", "p=3 geom x y z params t s", "p=3 geom x y z params s"):
        other = parse_ring("ring " + decl)
        with pytest.raises(ValueError):
            f.change_ring(other)
        with pytest.raises(ValueError):
            f.substitute({"x": 1}, other)


@given(f=polys(F2), g=polys(F2S))
@settings(deadline=None, max_examples=60)
def test_change_ring_moves_exponents_only(f, g):
    # embed into a ring with an extra variable in the middle and the old ones
    # permuted, then project back: the identity, with the same coefficient
    # objects and no work units, over F_2 and over F_2(s)
    for h in (f, g):
        ring = h.ring
        big = RingContext(ring.p, ("z", "w", "x", "y"), (1, 1, 1, 1), ring.params)
        before = work_done()
        up = h.change_ring(big)
        down = up.change_ring(ring)
        assert work_done() == before
        assert down == h
        exps = {k: unpack(k, ring.ngeom) for k in h.terms}
        assert all(up.terms[pack((e[2], 0, e[0], e[1]))] is h.terms[k] for k, e in exps.items())
        assert all(down.terms[e] is c for e, c in h.terms.items())


@pytest.mark.parametrize("other", [1.5, "a"])
def test_subtraction_from_a_foreign_operand_names_minus(other):
    f = parse_poly(F2, "x")
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -: "):
        other - f
