"""Integer intersection arithmetic: lattices, K^2 formulas, fibration lemmas."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpv.lattice import (
    DivisorLattice,
    blowup_k2,
    conic_bundle_bound,
    conic_fibration,
    cover_lattice,
    hypersurface_lattice,
    index_two_check,
    k2_weighted_ci,
    negcurve_divisibility,
    product,
    rr_chi,
    ruled_k2,
    secant_selfint,
)


def test_k2_weighted_ci_table_values():
    assert k2_weighted_ci([1, 1, 2, 3], [6]) == 1
    assert k2_weighted_ci([1, 1, 1, 2], [4]) == 2
    assert k2_weighted_ci([1, 1, 1, 1], [3]) == 3
    assert k2_weighted_ci([1, 1, 1, 1, 1], [2, 2]) == 4
    assert k2_weighted_ci([1, 1, 1], []) == 9  # the plane itself
    assert k2_weighted_ci([1, 1, 1, 1], [2]) == 8  # a quadric surface
    assert isinstance(k2_weighted_ci([1, 1, 2, 3], [6]), Fraction)


def test_k2_weighted_ci_validation():
    with pytest.raises(ValueError):
        k2_weighted_ci([1, 1, 1], [2])  # not a surface
    with pytest.raises(ValueError):
        k2_weighted_ci([1, 1, 0, 1], [2])


def test_divisor_lattice_basics():
    lat = DivisorLattice(((1, 0), (0, -1)), (-3, 1))
    k = lat.canonical
    assert product(lat, k, k) == 8
    v = (1, -1)  # ruling class h - e
    assert product(lat, v, v) == 0
    assert product(lat, v, k) == -2
    w = (2, -3)  # 2v - e
    assert product(lat, w, w) == 4 * 0 - 4 * product(lat, v, (0, 1)) + (-1)


def test_divisor_lattice_validation():
    with pytest.raises(ValueError):
        DivisorLattice(((1, 2), (3, 4)), (0, 0))  # not symmetric
    with pytest.raises(ValueError):
        DivisorLattice(((1, 0), (0,)), (0, 0))  # not square
    with pytest.raises(ValueError):
        DivisorLattice(((1,),), (0, 0))  # canonical length


def test_product_rejects_foreign_vectors():
    lat = DivisorLattice(((3, 0), (0, -1)), (0, 0))
    v = (-1, -3)
    assert product(lat, v, v) == 3 - 9 == -6
    for bad in ((2,), (2, 2, 2)):
        with pytest.raises(ValueError, match="coordinate length mismatch"):
            product(lat, v, bad)
        with pytest.raises(ValueError, match="coordinate length mismatch"):
            product(lat, bad, v)


def test_hypersurface_lattice_bidegree_21():
    lat = hypersurface_lattice([2, 1], [2, 1])
    assert lat.gram == ((1, 2), (2, 0))
    assert lat.canonical == (-1, -1)
    assert product(lat, lat.canonical, lat.canonical) == 5


def test_cover_lattice():
    lat = cover_lattice([1, 1], [1, 1])
    assert lat.gram == ((0, 2), (2, 0))
    assert lat.canonical == (-1, -1)
    assert product(lat, lat.canonical, lat.canonical) == 4
    for bidegree in ([1], [1, 1, 1]):  # one bidegree per factor
        with pytest.raises(ValueError, match="one degree per factor"):
            cover_lattice([1, 1], bidegree)


def test_blowup_and_ruled():
    assert blowup_k2(9, 4) == 5
    assert blowup_k2(8, 2) == 6
    assert blowup_k2(4, 1) == 3
    assert ruled_k2(0) == 8
    assert ruled_k2(1) == 0


def test_rr_chi():
    assert rr_chi(1, 4, -4) == 5
    assert rr_chi(1, 16, -8) == 13
    assert isinstance(rr_chi(1, 4, -4), Fraction)
    assert rr_chi(1, 1, 0) == Fraction(3, 2)


def test_index_two_check():
    assert index_two_check(2, 1) == ("non_integral", Fraction(3, 2))
    assert index_two_check(2, 2) == ("integral", Fraction(3))
    assert index_two_check(3, 1) == ("integral", Fraction(2))


@given(r=st.integers(0, 50), h2=st.integers(1, 50))
@settings(deadline=None, max_examples=100)
def test_index_two_parity(r, h2):
    verdict, value = index_two_check(r, h2)
    assert value == Fraction(h2 * (1 + r), 2)
    assert (verdict == "integral") == (h2 * (1 + r) % 2 == 0)


def test_negcurve_divisibility():
    assert negcurve_divisibility(1) == "consistent"
    assert negcurve_divisibility(2) == "consistent"
    assert negcurve_divisibility(3) == "contradiction"
    with pytest.raises(ValueError):
        negcurve_divisibility(0)


def test_conic_fibration():
    assert conic_fibration(2) == {"b": 2, "c": 2, "k2": 4}
    assert conic_fibration(4) == {"b": 2, "c": 2, "k2": 2}
    assert conic_fibration(3) == "non-integral"
    assert conic_fibration(8) == {"b": 2, "c": 2, "k2": 1}
    with pytest.raises(ValueError):
        conic_fibration(0)


def test_conic_bundle_bound():
    assert conic_bundle_bound(5, 10) == []
    assert conic_bundle_bound(4, 10) == [1]
    assert conic_bundle_bound(1, 4) == [1, 2, 3, 4]
    assert conic_bundle_bound(2, 100) == [1, 2]


@given(k2=st.integers(1, 30), amax=st.integers(1, 60))
@settings(deadline=None, max_examples=100)
def test_conic_bundle_bound_matches_brute_force(k2, amax):
    assert conic_bundle_bound(k2, amax) == [a for a in range(1, amax + 1) if a * k2 <= 4]


def test_secant_selfint():
    assert secant_selfint(2, 5, 1, 4) == 1  # 16 - 40 + 25
    assert secant_selfint(0, 5, 1, 4) == 25
    assert secant_selfint(1, 1, 0, 4) == 0


@given(m=st.integers(0, 6), degc=st.integers(1, 9), genus=st.integers(0, 5), n=st.integers(2, 6))
@settings(deadline=None, max_examples=100)
def test_secant_selfint_formula(m, degc, genus, n):
    assert secant_selfint(m, degc, genus, n) == m**4 - 4 * m * degc + (
        (n + 1) * degc + 2 * genus - 2
    )


@given(
    v=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    w=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
)
@settings(deadline=None, max_examples=100)
def test_product_bilinear_symmetric(v, w):
    lat = DivisorLattice(((1, 0), (0, -1)), (-3, 1))
    vw = tuple(a + b for a, b in zip(v, w))
    assert product(lat, v, w) == product(lat, w, v)
    assert product(lat, vw, vw) == product(lat, v, v) + 2 * product(lat, v, w) + product(lat, w, w)
    assert product(lat, tuple(3 * a for a in v), w) == 3 * product(lat, v, w)
