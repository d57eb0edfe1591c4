"""Exact intersection-theoretic and numerical bookkeeping.

Integer and Fraction arithmetic only: gram-matrix products over a divisor
basis, canonical self-intersection numbers for weighted complete
intersections and blow-ups, Riemann-Roch counts, and the small divisibility
lemmas that pin down fibration structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod


@dataclass(frozen=True)
class DivisorLattice:
    """Integer gram matrix over a named divisor basis, with the class of K."""

    basis: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]
    canonical: tuple[int, ...]

    def __post_init__(self):
        n = len(self.basis)
        if len(set(self.basis)) != n:
            raise ValueError("basis labels must be unique")
        if len(self.gram) != n or any(len(row) != n for row in self.gram):
            raise ValueError("gram matrix shape mismatch")
        for i in range(n):
            for j in range(n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        if len(self.canonical) != n:
            raise ValueError("canonical class length mismatch")

    def vector(self, coords) -> "ClassVector":
        return ClassVector(self, tuple(coords))

    def k(self) -> "ClassVector":
        return ClassVector(self, self.canonical)


@dataclass(frozen=True)
class ClassVector:
    lattice: DivisorLattice
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != len(self.lattice.basis):
            raise ValueError("coordinate length mismatch")

    def __neg__(self) -> "ClassVector":
        return ClassVector(self.lattice, tuple(-c for c in self.coords))

    def __add__(self, other: "ClassVector") -> "ClassVector":
        if self.lattice != other.lattice:
            raise ValueError("classes live in different lattices")
        return ClassVector(
            self.lattice, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "ClassVector") -> "ClassVector":
        return self + (-other)

    def __mul__(self, n: int) -> "ClassVector":
        return ClassVector(self.lattice, tuple(n * c for c in self.coords))

    __rmul__ = __mul__


def product(l: DivisorLattice, v: ClassVector, w: ClassVector) -> int:
    """Intersection number v.w in the given lattice."""
    if v.lattice != l or w.lattice != l:
        raise ValueError("classes must share the lattice")
    n = len(l.basis)
    total = 0
    for i in range(n):
        for j in range(n):
            total += v.coords[i] * l.gram[i][j] * w.coords[j]
    return total


# ---------------------------------------------------------------------------
# canonical degrees
# ---------------------------------------------------------------------------


def k2_weighted_ci(weights: list[int], degrees: list[int]) -> Fraction:
    """K^2 of a quasi-smooth complete-intersection surface of the given
    degrees in the weighted projective space with the given weights,
    (sum(degrees) - sum(weights))^2 * prod(degrees)/prod(weights).  Valid
    when the surface avoids the ambient singular strata; that hypothesis is
    checked elsewhere."""
    if len(weights) - len(degrees) != 3:
        raise ValueError("surface needs exactly three more weights than degrees")
    if any(w <= 0 for w in weights) or any(d <= 0 for d in degrees):
        raise ValueError("weights and degrees must be positive")
    return Fraction(sum(degrees) - sum(weights)) ** 2 * Fraction(
        prod(degrees), prod(weights)
    )


def blowup_k2(k2: int, center_degree: int) -> int:
    """K^2 drops by the degree of the blown-up closed point."""
    return k2 - center_degree


def ruled_k2(h1: int) -> int:
    """K^2 = 8(1 - h^1) for a geometrically ruled surface."""
    return 8 * (1 - h1)


def _product_lattice(factors: list[int], z_class: dict, twist: list[int]) -> DivisorLattice:
    """Hyperplane classes h_1..h_n of a product of projective spaces of the
    given dimensions, on a surface Z of class z_class (a dict from exponent
    vectors m to coefficients c, for the terms c*h^m): h_i.h_j.Z is the sum
    of c over the terms with e_i + e_j + m = factors, the class of a point.
    The canonical class is sum_k (twist_k - (a_k + 1)) h_k."""
    n = len(factors)
    top = tuple(factors)

    def meet(i: int, j: int) -> int:
        hij = [(k == i) + (k == j) for k in range(n)]
        return sum(c for m, c in z_class.items() if tuple(map(sum, zip(hij, m))) == top)

    return DivisorLattice(
        basis=tuple(f"h{i + 1}" for i in range(n)),
        gram=tuple(tuple(meet(i, j) for j in range(n)) for i in range(n)),
        canonical=tuple(d - (a + 1) for a, d in zip(factors, twist)),
    )


def hypersurface_lattice(factors: list[int], multidegree: list[int]) -> DivisorLattice:
    """Lattice of hyperplane classes restricted to a hypersurface of the
    given multidegree in a product of projective spaces of the given
    dimensions (which must sum to 3 so the hypersurface is a surface);
    canonical class by adjunction."""
    if len(factors) != len(multidegree):
        raise ValueError("one degree per factor")
    if sum(factors) != 3:
        raise ValueError("hypersurface is not a surface")
    n = len(factors)
    z_class = {tuple(int(k == i) for k in range(n)): d for i, d in enumerate(multidegree)}
    return _product_lattice(factors, z_class, multidegree)


def cover_lattice(factors: list[int], bidegree: list[int]) -> DivisorLattice:
    """Lattice of pulled-back hyperplane classes on a double cover of a
    product of projective spaces that is a surface, branched over a section
    of twice the given bidegree: the form doubles, and K = pullback of
    (K_base + bidegree)."""
    if len(factors) != len(bidegree):
        raise ValueError("one degree per factor")
    if sum(factors) != 2:
        raise ValueError("base is not a surface")
    return _product_lattice(factors, {(0,) * len(factors): 2}, bidegree)


# ---------------------------------------------------------------------------
# Riemann-Roch and divisibility lemmas
# ---------------------------------------------------------------------------


def rr_chi(chi0: int, L2: int, LK: int) -> Fraction:
    """chi(L) = chi(O) + (L^2 - L.K)/2."""
    return chi0 + Fraction(L2 - LK, 2)


def index_two_check(r: int, H2: int) -> tuple[str, Fraction]:
    """Integrality obstruction for -K = r*H: chi(H) - chi(O) = H.(H - K)/2 =
    H2(1 + r)/2.  Returns ("non_integral", value) when the half-integer
    contradiction appears, ("integral", value) otherwise."""
    value = Fraction(H2 * (1 + r), 2)
    verdict = "integral" if value.denominator == 1 else "non_integral"
    return verdict, value


def negcurve_divisibility(dY: int) -> str:
    """A curve class of canonical degree -2 inside dY*Z forces dY | 2:
    "contradiction" for dY >= 3, "consistent" otherwise."""
    if dY <= 0:
        raise ValueError("dY must be positive")
    return "consistent" if 2 % dY == 0 else "contradiction"


def conic_fibration(a: int):
    """Two conic fibrations with fiber pairing a force a*K^2 = 8; splits the
    anticanonical class as 2F1 + 2F2.  Returns {"b": 2, "c": 2, "k2": 8//a}
    when 8/a is an integer, the string "non-integral" otherwise."""
    if a <= 0:
        raise ValueError("pairing must be positive")
    if 8 % a != 0:
        return "non-integral"
    return {"b": 2, "c": 2, "k2": 8 // a}


def conic_bundle_bound(k2: int, a_max: int) -> list[int]:
    """Fiber pairings a <= a_max compatible with a*K^2 <= 4; empty for
    K^2 >= 5."""
    if k2 < 1:
        raise ValueError("k2 must be positive")
    if a_max < 1:
        raise ValueError("a_max must be positive")
    return [a for a in range(1, a_max + 1) if a * k2 <= 4]


def secant_selfint(m: int, degC: int, genus: int, n: int) -> int:
    """Self-intersection (m*H - E)^4 on the blow-up of projective n-space
    along a curve of the given degree and genus: the middle terms vanish and
    E^4 is the normal bundle degree (n+1)*degC + 2*genus - 2."""
    if degC < 1:
        raise ValueError("curve degree must be positive")
    if genus < 0:
        raise ValueError("genus must be non-negative")
    degN = (n + 1) * degC + 2 * genus - 2
    return m**4 - 4 * m * degC + degN
