"""Sparse multivariate polynomials in geometric variables over F_p(params).

Terms map packed geometric monomials (ring.pack: one int each, the constant
monomial 0, the variable of slot i ring.unit(i)) to coefficients of the
ring's domain (ring.domain): plain ints mod p in a ring without parameters,
Coefficient fractions otherwise.  A product's key is the sum of its
factors' keys, and the least key is the grevlex lead.  Every coefficient
operation goes through the domain.
Derivations exist for both variable sorts: geometric variables differentiate
the monomials, parameter variables differentiate the coefficients by the
quotient rule.  Characteristic-p annihilation (d/dx of x^p) falls out of the
mod-p arithmetic.
"""

from __future__ import annotations

from .ring import (Coefficient, RingContext, check_degree, degree, format_terms, pack,
                   terms_pth_root, unit, unpack, used_slots)

class Polynomial:
    __slots__ = ("ring", "terms", "_lead", "_reducer")

    def __init__(self, ring: RingContext, terms: dict):
        """terms maps packed monomials to nonzero coefficients of
        ring.domain; it is kept as given, not copied or filtered."""
        self.ring = ring
        self.terms = terms
        self._lead = None
        self._reducer = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ring: RingContext) -> "Polynomial":
        return cls(ring, {})

    @classmethod
    def one(cls, ring: RingContext) -> "Polynomial":
        return cls.constant(ring, 1)

    @classmethod
    def constant(cls, ring: RingContext, c) -> "Polynomial":
        if isinstance(c, int):
            c = ring.coeff(c)
        if ring.domain.is_zero(c):
            return cls.zero(ring)
        return cls(ring, {0: c})

    @classmethod
    def variable(cls, ring: RingContext, name: str) -> "Polynomial":
        if name in ring.geom:
            return cls(ring, {unit(ring.geom_index(name)): ring.coeff(1)})
        return cls.constant(ring, ring.coeff_param(name))

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return self.terms.keys() <= {0}

    def constant_coefficient(self):
        return self.terms.get(0, self.ring.domain.zero)

    def is_unit_constant(self) -> bool:
        return self.is_constant() and not self.is_zero()

    def lead(self, order):
        """(monomial, coefficient) of the leading term under order.  Terms
        never change after construction, so the last order's answer is kept."""
        cached = self._lead
        if cached is None or cached[0] is not order:
            e = min(self.terms, key=order.rkey)
            cached = self._lead = (order, e, self.terms[e])
        return cached[1], cached[2]

    def reducer(self, order):
        """(lead monomial, least key, tail) of the monic multiple of a
        nonzero f under order, the tail a list of (monomial, coefficient)
        pairs: what a division step by f reads.  Kept for the last order,
        like lead, so a divisor is made monic once, not once per reduction."""
        cached = self._reducer
        if cached is None or cached[0] is not order:
            lm, lc = self.lead(order)
            dom = self.ring.domain
            tail = [(e, c) for e, c in self.terms.items() if e != lm]
            if not dom.is_one(lc):
                inv, mul = dom.inverse(lc), dom.mul
                tail = [(e, mul(c, inv)) for e, c in tail]
            cached = self._reducer = (order, (lm, min(self.terms), tail))
        return cached[1]

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, Coefficient):
            return Polynomial.constant(self.ring, other)
        if isinstance(other, int):
            return Polynomial.constant(self.ring, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        dom = self.ring.domain
        add, is_zero = dom.add, dom.is_zero
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e)
            if v is None:
                out[e] = c
                continue
            v = add(v, c)
            if is_zero(v):
                del out[e]
            else:
                out[e] = v
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.domain.neg
        return Polynomial(self.ring, {e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        dom = self.ring.domain
        mul = dom.mul
        if isinstance(other, (Coefficient, int)):
            c = other if isinstance(other, Coefficient) else dom.const(other)
            if dom.is_zero(c):
                return Polynomial.zero(self.ring)
            return Polynomial(self.ring, {e: mul(v, c) for e, v in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.terms, other.terms
        if a and b:  # the product's lead is the product of the leads
            check_degree(min(a) + min(b), "geometric")
        add, is_zero = dom.add, dom.is_zero
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                v = mul(ca, cb)
                old = out.get(e)
                v = v if old is None else add(old, v)
                if is_zero(v):
                    out.pop(e, None)
                else:
                    out[e] = v
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.one(self.ring)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def clear_denominators(self) -> "Polynomial":
        """f times the lcm of its coefficient denominators: every coefficient
        of the result lies in F_p[params], and the factor is a nonzero
        element of F_p[params], hence a unit of F_p(params).  f comes back
        unchanged when its coefficients are already polynomials, as ints mod
        p always are."""
        terms = self.ring.domain.clear_denominators(self.terms)
        return self if terms is self.terms else Polynomial(self.ring, terms)

    # -- calculus -------------------------------------------------------------

    def diff(self, name: str) -> "Polynomial":
        ring = self.ring
        dom = ring.domain
        if name in ring.geom:
            i = ring.geom_index(name)
            u = unit(i)
            out: dict = {}
            for e, c in self.terms.items():
                k = unpack(e, i + 1)[i]
                if k == 0:
                    continue
                v = dom.mul(c, dom.const(k))
                if dom.is_zero(v):
                    continue
                # lowering slot i is injective on terms with e[i] > 0: no
                # two terms meet, so nothing merges
                out[e - u] = v
            return Polynomial(ring, out)
        j = ring.param_index(name)
        out = {}
        for e, c in self.terms.items():
            v = c.diff(j)
            if not v.is_zero():
                out[e] = v
        return Polynomial(ring, out)

    def pth_root(self) -> "Polynomial | None":
        """Inverse Frobenius: the r with r^p == f, or None when f is not a
        p-th power (a geometric exponent not divisible by p, or a
        coefficient that is no p-th power in F_p(params))."""
        ring = self.ring
        out = terms_pth_root(self.terms, ring.p, ring.domain.pth_root)
        return None if out is None else Polynomial(ring, out)

    # -- substitution ----------------------------------------------------------

    def substitute(self, assignments: dict, target_ring: RingContext | None = None) -> "Polynomial":
        """Simultaneous substitution of geometric variables.  Each key names a
        geometric variable of f (a parameter name raises KeyError: parameters
        keep their value) and maps to a Polynomial or a constant of the target
        ring, which must have the same p and parameters as f's ring.  Unmapped
        variables carry over by name through change_ring.  Without
        target_ring, the ring of the first Polynomial value is used, else f's
        own ring."""
        ring = self.ring
        if target_ring is None:
            target_ring = next(
                (v.ring for v in assignments.values() if isinstance(v, Polynomial)), ring
            )
        slots = []
        images = []
        for name, val in assignments.items():
            slots.append(ring.geom_index(name))
            if not isinstance(val, Polynomial):
                val = Polynomial.constant(target_ring, val)
            elif val.ring != target_ring:
                raise ValueError("substitution targets live in different rings")
            images.append(val)
        # group the terms by their exponents in the mapped slots; the rest of
        # each term moves into the target ring unchanged
        units = [unit(i) for i in slots]
        n = ring.ngeom
        groups: dict[tuple[int, ...], dict] = {}
        for e, c in self.terms.items():
            x = unpack(e, n)
            key = tuple(x[i] for i in slots)
            rest = e - sum(k * u for k, u in zip(key, units))
            groups.setdefault(key, {})[rest] = c
        # change_ring checks p and the parameters, also when f is zero
        result = Polynomial.zero(ring).change_ring(target_ring)
        for key, terms in groups.items():
            term = Polynomial(ring, terms).change_ring(target_ring)
            for img, k in zip(images, key):
                if k:
                    term = term * img**k
            result = result + term
        return result

    def change_ring(self, ring: RingContext) -> "Polynomial":
        """The same polynomial in a ring over the same base field: ring must
        have f's p and parameters (else ValueError), and every geometric
        variable f uses must exist in ring by name (else KeyError).  Only the
        monomial keys are re-indexed; the coefficient objects are kept as
        they are, so an embedding or projection costs no work units."""
        src = self.ring
        if ring.p != src.p or ring.params != src.params:
            raise ValueError("change_ring keeps the characteristic and the parameters")
        moves = [(src.geom_index(v), unit(ring.geom_index(v))) for v in self.support()]
        n = src.ngeom
        out = {}
        for e, c in self.terms.items():
            x = unpack(e, n)
            out[sum(x[i] * u for i, u in moves)] = c
        return Polynomial(ring, out)

    def dehomogenize(self, name: str) -> "Polynomial":
        """Set a weight-1 geometric variable to 1 and drop it from the ring."""
        ring = self.ring
        i = ring.geom_index(name)
        if ring.weights[i] != 1:
            raise ValueError("dehomogenization requires a weight-1 variable")
        new_ring = ring.without_geom_var(name)
        add, is_zero = ring.domain.add, ring.domain.is_zero
        out: dict = {}
        n = ring.ngeom
        for e, c in self.terms.items():
            x = unpack(e, n)
            ne = pack(x[:i] + x[i + 1 :])
            old = out.get(ne)
            v = c if old is None else add(old, c)
            if is_zero(v):
                out.pop(ne, None)
            else:
                out[ne] = v
        return Polynomial(new_ring, out)

    def total_degree(self) -> int:
        """The degree of the grevlex lead, the least key; 0 for zero."""
        return degree(min(self.terms)) if self.terms else 0

    def support(self) -> tuple[str, ...]:
        """The geometric variables that occur in f, in ring order."""
        return tuple(self.ring.geom[i] for i in used_slots(self.terms))

    # -- plumbing ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        ring = self.ring
        dom = ring.domain
        return format_terms(self.terms, ring.geom, lambda c: dom.format(c, ring.params), dom.is_one)

    def __repr__(self):
        return f"Polynomial({self})"

