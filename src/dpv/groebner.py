"""Buchberger engine over F_p(params) with explicit resource limits.

Monomials are packed keys (ring.pack): a product or quotient of monomials is
a sum or difference of keys.  buchberger pre-reduces the generators, then
runs one of two pair loops, chosen by reading the coefficients:

* every coefficient a constant of F_p (any ring without parameters, or a
  parameter ring whose generators use no parameter): the signature loop,
  incremental F5 signatures in the RB form (Faugere, ISSAC 2002; Eder &
  Faugere, J. Symb. Comput. 80, 2017).  A signature is dropped when it is
  divisible by a lead of the basis of the earlier generators (the F5
  criterion) or by the signature of an earlier zero reduction, and is
  otherwise rebuilt from its rewriter and reduced by regular steps only, so
  a regular sequence reduces nothing to zero.  max_pairs counts the
  signatures popped, those the criteria drop included;
* otherwise, Buchberger's normal strategy: minimal lcm total degree, ties
  broken by lexicographic pair index, pairs discarded by the coprimality
  and chain criteria.  max_pairs counts the pairs popped.

Exceeding a resource cap raises Inconclusive rather than ever returning a
wrong basis.  The work cap, Limits.max_steps, is a ceiling on ring.work_done()
that every kernel charge checks (ring.within), so a trip overshoots it by at
most one charge.  Reduced bases are monic and sorted by descending leading
monomial, so results are canonical for a given order, whichever loop ran.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import mul, neg

from .orders import MonomialOrder, elimination, grevlex
from .poly import Polynomial
# Inconclusive lives in ring, whose kernel raises it on a degree overflow or
# past the work budget; it is re-exported here beside the limits
from .ring import (MAX_VARS, FpDomain, Inconclusive, RingContext, check_degree, degree, divides,
                   lcm, pack, pp_is_const, unpack, used_slots, within)

DEFAULT_PAIR_LIMIT = 10**6


@dataclass(frozen=True)
class Limits:
    max_pairs: int = DEFAULT_PAIR_LIMIT
    # work budget per basis computation and per reduce given Limits, in the
    # term-product units of ring.work_done; every kernel charge checks it, so
    # runaway parameter-fraction growth trips it within one charge
    max_steps: int | None = None

    def __post_init__(self):
        # the one check of every limit: in code, --limit-pairs and DPV_*
        if self.max_pairs is None:
            raise ValueError("pair limit must be an integer, got None")
        for what, value in (("pair limit", self.max_pairs), ("step limit", self.max_steps)):
            if value is not None and value < 0:
                raise ValueError(f"{what} must not be negative, got {value}")

    @classmethod
    def from_env(cls) -> "Limits":
        """Limits from DPV_PAIR_LIMIT and DPV_STEP_LIMIT; unset or empty
        variables keep the defaults.  A value that is not an integer raises
        ValueError naming the variable."""
        kwargs = {}
        for name, key in (("DPV_PAIR_LIMIT", "max_pairs"), ("DPV_STEP_LIMIT", "max_steps")):
            raw = os.environ.get(name)
            if raw:
                try:
                    kwargs[key] = int(raw)
                except ValueError:
                    raise ValueError(f"{name} must be an integer, got {raw!r}") from None
        return cls(**kwargs)


def make_monic(f: Polynomial, order: MonomialOrder) -> Polynomial:
    dom, lc = f.ring.domain, f.lead(order)[1]
    return f if dom.is_one(lc) else f * dom.inverse(lc)


def reduce(
    f: Polynomial,
    basis: list[Polynomial],
    order: MonomialOrder,
    limits: Limits | None = None,
) -> Polynomial:
    """Full normal form of f modulo basis; deterministic divisor scan order.
    Passing Limits puts its work budget on this one reduction.

    Heap division (Monagan & Pearce): live terms sit in a dict and their
    monomials in a min-heap on order.rkey (under grevlex, the keys), so the
    leading live term is a pop rather than a scan.  Entries whose monomial
    has left the dict (cancelled, or a duplicate of a processed term) are
    skipped on pop; this is exact because every new term is smaller than the
    term being reduced.  Each step checks the degree of its highest new
    term, delta times the divisor's least key: under lex a new term can
    outgrow the one it replaces.

    Each divisor is read through Polynomial.reducer, its monic form made
    once per polynomial (a no-op for the engine's bases), so a step adds
    -c * x^delta * g and never divides; a non-monic basis gives the same
    normal form, term for term.  Coefficient arithmetic goes through the
    ring's domain, bound to locals once per call."""
    args = (dict(f.terms), f.ring.domain, [g.reducer(order) for g in basis if g.terms], order)
    rem = _divide(*args) if limits is None else within(limits.max_steps, _divide, *args)
    return Polynomial(f.ring, rem)


def _divide(work: dict, dom, data: list, order: MonomialOrder,
            regular=(), sig=None, up=None) -> dict | None:
    """The remainder terms of the terms in work (consumed) divided by the
    Polynomial.reducer entries in data, each usable at every term.

    The signature loop also passes regular: entries (lead, least key, tail,
    signature - lead), one usable at a term e only while the multiple's
    signature e + (signature - lead) lies below sig, comparing by the
    ascending key up.  It gets None when the lead is left reducible only
    singularly, by an entry whose multiple has signature sig itself."""
    cadd, cmul, cneg, czero = dom.add, dom.mul, dom.neg, dom.is_zero
    if order.kind == "grevlex":
        heap, push, pop = list(work), heappush, heappop
    else:
        rkey = order.rkey
        heap = [(rkey(e), e) for e in work]

        def push(h, e):
            heappush(h, (rkey(e), e))

        def pop(h):
            return heappop(h)[1]

    if regular:
        bound = up(sig)
    heapify(heap)
    remainder: dict = {}
    while work:
        e = pop(heap)
        while e not in work:
            e = pop(heap)
        c = work.pop(e)
        for lm, top, tail in data:
            if divides(lm, e):
                break
        else:
            for lm, top, tail, d in regular:
                if divides(lm, e) and up(e + d) < bound:
                    break
            else:
                if regular and not remainder and any(
                        divides(r[0], e) and e + r[3] == sig for r in regular):
                    return None
                remainder[e] = c
                continue
        factor = cneg(c)
        delta = e - lm
        check_degree(delta + top, "geometric")
        for ge, gc in tail:
            ne = ge + delta
            v = cmul(factor, gc)
            old = work.get(ne)
            if old is None:
                work[ne] = v
                push(heap, ne)
                continue
            v = cadd(old, v)
            if czero(v):
                del work[ne]
            else:
                work[ne] = v
    return remainder


def _shift(f: Polynomial, d: int) -> Polynomial:
    """f times the monomial of key d; the least key has the highest degree."""
    check_degree(min(f.terms) + d, "geometric")
    return Polynomial(f.ring, {e + d: c for e, c in f.terms.items()})


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """The difference of monic(f) and monic(g), each shifted up to the lcm
    of the leads: no coefficient product for monic inputs."""
    f, g = make_monic(f, order), make_monic(g, order)
    lmf, lmg = f.lead(order)[0], g.lead(order)[0]
    L = lcm(lmf, lmg)
    return _shift(f, L - lmf) - _shift(g, L - lmg)


def buchberger(
    gens: list[Polynomial],
    order: MonomialOrder | None = None,
    limits: Limits | None = None,
) -> list[Polynomial]:
    """Reduced Groebner basis; [] for the zero ideal, [1] for the unit ideal.
    limits=None means the defaults, Limits(): the engine reads no
    environment variable (the dpv command turns DPV_* into Limits).

    The generators are pre-reduced, smallest first; one survivor is its own
    basis.  Otherwise the signature loop runs when every coefficient left is
    a constant of F_p, and the normal-strategy pair loop when one uses a
    parameter (see the module docstring for each loop's criteria and what
    limits.max_pairs counts in it).  The whole run shares one work budget
    (see ring.within), and both loops end in the same interreduction."""
    if limits is None:
        limits = Limits()
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return []
    if order is None:
        order = grevlex(nonzero[0].ring.ngeom)
    return within(limits.max_steps, _basis, nonzero, order, limits.max_pairs)


def _basis(nonzero: list[Polynomial], order: MonomialOrder, max_pairs: int) -> list[Polynomial]:
    """buchberger's work on its nonzero generators, under its budget."""
    ring = nonzero[0].ring
    G: list[Polynomial] = []
    # insert small generators first and pre-reduce: collapses redundant input
    for g in sorted(nonzero, key=lambda f: (f.total_degree(), len(f.terms))):
        h = reduce(g, G, order) if G else g
        if h.is_zero():
            continue
        if h.is_constant():
            return [Polynomial.one(ring)]
        G.append(make_monic(h, order))
    if len(G) == 1:
        return G
    loop = _signature_loop if _constant_coefficients(G) else _pair_loop
    G = loop(G, order, max_pairs)
    return [Polynomial.one(ring)] if G is None else _interreduce(G, order)


def _constant_coefficients(G: list[Polynomial]) -> bool:
    """Every coefficient lies in F_p: always so for ints mod p, and for a
    fraction when both its numerator and denominator are constants."""
    if type(G[0].ring.domain) is FpDomain:
        return True
    for g in G:
        for c in g.terms.values():
            if not (pp_is_const(c.num) and pp_is_const(c.den)):
                return False
    return True


def _pair_loop(G: list[Polynomial], order: MonomialOrder, max_pairs: int):
    """Buchberger's normal strategy on G; None for the unit ideal."""
    leads = [g.lead(order)[0] for g in G]
    pending: set[tuple[int, int]] = set()
    heap: list = []

    def push_pair(i: int, j: int):
        # the pair is unique, so the lcm after it is carried, never compared
        pending.add((i, j))
        L = lcm(leads[i], leads[j])
        heappush(heap, (degree(L), (i, j), L))

    for i, j in itertools.combinations(range(len(G)), 2):
        push_pair(i, j)

    processed = 0
    while heap:
        _, (i, j), L = heappop(heap)
        pending.discard((i, j))
        processed += 1
        if processed > max_pairs:
            raise Inconclusive(f"pair limit {max_pairs} exceeded")
        if L == leads[i] + leads[j]:
            continue  # coprime leading monomials
        # chain criterion: a lead dividing L whose pairs with i and j are done
        if any(k != i and k != j and divides(leads[k], L)
               and (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending
               for k in range(len(G))):
            continue
        s = s_polynomial(G[i], G[j], order)
        h = reduce(s, G, order)
        if h.is_zero():
            continue
        if h.is_constant():
            return None
        G.append(make_monic(h, order))
        leads.append(G[-1].lead(order)[0])
        for i2 in range(len(G) - 1):
            push_pair(i2, len(G) - 1)
    return G


def _signature_loop(G: list[Polynomial], order: MonomialOrder, max_pairs: int):
    """A Groebner basis of G, generator by generator; None for the unit ideal.

    Round i starts from a basis of (g_0 ... g_{i-1}), whose multiples all
    sign below every m*e_i: g_i, reduced by it, gets signature 1*e_i.  The
    signatures m*e_i of the round are monomials m, compared by the order,
    and popped smallest first from the S-pairs of each new element with
    the earlier basis and with the round's elements (a pair whose two
    sides sign alike is singular and never pushed).  A popped signature
    equal to the last one is skipped; one divisible by a lead of the
    earlier basis (F5) or by a syzygy signature of the round is dropped.
    Otherwise its rewriter, the last-added element whose signature divides
    it, times the quotient is reduced by regular steps: the earlier basis
    at any term, and a round element only where the multiple's signature
    lies below.  The result is dropped when its lead is reducible only
    singularly, recorded as a syzygy signature when zero, and otherwise
    joins the round."""
    ring = G[0].ring
    dom = ring.domain
    if order.kind == "grevlex":
        up = neg
    else:
        rkey = order.rkey

        def up(e):
            return tuple(map(neg, rkey(e)))

    basis = G[:1]
    popped = 0
    for g in G[1:]:
        h = reduce(g, basis, order)
        if h.is_zero():
            continue
        if h.is_constant():
            return None
        old = [b.reducer(order) for b in basis]
        old_leads = [entry[0] for entry in old]
        polys: list[Polynomial] = []
        sigs: list[int] = []
        regular: list[tuple] = []
        syz: list[int] = []
        heap: list = []

        def add(f: Polynomial, s: int):
            f = make_monic(f, order)
            entry = f.reducer(order)
            lm = entry[0]
            for lb in old_leads:
                T = s + lcm(lm, lb) - lm
                heappush(heap, (up(T), T))
            for lb, _, _, db in regular:
                L = lcm(lm, lb)
                ta, tb = s + L - lm, db + L
                if ta != tb:
                    ua, ub = up(ta), up(tb)
                    heappush(heap, (ua, ta) if ua > ub else (ub, tb))
            polys.append(f)
            sigs.append(s)
            regular.append(entry + (s - lm,))

        add(h, 0)
        last = None
        while heap:
            _, T = heappop(heap)
            if T == last:
                continue
            last = T
            popped += 1
            if popped > max_pairs:
                raise Inconclusive(f"pair limit {max_pairs} exceeded")
            check_degree(T, "geometric")
            if any(divides(m, T) for m in old_leads) or any(divides(z, T) for z in syz):
                continue
            k = len(sigs) - 1
            while not divides(sigs[k], T):
                k -= 1
            t = T - sigs[k]
            check_degree(regular[k][1] + t, "geometric")
            rem = _divide({e + t: c for e, c in polys[k].terms.items()}, dom, old, order,
                          regular, T, up)
            if rem is None:
                continue
            if not rem:
                syz.append(T)
            elif len(rem) == 1 and 0 in rem:
                return None
            else:
                add(Polynomial(ring, rem), T)
        basis = basis + polys
    return basis


def _interreduce(G: list[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    # ascending in the order; a reverse sort stays stable, so equal leads
    # keep their order in G
    pairs = sorted(
        ((g.lead(order)[0], g) for g in G), key=lambda t: order.rkey(t[0]), reverse=True
    )
    kept: list[tuple[int, Polynomial]] = []
    for lm, g in pairs:
        if any(divides(klm, lm) for klm, _ in kept):
            continue
        kept.append((lm, g))
    polys = [g for _, g in kept]
    reduced = []
    for idx, g in enumerate(polys):
        others = polys[:idx] + polys[idx + 1 :]
        h = reduce(g, others, order) if others else g
        reduced.append(make_monic(h, order))
    reduced.sort(key=lambda f: order.rkey(f.lead(order)[0]))
    return reduced


def is_unit_ideal(gens: list[Polynomial], limits: Limits | None = None) -> bool:
    G = buchberger(gens, None, limits)
    return len(G) == 1 and G[0].is_constant() and not G[0].is_zero()


def _with_inverse(gens: list[Polynomial], f: Polynomial):
    """(gens, 1 - T*f) in f's ring with a fresh last variable T, and that
    ring: the inverse-variable trick behind radical membership and
    saturation.  With MAX_VARS variables T has no room: Inconclusive."""
    ring = f.ring
    if ring.ngeom == MAX_VARS:
        raise Inconclusive(f"an inverse variable needs {MAX_VARS + 1} geometric variables")
    big = ring.with_extra_geom_vars((ring.fresh_name("T"),))
    t = Polynomial.variable(big, big.geom[-1])
    lifted = [h.change_ring(big) for h in gens]
    lifted.append(Polynomial.one(big) - t * f.change_ring(big))
    return lifted, big


def radical_membership(
    g: Polynomial, gens: list[Polynomial], limits: Limits | None = None
) -> bool:
    """True iff g lies in the radical of (gens), by the inverse-variable trick:
    1 belongs to (gens, 1 - T*g)."""
    if g.is_zero():
        return True
    lifted, big = _with_inverse(gens, g)
    return is_unit_ideal(lifted, limits)


def saturate(
    gens: list[Polynomial], f: Polynomial, limits: Limits | None = None
) -> list[Polynomial]:
    """Generators of (gens) : f^infinity via elimination of an inverse variable."""
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return []
    lifted, big = _with_inverse(nonzero, f)
    t = big.geom[-1]
    G = buchberger(lifted, elimination(big.ngeom, (big.ngeom - 1,)), limits)
    return [h.change_ring(f.ring) for h in G if t not in h.support()]


def dimension(
    gens: list[Polynomial],
    ring: RingContext,
    order: MonomialOrder | None = None,
    limits: Limits | None = None,
) -> int:
    """Krull dimension of the affine zero set over the algebraic closure of
    F_p(params).  Returns -1 for the unit ideal, ngeom for the zero ideal."""
    if order is None:
        order = grevlex(ring.ngeom)
    return dimension_of_basis(buchberger(gens, order, limits), ring.ngeom, order)


def dimension_of_basis(G: list[Polynomial], n: int, order: MonomialOrder) -> int:
    """dimension() read off a Groebner basis G under order: the largest
    variable set independent modulo the initial ideal.  G may be a basis of
    any ideal with the same radical, since the dimension depends only on the
    zero set (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, 9.3)."""
    supports = [frozenset(i for i, x in enumerate(unpack(g.lead(order)[0], n)) if x) for g in G]
    for size in range(n, -1, -1):
        for combo in itertools.combinations(range(n), size):
            s = frozenset(combo)
            if not any(sup <= s for sup in supports):
                return size
    return -1


def vector_space_dimension(
    gens: list[Polynomial],
    ring: RingContext,
    order: MonomialOrder | None = None,
    limits: Limits | None = None,
) -> int:
    """K-dimension of the quotient by a zero-dimensional ideal (its degree)."""
    if order is None:
        order = grevlex(ring.ngeom)
    return degree_of_basis(buchberger(gens, order, limits), ring.ngeom, order)


def degree_of_basis(G: list[Polynomial], n: int, order: MonomialOrder) -> int:
    """vector_space_dimension() read off a Groebner basis G under order: the
    number of standard monomials."""
    if len(G) == 1 and G[0].is_constant():
        return 0
    leads = [g.lead(order)[0] for g in G]
    caps: dict[int, int] = {}  # slot i of a standard monomial is below caps[i]
    for lm in leads:
        used = used_slots([lm])
        if len(used) == 1:  # a pure power x_i^d
            i, d = used[0], degree(lm)
            caps[i] = min(d, caps.get(i, d))
    if len(caps) < n:
        raise ValueError("ideal is not zero-dimensional")
    monos = itertools.product(*(range(caps[i]) for i in range(n)))
    return sum(not any(divides(lm, pack(e)) for lm in leads) for e in monos)


def projective_is_empty(gens: list[Polynomial], limits: Limits | None = None) -> bool:
    """True iff the weighted-homogeneous gens cut out nothing in the weighted
    projective space of their ring: one Groebner basis shows that the affine
    cone is at most the vertex, dimension(gens) <= 0.  Exact because the
    weights are positive: t.x = (t^w_i x_i) preserves the zero set, and the
    orbit closure of any point but the vertex is a curve through the vertex
    (projective weak Nullstellensatz: Cox, Little & O'Shea, Ideals,
    Varieties, and Algorithms, 8.3).  Raises ValueError for a generator that
    is not weighted-homogeneous in its ring's weights."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return False  # the zero ideal cuts out the whole (nonempty) space
    ring = gens[0].ring
    n = ring.ngeom
    for g in gens:
        if len({sum(map(mul, unpack(e, n), ring.weights)) for e in g.terms}) > 1:
            raise ValueError(f"{g} is not weighted-homogeneous")
    return dimension(gens, ring, limits=limits) <= 0
