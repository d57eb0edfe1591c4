"""Groebner engine: reduced bases, membership, saturation, dimensions."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpv.groebner import (
    DEFAULT_PAIR_LIMIT,
    Inconclusive,
    Limits,
    buchberger,
    dimension,
    is_unit_ideal,
    make_monic,
    projective_is_empty,
    radical_membership,
    reduce,
    s_polynomial,
    saturate,
    vector_space_dimension,
    _constant_coefficients,
    _interreduce,
    _pair_loop,
    _signature_loop,
)
from dpv.orders import elimination, grevlex, lex
from dpv.parsing import parse_poly, parse_ring
from dpv.poly import Polynomial
from dpv import ring as ring_module
from dpv.ring import FpDomain, lcm, pack, unpack, work_done

from _gen import make_ring, random_poly


def P(ring, *texts):
    return [parse_poly(ring, t) for t in texts]


def test_zero_and_unit_ideals():
    ring = parse_ring("ring p=3 geom x y")
    assert buchberger([]) == []
    from dpv.poly import Polynomial

    assert buchberger([Polynomial.zero(ring)]) == []
    G = buchberger(P(ring, "x", "x+1"))
    assert len(G) == 1 and G[0].is_constant()
    assert is_unit_ideal(P(ring, "x", "x+1"))
    assert not is_unit_ideal(P(ring, "x", "x*y"))


def test_hidden_unit_ideal():
    # x^2 and xy-1 force 1 into the ideal
    ring = parse_ring("ring p=5 geom x y")
    assert is_unit_ideal(P(ring, "x^2", "x*y+4"))


@pytest.mark.parametrize("ring_text, f_text, g_text", [
    ("ring p=7 geom x y z", "3*x^2*y+5*z^3+y", "4*x*y^2+2*x*z+6"),
    ("ring p=5 geom x y params s", "x^2/s+y", "(s+1)*x*y+2*y^2"),
])
def test_s_polynomial_is_the_textbook_one(ring_text, f_text, g_text):
    # the leads cancel after scaling by the inverse leading coefficients
    ring = parse_ring(ring_text)
    order = grevlex(ring.ngeom)
    f, g = P(ring, f_text, g_text)
    (lmf, lcf), (lmg, lcg) = f.lead(order), g.lead(order)
    L = lcm(lmf, lmg)
    inv = ring.domain.inverse
    want = (Polynomial(ring, {L - lmf: inv(lcf)}) * f
            - Polynomial(ring, {L - lmg: inv(lcg)}) * g)
    assert s_polynomial(f, g, order) == want


@pytest.mark.parametrize("ring_text, f_text, g_text", [
    ("ring p=7 geom x y z", "x^2*y+5*z^3+y", "x*y^2+2*x*z+6*y^3"),
    ("ring p=3 geom x y params s t", "x^2+(s+t)*y*x+s", "x*y^2+t*x^2+s^2"),
])
def test_s_polynomial_of_monic_polynomials_spends_nothing(ring_text, f_text, g_text):
    # monic inputs: keys shift and coefficients with denominator 1 add, so
    # no coefficient product is made
    ring = parse_ring(ring_text)
    order = grevlex(ring.ngeom)
    f, g = P(ring, f_text, g_text)
    assert make_monic(f, order) is f and make_monic(g, order) is g
    before = work_done()
    s = s_polynomial(f, g, order)
    assert work_done() == before
    assert not s.is_zero()


def test_known_basis_two_vars():
    ring = parse_ring("ring p=3 geom x y")
    G = buchberger(P(ring, "x^2+y", "y^2"))
    assert [str(g) for g in G] == ["x^2 + y", "y^2"]
    # S-pair closes: x^2*y^2 cancels without a new element
    order = grevlex(2)
    assert reduce(s_polynomial(G[0], G[1], order), G, order).is_zero()


def test_reduced_basis_is_canonical_and_monic():
    ring = parse_ring("ring p=3 geom x y params s")
    G = buchberger(P(ring, "s*x+s*y", "2*y^2+s"))
    # leading coefficients normalized to 1, tails reduced, leads descending
    assert [str(g) for g in G] == ["y^2 + 2*s", "x + y"]
    # input order cannot matter
    G2 = buchberger(P(ring, "2*y^2+s", "s*x+s*y"))
    assert G == G2


def test_basis_with_parameter_inverse():
    ring = parse_ring("ring p=3 geom x params s")
    (g,) = buchberger(P(ring, "s*x+1"))
    num = parse_poly(ring, "s*x+1")
    assert g * parse_poly(ring, "s") == num


def test_twisted_cubic_dimension():
    ring = parse_ring("ring p=5 geom x y z")
    gens = P(ring, "y^2+4*x*z", "x*y+4*z")  # wrong-degree variant still works
    d = dimension(gens, ring)
    assert d == 1
    curve = P(ring, "y+4*x^2", "z+4*x^3")
    assert dimension(curve, ring) == 1
    assert dimension(curve, ring, lex(3)) == 1


def test_dimension_edge_cases():
    ring = parse_ring("ring p=3 geom x y z")
    assert dimension([], ring) == 3
    assert dimension(P(ring, "1"), ring) == -1
    assert dimension(P(ring, "x"), ring) == 2
    assert dimension(P(ring, "x", "y"), ring) == 1
    assert dimension(P(ring, "x", "y", "z"), ring) == 0


def test_radical_membership():
    ring = parse_ring("ring p=3 geom x y params s")
    sq = P(ring, "x^2")
    assert radical_membership(parse_poly(ring, "x"), sq)
    assert radical_membership(parse_poly(ring, "s*x"), sq)
    assert not radical_membership(parse_poly(ring, "x+1"), sq)
    assert not radical_membership(parse_poly(ring, "y"), sq)
    # nilpotent mixed example: (x+y)^2 and y lie in the ideal, so x is radical
    gens = P(ring, "x^2+2*x*y+y^2", "y")
    assert radical_membership(parse_poly(ring, "x"), gens)


def test_saturation():
    ring = parse_ring("ring p=3 geom x y z")
    x = parse_poly(ring, "x")
    sat = saturate(P(ring, "x*y", "x*z"), x)
    assert sorted(str(g) for g in sat) == ["y", "z"]
    # saturating the whole power of x gives the unit ideal
    sat2 = saturate(P(ring, "x^3"), x)
    assert len(sat2) == 1 and sat2[0].is_constant()
    # saturation by something coprime changes nothing essential
    sat3 = saturate(P(ring, "y"), x)
    assert [str(g) for g in sat3] == ["y"]


def test_no_room_for_an_inverse_variable_is_inconclusive():
    # a ring takes at most 16 geometric variables, so the Rabinowitsch
    # variable of radical membership and saturation cannot be added: a limit
    # of the engine, not rejected input
    ring = parse_ring("ring p=3 geom " + " ".join(f"x{i}" for i in range(16)))
    x0 = parse_poly(ring, "x0")
    for run in (lambda: radical_membership(x0, P(ring, "x0^2")),
                lambda: saturate(P(ring, "x0*x1"), x0)):
        with pytest.raises(Inconclusive, match="inverse variable"):
            run()


def test_saturation_strict_transform_shape():
    # total transform of a node pulled back under x -> x, y -> x*t
    ring = parse_ring("ring p=3 geom x t")
    f = parse_poly(ring, "x^2*t^2+x^2+x^3")  # x^2 * (t^2 + 1 + x)
    sat = saturate([f], parse_poly(ring, "x"))
    assert [str(g) for g in sat] == ["t^2 + x + 1"]


def test_vector_space_dimension():
    ring = parse_ring("ring p=3 geom x y")
    assert vector_space_dimension(P(ring, "x^2", "y^3"), ring) == 6
    assert vector_space_dimension(P(ring, "x^2+y", "y^2"), ring) == 4
    assert vector_space_dimension(P(ring, "1"), ring) == 0
    with pytest.raises(ValueError):
        vector_space_dimension(P(ring, "x"), ring)


def test_vector_space_dimension_inseparable_point():
    # residue field F_2(sqrt(s)) has degree 2
    ring = parse_ring("ring p=2 geom x params s")
    assert vector_space_dimension(P(ring, "x^2+s"), ring) == 2


def test_projective_emptiness():
    ring = parse_ring("ring p=3 geom x y")
    assert projective_is_empty(P(ring, "x", "y"))
    assert not projective_is_empty(P(ring, "x^2"))
    # no rational point but a geometric one: still nonempty
    assert not projective_is_empty(P(ring, "x^2+y^2"))
    assert not projective_is_empty([])
    # P(1,1,2): x = y = 0 is the point [0:0:1]; adding z leaves nothing
    ring = parse_ring("ring p=3 geom x:1 y:1 z:2")
    assert not projective_is_empty(P(ring, "x", "y"))
    assert projective_is_empty(P(ring, "x", "y", "z"))
    # weighted-homogeneous of degree 6, with the points [0:1:z], z^3 = -1
    assert not projective_is_empty(P(ring, "x", "z^3+y^6"))
    # a generator must be homogeneous in the weights
    with pytest.raises(ValueError, match="not weighted-homogeneous"):
        projective_is_empty(P(ring, "x", "z+x"))


def test_inconclusive_carries_resource():
    # four quadrics in five variables: the signature loop pops dozens of
    # signatures, far more than the one allowed
    ring = parse_ring(FP_RING)
    with pytest.raises(Inconclusive) as exc:
        buchberger(P(ring, *FP_GENS), None, Limits(max_pairs=1))
    assert "pair" in str(exc.value)


def test_reduce_leaves_no_divisible_terms():
    ring = parse_ring("ring p=5 geom x y")
    order = grevlex(2)
    G = buchberger(P(ring, "x^2+y", "y^2+3"))
    f = parse_poly(ring, "x^4*y+x^2+y^3+2")
    r = reduce(f, G, order)
    leads = [max(_exponents(g), key=lambda e: textbook_key(order, e)) for g in G]
    for e in _exponents(r):
        assert not any(tuple_divides(lm, e) for lm in leads)
    # idempotent
    assert reduce(r, G, order) == r


def test_reduce_under_limits_and_zero_edge_cases():
    ring = parse_ring("ring p=5 geom x y")
    order = grevlex(2)
    G = buchberger(P(ring, "x^2+y", "y^2+3"))
    f = parse_poly(ring, "x^4*y+x^2+y^3+2")
    # Limits put one work budget on the single reduction
    with pytest.raises(Inconclusive, match="work budget exceeded"):
        reduce(f, G, order, Limits(max_steps=1))
    assert reduce(f, G, order, Limits()) == reduce(f, G, order)
    # 0 lies in every radical; an ideal with only zero generators
    # saturates to the zero ideal
    zero = Polynomial.zero(ring)
    assert radical_membership(zero, P(ring, "x+1"))
    assert saturate([zero, zero], parse_poly(ring, "x")) == []


def test_elimination_order_projects_ideals():
    # eliminate x from (x - y^2): the first slot carries the block
    ring = parse_ring("ring p=3 geom x y")
    from dpv.orders import elimination

    G = buchberger(P(ring, "x+2*y^2", "x^2+2*y"), elimination(2, (0,)))
    free = [g for g in G if all(e[0] == 0 for e in _exponents(g))]
    assert free, "expected an eliminant in y alone"
    assert sorted(str(g) for g in free) == ["y^4 + 2*y"]


# -- heap division against the reference max-scan division -------------------
# The references work on exponent tuples, read off the packed keys by unpack.


def _exponents(g):
    return [unpack(k, g.ring.ngeom) for k in g.terms]


def tuple_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _grevlex_key(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def textbook_key(order, e):
    """The textbook ascending key of order: a larger monomial has a larger
    key.  The reference for order.rkey, which sorts the other way."""
    if order.kind == "grevlex":
        return _grevlex_key(e)
    if order.kind == "lex":
        return tuple(e)
    block = tuple(e[i] for i in order.block)
    rest = tuple(e[i] for i in range(order.n) if i not in order.block)
    return (_grevlex_key(block), _grevlex_key(rest))


def reference_reduce(f, basis, order):
    """Full normal form by the textbook loop: scan the live terms for the
    largest, divide by the first basis element whose lead divides it.  The
    coefficient arithmetic goes through the ring's domain (ints mod p or
    fractions): the quotient is c times the inverse of the leading
    coefficient, and each scaled tail term is subtracted by adding its
    negation."""
    dom = f.ring.domain
    n = f.ring.ngeom

    def tuples(g):
        return {unpack(k, n): c for k, c in g.terms.items()}

    data = []
    for g in basis:
        if not g.is_zero():
            terms = tuples(g)
            lm = max(terms, key=lambda e: textbook_key(order, e))
            data.append((lm, terms[lm], terms))
    work = tuples(f)
    remainder = {}
    while work:
        e = max(work, key=lambda e: textbook_key(order, e))
        c = work.pop(e)
        hit = next((d for d in data if tuple_divides(d[0], e)), None)
        if hit is None:
            remainder[e] = c
            continue
        lm, lc, terms = hit
        factor = dom.mul(c, dom.inverse(lc))
        delta = tuple(x - y for x, y in zip(e, lm))
        for ge, gc in terms.items():
            if ge == lm:
                continue
            ne = tuple(x + y for x, y in zip(ge, delta))
            v = dom.mul(factor, gc)
            old = work.get(ne)
            v = dom.neg(v) if old is None else dom.add(old, dom.neg(v))
            if dom.is_zero(v):
                work.pop(ne, None)
            else:
                work[ne] = v
    return Polynomial(f.ring, {pack(e): c for e, c in remainder.items()})


def _orders(n):
    return [grevlex(n), lex(n), elimination(n, (0,))]


@pytest.mark.parametrize("p, nparams", [(2, 0), (3, 0), (5, 0), (2, 1)])
@given(seed=st.integers(0, 2**30), nvars=st.integers(1, 3))
@settings(deadline=None, max_examples=40)
def test_heap_reduce_matches_reference(p, nparams, seed, nvars):
    # divisors are random polynomials, not a Groebner basis, so the normal
    # form depends on the divisor scan order and the term order
    ring = make_ring(p, nvars, nparams)
    rng = random.Random(seed)
    f = random_poly(ring, rng, 6, 4)
    basis = [random_poly(ring, rng, 3, 2) for _ in range(rng.randint(1, 3))]
    for order in _orders(nvars):
        got = reduce(f, basis, order)
        want = reference_reduce(f, basis, order)
        assert got == want
        assert list(got.terms) == list(want.terms)


@given(exps=st.lists(st.tuples(*([st.integers(0, 5)] * 4)), unique=True, max_size=30))
@settings(deadline=None, max_examples=100)
def test_rkey_ascending_is_key_descending(exps):
    keys = [pack(e) for e in exps]
    for order in _orders(4):
        want = sorted(exps, key=lambda e: textbook_key(order, e), reverse=True)
        assert [unpack(k, 4) for k in sorted(keys, key=order.rkey)] == want
        if exps:
            assert unpack(min(keys, key=order.rkey), 4) == want[0]


# -- exact work units: budgets keep meaning "term products" ------------------
# The F_7 constants were measured with the max-scan division and the general
# coefficient arithmetic; the heap division and the int domain of rings
# without parameters must charge exactly the same units at the same points.
# The F_2(s) and F_5(s, t) constants were measured with cross-cancelled * and
# / (no gcd of the whole product); they hold with constants taking the same
# Coefficient arithmetic as every other fraction.  Each pin below parses its
# text inside the measured region, so each fell when Polynomial.__pow__
# stopped squaring its base past the exponent's top bit: F_7 9,554 -> 9,542
# and 306 -> 290, F_2(s) 680 -> 674 and 286 -> 280, F_5(s, t)
# 4,128 -> 4,122.  They fell again when reduce and s_polynomial stopped
# dividing and multiplying by the leading coefficients of monic divisors:
# F_7 9,542 -> 7,686 and 290 -> 264, F_2(s) 674 -> 491 and 280 -> 260,
# F_5(s, t) 4,122 -> 3,851, then to 3,847 when pp_gcd answered a constant
# multiple of its first operand without a pseudo-remainder.  The F_7 basis
# fell from 7,686 to 1,836 when ideals with constant coefficients moved to
# the signature loop, which reduces none of this regular sequence's
# S-pairs to zero.

FP_RING = "ring p=7 geom a b c d e"
FP_GENS = ("3*a^2+b*c+5*d*e+2*a*e", "a*b+4*c^2+6*b*e+d^2", "2*b^2+a*d+3*c*e+5*e^2",
           "c*d+6*a*c+b*d+4*a^2")
FP_QUERIES = ("a^3+2*b^2*c+5*d*e^2", "3*c^3+a*b*d+6*e^3+b^2*e", "4*a*c*e+d^3+2*b*c^2")
FS_RING = "ring p=2 geom x y z params s"
FS_GENS = ("s*x^2+y*z+x", "x*y+(s+1)*z^2", "y^2+s*x*z+1")
FS_QUERY = "x^3*y+s*z^3+x*y^2+(s+1)*x*z"


def _work(fn):
    before = work_done()
    result = fn()
    return work_done() - before, result


def test_work_units_exact_over_fp():
    ring = parse_ring(FP_RING)
    order = grevlex(ring.ngeom)
    spent, G = _work(lambda: buchberger(P(ring, *FP_GENS), order))
    assert (spent, len(G)) == (1_836, 11)
    spent, _ = _work(lambda: [reduce(q, G, order) for q in P(ring, *FP_QUERIES)])
    assert spent == 264


def test_work_units_exact_over_f2_s():
    ring = parse_ring(FS_RING)
    order = grevlex(ring.ngeom)
    spent, G = _work(lambda: buchberger(P(ring, *FS_GENS), order))
    assert (spent, len(G)) == (491, 6)
    spent, _ = _work(lambda: reduce(parse_poly(ring, FS_QUERY), G, order))
    assert spent == 260


# two parameters: the gcds of the basis build run the multi-variable
# pseudo-remainder path (_uv_prem, _uv_content), whose units depend on the
# key order of the products; a kernel that reduces mod p only at the end
# keeps every value but spent 4,136 here when the pin was 4,128
F5ST_RING = "ring p=5 geom x y z params s t"
F5ST_GENS = ("2*x^3+x^2*z+(t+1)*x+s+1", "2*x^2*z+x*z+2")


def test_work_units_exact_over_f5_s_t():
    ring = parse_ring(F5ST_RING)
    spent, G = _work(lambda: buchberger(P(ring, *F5ST_GENS), grevlex(ring.ngeom)))
    assert (spent, len(G)) == (3_847, 3)


# boundary pins: a reduction that spends N units finishes under
# max_steps=N and trips under N - 1, having spent all N, since the charge
# that crosses the ceiling is counted before it raises: (allowance,
# tripped, units spent)
@pytest.mark.parametrize("ring_text, gens, query, allowance, tripped, spent", [
    (FP_RING, FP_GENS, FP_QUERIES[0], 90, False, 90),
    (FP_RING, FP_GENS, FP_QUERIES[0], 89, True, 90),
    (FS_RING, FS_GENS, FS_QUERY, 232, False, 232),
    (FS_RING, FS_GENS, FS_QUERY, 231, True, 232),
])
def test_budget_trips_on_the_same_reduce_step(ring_text, gens, query, allowance, tripped, spent):
    ring = parse_ring(ring_text)
    order = grevlex(ring.ngeom)
    G = buchberger(P(ring, *gens), order)
    f = parse_poly(ring, query)  # parsing spends units too: do it first
    got = _work(lambda: _raises_inconclusive(lambda: reduce(f, G, order, Limits(max_steps=allowance))))
    assert got == (spent, tripped)


# ideal 77 of the benchmark's sweep pool: under the sweep's Limits it trips
# on a grevlex basis (in pp_mul) and on a lex one (in a one-variable gcd
# that charges 13,110 units at once)
SWEEP_77_RING = "ring p=5 geom x y z params s t"
SWEEP_77_GENS = ("s*x*y+(2+s)*y+(4+t)*z+(1+t)*x", "4*x+4*y^2*z+2*x^2*y",
                 "3*x^2*y+4+3*x*y+t*y^2*z")
_KERNEL = ((ring_module, "pp_mul"), (ring_module, "pp_divexact"),
           (ring_module, "_pp_gcd_one_var"), (FpDomain, "mul"))


@pytest.mark.parametrize("order", [grevlex(3), lex(3)], ids=["grevlex", "lex"])
def test_budget_overshoot_is_at_most_one_kernel_charge(monkeypatch, order):
    # about 10^6 units, under 0.5 s: each kernel function is wrapped to record
    # the units charged by the call that raised
    charges = []

    def recording(fn):
        def wrapper(*args):
            before = work_done()
            try:
                return fn(*args)
            except Inconclusive:
                charges.append(work_done() - before)
                raise
        return wrapper

    for owner, name in _KERNEL:
        monkeypatch.setattr(owner, name, recording(vars(owner)[name]))
    ring = parse_ring(SWEEP_77_RING)
    gens = P(ring, *SWEEP_77_GENS)
    budget = 10**6
    before = work_done()
    with pytest.raises(Inconclusive, match="work budget exceeded"):
        buchberger(gens, order, Limits(5000, budget))
    over = work_done() - before - budget
    assert len(charges) == 1
    assert 0 < over <= charges[0]


# -- the int domain against the fraction path ---------------------------------


def _domain_run(ring, gen_texts, query_text, order):
    """Basis, normal form, their work units, and where a half budget trips:
    everything that must agree between a ring without parameters (ints mod
    p) and the same ring with one unused parameter (Coefficient)."""
    gens, q = P(ring, *gen_texts), parse_poly(ring, query_text)
    spent, G = _work(lambda: buchberger(gens, order))
    nf_spent, r = _work(lambda: reduce(q, G, order))
    half_nf = Limits(max_steps=nf_spent // 2)
    nf_trip = _work(lambda: _raises_inconclusive(lambda: reduce(q, G, order, half_nf)))
    half_build = Limits(max_steps=spent // 2)
    build_trip = _work(lambda: _raises_inconclusive(lambda: buchberger(gens, order, half_build)))
    return [str(g) for g in G], str(r), spent, nf_spent, nf_trip, build_trip


def _raises_inconclusive(fn):
    try:
        fn()
    except Inconclusive:
        return True
    return False


@given(seed=st.integers(0, 2**30), p=st.sampled_from([2, 3, 5, 7]), nvars=st.integers(1, 3))
@settings(deadline=None, max_examples=30)
def test_int_domain_matches_the_fraction_path(seed, p, nvars):
    rng = random.Random(seed)
    fp = make_ring(p, nvars)
    with_param = make_ring(p, nvars, 1)
    gen_texts = [str(random_poly(fp, rng, 4, 3)) for _ in range(rng.randint(1, 3))]
    query_text = str(random_poly(fp, rng, 6, 4))
    for order in _orders(nvars):
        got = _domain_run(fp, gen_texts, query_text, order)
        want = _domain_run(with_param, gen_texts, query_text, order)
        assert got == want
    G = buchberger(P(fp, *gen_texts))
    assert all(type(c) is int for g in G for c in g.terms.values())


# -- the signature loop against the pair loop ---------------------------------


@pytest.mark.parametrize("ring_text, texts, want", [
    ("ring p=3 geom x y", ("x^2+2*y", "x*y+1"), True),
    # an unused parameter changes nothing; a used one, in a numerator or
    # only in a denominator, selects the pair loop
    ("ring p=3 geom x y params s", ("x^2+2*y", "x*y+1"), True),
    ("ring p=3 geom x y params s", ("x^2+2*y", "s*x*y+1"), False),
    ("ring p=3 geom x y params s", ("x^2+2*y", "x*y/s+1"), False),
])
def test_the_loop_is_chosen_by_the_coefficients(ring_text, texts, want):
    assert _constant_coefficients(P(parse_ring(ring_text), *texts)) is want


def _loop_basis(loop, gens, order):
    """The reduced basis one of buchberger's two loops gives for gens, fed
    to it as they are, without the pre-pass."""
    G = loop([make_monic(g, order) for g in gens], order, DEFAULT_PAIR_LIMIT)
    return [Polynomial.one(gens[0].ring)] if G is None else _interreduce(G, order)


@given(seed=st.integers(0, 2**30), p=st.sampled_from([2, 3, 5, 7]), nvars=st.integers(1, 3),
       ngens=st.integers(1, 4), nterms=st.integers(2, 6), homogeneous=st.booleans())
# each example once failed under a broken copy of the loop: the first two
# when every signature after a zero reduction was dropped, the last two when
# a reduction step could sign equal to the element it reduced
@example(seed=568684, p=3, nvars=2, ngens=3, nterms=6, homogeneous=False)
@example(seed=127716, p=3, nvars=3, ngens=4, nterms=3, homogeneous=True)
@example(seed=604655, p=7, nvars=3, ngens=4, nterms=6, homogeneous=False)
@example(seed=503758, p=2, nvars=3, ngens=3, nterms=3, homogeneous=False)
@settings(deadline=None, max_examples=150)
def test_signature_loop_matches_the_pair_loop(seed, p, nvars, ngens, nterms, homogeneous):
    rng = random.Random(seed)
    ring = make_ring(p, nvars)
    gens = [random_poly(ring, rng, nterms, 3, rng.randint(1, 3) if homogeneous else None)
            for _ in range(ngens)]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    for order in _orders(nvars):
        assert _loop_basis(_signature_loop, gens, order) == _loop_basis(_pair_loop, gens, order)
