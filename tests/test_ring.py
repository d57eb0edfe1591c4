"""Coefficient domains: ints mod p, and canonical fractions of parameter
polynomials."""

import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpv import groebner, ring
from dpv.ring import (
    MAX_DEGREE,
    MAX_VARS,
    Coefficient,
    FpDomain,
    FractionDomain,
    Inconclusive,
    RingContext,
    pack,
    pp_add,
    pp_diff,
    pp_divexact,
    pp_gcd,
    pp_is_const,
    pp_lead,
    pp_monic,
    pp_mul,
    pp_neg,
    terms_pth_root,
    unpack,
    within,
    work_done,
)


def pps(p, nparams=2, maxdeg=3, maxterms=3, minterms=0):
    exp = st.tuples(*([st.integers(0, maxdeg)] * nparams)).map(pack)
    pair = st.tuples(exp, st.integers(1, p - 1))
    return st.lists(pair, min_size=minterms, max_size=maxterms).map(dict)


def pp(terms):
    """A parameter polynomial from {exponent tuple: coefficient}."""
    return {pack(e): c for e, c in terms.items()}


def grevlex_rkey(e):
    """The textbook grevlex key on exponent tuples, ascending for descending
    grevlex: higher degree first, then the smaller last exponent."""
    return (-sum(e), e[::-1])


# -- the packed monomial layout -------------------------------------------------

# exponent tuples of n <= 9 slots (the catalogue's most parameters), each
# degree at most the kernel's cap; small exponents make divisibility common
def exps(n):
    slot = st.one_of(st.integers(0, 3), st.integers(0, MAX_DEGREE // n))
    return st.lists(slot, min_size=n, max_size=n).map(tuple)


@given(data=st.data(), n=st.integers(1, 9))
@settings(deadline=None, max_examples=300)
def test_packed_keys_follow_the_exponent_tuples(data, n):
    a, b = data.draw(exps(n)), data.draw(exps(n))
    ka, kb = pack(a), pack(b)
    # unpacking round-trips, and the constant monomial is 0
    assert unpack(ka, n) == a and unpack(kb, n) == b
    assert (ka == 0) == (not any(a))
    # packing is linear: a product's key is the sum of its factors' keys
    if sum(a) + sum(b) <= MAX_DEGREE:
        assert pack(tuple(x + y for x, y in zip(a, b))) == ka + kb
    # ascending keys are ascending grevlex_rkey: descending grevlex
    assert (ka < kb) == (grevlex_rkey(a) < grevlex_rkey(b))
    # the guard-bit test is componentwise >=, and the guard-bit lcm takes
    # componentwise maxima, with a degree up to twice MAX_DEGREE
    assert ring.divides(ka, kb) == all(x <= y for x, y in zip(a, b))
    assert ring.lcm(ka, kb) == pack(tuple(map(max, a, b)))


def test_packed_limits_raise_and_never_wrap():
    with pytest.raises(ValueError, match="at most 16"):
        RingContext(p=3, geom=("x",), weights=(1,), params=tuple(f"s{i}" for i in range(17)))
    assert RingContext(p=3, geom=("x",), weights=(1,), params=tuple(f"s{i}" for i in range(16)))
    # a degree overflow inside the kernel is a resource limit; groebner
    # re-exports the one Inconclusive
    assert groebner.Inconclusive is Inconclusive
    s20000 = Coefficient(3, pp({(20000,): 1}), {0: 1})
    with pytest.raises(Inconclusive, match=f"parameter degree above {MAX_DEGREE}"):
        s20000 * s20000
    with pytest.raises(Inconclusive):
        pp_mul(pp({(20000, 0): 1, (0, 1): 2}), pp({(12767, 1): 1}), 3)
    assert pp_mul(pp({(20000, 0): 1}), pp({(12767, 0): 1}), 3) == pp({(MAX_DEGREE, 0): 1})
    # an lcm may reach twice MAX_DEGREE across all 16 slots: its degree
    # field still holds it, and no slot carries into the next
    top = MAX_DEGREE // 8
    for a, b in (((MAX_DEGREE, 0), (0, MAX_DEGREE)), ((top, 0) * 8, (0, top) * 8)):
        assert ring.lcm(pack(a), pack(b)) == pack(tuple(map(max, a, b)))


def coeffs(p, nparams=2):
    return st.tuples(pps(p, nparams), pps(p, nparams)).filter(lambda t: bool(t[1])).map(
        lambda t: Coefficient(p, t[0], t[1])
    )


@pytest.mark.parametrize("p", [2, 3, 5])
def test_constants(p):
    z = Coefficient.zero(p)
    one = Coefficient.from_const(1, p)
    assert z.is_zero() and not z.is_one()
    assert one.is_one()
    assert (one + z) == one
    assert (one - one).is_zero()
    assert Coefficient.from_const(p, p).is_zero()


@given(a=coeffs(3), b=coeffs(3), c=coeffs(3))
@settings(deadline=None, max_examples=150)
def test_field_axioms_p3(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + (-a)).is_zero()
    if not b.is_zero():
        assert (a / b) * b == a
        assert (b * b.inverse()).is_one()


@given(a=coeffs(2), b=coeffs(2))
@settings(deadline=None, max_examples=150)
def test_canonical_form_p2(a, b):
    c = a * b
    # denominator is monic and coprime to the numerator
    _, lc = pp_lead(c.den)
    assert lc == 1
    if c.num:
        assert pp_is_const(pp_gcd(c.num, c.den, 2))
    # division really inverts multiplication
    if not b.is_zero():
        assert (a / b) * b == a


@given(a=pps(3, maxterms=3), b=pps(3, maxterms=3), c=pps(3, maxterms=2))
@settings(deadline=None, max_examples=100)
def test_pp_gcd_divides(a, b, c):
    if not a and not b:
        return
    g = pp_gcd(a, b, 3)
    if a:
        assert pp_mul(pp_divexact(a, g, 3), g, 3) == a
    if b:
        assert pp_mul(pp_divexact(b, g, 3), g, 3) == b
    # gcd scales with a common factor, up to the monic normalization
    if c and a and b:
        g2 = pp_gcd(pp_mul(a, c, 3), pp_mul(b, c, 3), 3)
        expect = pp_mul(g, c, 3)
        _, lc = pp_lead(expect)
        if lc != 1:
            inv = pow(lc, -1, 3)
            expect = {e: v * inv % 3 for e, v in expect.items()}
        assert g2 == expect


@given(a=pps(5, nparams=3, maxterms=4, minterms=1))
@settings(deadline=None, max_examples=60)
def test_pp_gcd_of_a_unit_multiple_is_free(a):
    # the work units follow the values: a constant factor such as a sign
    # neither changes the gcd nor the units it charges
    p = 5
    before = work_done()
    want = pp_gcd(a, a, p)
    spent = work_done() - before
    assert want == pp_monic(a, p)
    for u in range(1, p):
        before = work_done()
        assert pp_gcd({e: c * u % p for e, c in a.items()}, a, p) == want
        assert work_done() - before == spent


@given(a=pps(2, maxdeg=2))
@settings(deadline=None, max_examples=100)
def test_pp_pth_root_roundtrip(a):
    # over F_2 squaring only doubles the exponents, so the root is a itself
    assert terms_pth_root(pp_mul(a, a, 2), 2) == a


@pytest.mark.parametrize("p", [2, 3])
@given(data=st.data())
@settings(deadline=None, max_examples=60)
def test_coefficient_pth_root_roundtrip(p, data):
    a = data.draw(coeffs(p, nparams=1))
    power = a
    for _ in range(p - 1):
        power = power * a
    # Frobenius is injective, so the root of a^p is a itself
    assert power.pth_root() == a


def test_pth_root_is_none_off_the_pth_powers():
    assert terms_pth_root(pp({(2, 1): 1, (0, 0): 1}), 2) is None
    assert terms_pth_root(pp({(3, 0): 2, (0, 6): 1}), 3) == pp({(1, 0): 2, (0, 2): 1})
    s = Coefficient.from_param(0, 2)
    one = Coefficient.from_const(1, 2)
    assert s.pth_root() is None
    assert FractionDomain(2).pth_root(s) is None
    # a fraction is a square only when its numerator and denominator are
    assert (one / s).pth_root() is None
    assert ((one + s) / (s * s)).pth_root() is None
    assert ((one + s * s) / (s * s)).pth_root() == (one + s) / s


@given(a=pps(3), b=pps(3))
@settings(deadline=None, max_examples=100)
def test_pp_diff_leibniz(a, b):
    prod = pp_mul(a, b, 3)
    for i in range(2):
        left = pp_diff(prod, i, 3)
        right_parts = []
        da, db = pp_diff(a, i, 3), pp_diff(b, i, 3)
        if da and b:
            right_parts.append(pp_mul(da, b, 3))
        if a and db:
            right_parts.append(pp_mul(a, db, 3))
        total: dict = {}
        for part in right_parts:
            for e, v in part.items():
                w = (total.get(e, 0) + v) % 3
                if w:
                    total[e] = w
                elif e in total:
                    del total[e]
        assert left == total


# -- the kernels against the textbook loops they replaced ---------------------


def _tuple(key):
    return unpack(key, MAX_VARS)


def reference_mul(a, b, p):
    """Schoolbook product on exponent tuples: a's terms outer, b's inner,
    reduced and cancelled term by term."""
    if not a or not b:
        return {}
    ring._WORK.n += len(a) * len(b)
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = pack(tuple(x + y for x, y in zip(_tuple(ea), _tuple(eb))))
            v = (out.get(e, 0) + ca * cb) % p
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def reference_divexact(a, b, p):
    """Exact division by scanning the remainder for its grevlex lead, on
    exponent tuples, and subtracting a whole product per quotient term."""
    if not a:
        return {}
    be = min(b, key=lambda k: grevlex_rkey(_tuple(k)))
    binv = pow(b[be], -1, p)
    q = {}
    r = dict(a)
    while r:
        re = min(r, key=lambda k: grevlex_rkey(_tuple(k)))
        rc = r[re]
        de = tuple(x - y for x, y in zip(_tuple(re), _tuple(be)))
        if any(x < 0 for x in de):
            raise ArithmeticError("inexact parameter polynomial division")
        de = pack(de)
        qc = (rc * binv) % p
        q[de] = qc
        r = pp_add(r, pp_neg(reference_mul({de: qc}, b, p), p), p)
    return q


def _outcome(fn, *args):
    """(result items in order or the error type, work units spent)."""
    before = work_done()
    try:
        got = list(fn(*args).items())
    except ArithmeticError as exc:
        got = type(exc)
    return got, work_done() - before


def _charged(fn, *args):
    """(result, work units spent)."""
    before = work_done()
    out = fn(*args)
    return out, work_done() - before


@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]), nparams=st.integers(1, 3))
@settings(deadline=None, max_examples=200)
def test_kernels_match_reference(data, p, nparams):
    a = data.draw(pps(p, nparams, maxterms=6))
    b = data.draw(pps(p, nparams, maxterms=4).filter(bool))
    c = data.draw(pps(p, nparams, maxterms=2))
    assert _outcome(pp_mul, a, b, p) == _outcome(reference_mul, a, b, p)
    assert _outcome(pp_mul, b, a, p) == _outcome(reference_mul, b, a, p)
    # a*b divides exactly; a*b + c and a mostly do not, and an inexact
    # division must raise after spending the same units
    ab = reference_mul(a, b, p)
    for num in (ab, pp_add(ab, c, p), a):
        assert _outcome(pp_divexact, num, b, p) == _outcome(reference_divexact, num, b, p)


# -- cross-cancelled * and / against the whole-product normalisation --------


def reference_mul_coeff(a, b):
    """(a*b) by multiplying whole numerators and denominators, then one gcd."""
    return Coefficient(a.p, pp_mul(a.num, b.num, a.p), pp_mul(a.den, b.den, a.p))


def reference_div_coeff(a, b):
    return Coefficient(a.p, pp_mul(a.num, b.den, a.p), pp_mul(a.den, b.num, a.p))


def _assert_canonical(c):
    _, lc = pp_lead(c.den)
    assert lc == 1
    if c.num:
        assert pp_is_const(pp_gcd(c.num, c.den, c.p))


@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]), nparams=st.integers(1, 3))
@settings(deadline=None, max_examples=100)
def test_cross_cancelled_arithmetic_matches_whole_product(data, p, nparams):
    # a shared factor f puts common factors across a and b, so the
    # cancellation of a numerator against the other denominator is exercised
    f, x, z = (data.draw(pps(p, nparams, maxdeg=2, maxterms=2)) for _ in range(3))
    y, w = (data.draw(pps(p, nparams, maxdeg=2, maxterms=2, minterms=1)) for _ in range(2))
    f = f or {0: 1}
    a = Coefficient(p, pp_mul(x, f, p), y)
    b = Coefficient(p, z, pp_mul(w, f, p))
    for u, v in ((a, b), (b, a), (a, a)):
        got = u * v
        assert got == reference_mul_coeff(u, v)
        _assert_canonical(got)
        if v.num:
            got = u / v
            assert got == reference_div_coeff(u, v)
            _assert_canonical(got)
        if u.num:
            got = u.inverse()
            assert got == Coefficient(p, u.den, u.num)
            _assert_canonical(got)
    # denominators 1: constants and elements of F_p[params].  Nothing can
    # cancel, so * charges exactly what the whole product charges, and so
    # does / by a constant (1 included); / by a polynomial matches in value
    one = {0: 1}
    g, h = (data.draw(pps(p, nparams, maxdeg=2, maxterms=3, minterms=1)) for _ in range(2))
    k, m = (data.draw(st.integers(1, p - 1)) for _ in range(2))
    polys = [Coefficient(p, g, one), Coefficient(p, h, one)]
    consts = [Coefficient.from_const(k, p), Coefficient.from_const(m, p)]
    for u in consts + polys:
        for v in consts + polys:
            prod = _charged(operator.mul, u, v)
            assert prod == _charged(reference_mul_coeff, u, v)
            quot = _charged(operator.truediv, u, v)
            if v in consts:
                assert quot == _charged(reference_div_coeff, u, v)
            else:
                assert quot[0] == reference_div_coeff(u, v)
            _assert_canonical(prod[0])
            _assert_canonical(quot[0])


OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
REFERENCE_OPS = {"+": operator.add, "-": lambda u, v: u + (-v), "*": reference_mul_coeff,
                 "/": reference_div_coeff}


def test_shared_coefficients_stay_intact():
    # results share dicts and objects with their operands (a product of
    # denominators 1 keeps the operand's denominator, a zero operand is
    # returned as is) and change_ring keeps coefficient objects, so no
    # operation may mutate num or den.  A long mixed chain: every value,
    # checked after the whole chain has run, still equals what the
    # whole-product reference gave at its step.
    p, n = 7, 2
    c = [Coefficient.from_const(v, p) for v in range(p)]
    s = Coefficient.from_param(0, p)
    pool = c + [s, s + c[1], (s + c[2]).inverse()]
    rng = random.Random(0)
    seen = []
    for _ in range(600):
        u, v = rng.choice(pool), rng.choice(pool)
        op = rng.choice("+-*/")
        if op == "/" and v.is_zero():
            continue
        got = OPS[op](u, v)
        ref = REFERENCE_OPS[op](u, v)
        assert got == ref
        seen.append((got, dict(ref.num), dict(ref.den)))
        if len(got.num) <= 3 and len(got.den) <= 3:
            pool.append(got)
    assert all(g.num == num and g.den == den for g, num, den in seen)


def test_domain_follows_the_parameters():
    assert isinstance(RingContext(p=5, geom=("x",), weights=(1,)).domain, FpDomain)
    dom = RingContext(p=5, geom=("x",), weights=(1,), params=("s", "t")).domain
    assert isinstance(dom, FractionDomain)
    assert dom.const(1) == Coefficient.from_const(1, 5) and dom.zero.is_zero()


@pytest.mark.parametrize("p", [2, 3, 7])
def test_fp_domain_arithmetic_and_charges(p):
    dom = FpDomain(p)
    for a in range(p):
        assert _charged(dom.neg, a) == ((-a) % p, 0)
        assert dom.is_zero(a) == (a == 0) and dom.is_one(a) == (a == 1)
        assert dom.const(a + 3 * p) == a and dom.pth_root(a) == a
        for b in range(p):
            assert _charged(dom.add, a, b) == ((a + b) % p, 0)
            # what Coefficient charges for constants: 2 units for a
            # product of nonzero elements, none with a zero
            assert _charged(dom.mul, a, b) == (a * b % p, 2 if a and b else 0)
        if a:
            inv, units = _charged(dom.inverse, a)
            assert inv * a % p == 1 and units == 0
    with pytest.raises(ZeroDivisionError):
        dom.inverse(0)


def test_coefficient_diff_quotient_rule():
    # d/ds (1/s) = -1/s^2
    c = Coefficient(3, pp({(0, 0): 1}), pp({(1, 0): 1}))
    d = c.diff(0)
    assert d == Coefficient(3, pp({(0, 0): -1 % 3}), pp({(2, 0): 1}))


def test_ring_context_validation():
    with pytest.raises(ValueError):
        RingContext(p=4, geom=("x",), weights=(1,), params=())
    with pytest.raises(ValueError):
        RingContext(p=3, geom=("x", "x"), weights=(1, 1), params=())
    with pytest.raises(ValueError):
        RingContext(p=3, geom=("x",), weights=(1,), params=("x",))


def test_fresh_name_avoids_collisions():
    r = RingContext(p=3, geom=("x", "T"), weights=(1, 1), params=("s",))
    assert r.fresh_name("T") not in r.geom
    assert r.fresh_name("T") not in r.params


# -- the work ceiling ---------------------------------------------------------

_P = 5
_A = {pack((i,)): 1 for i in range(3)}  # 1 + s + s^2
_B = {pack((0,)): 1, pack((1,)): 2}  # 1 + 2s
_AB = pp_mul(_A, _B, _P)


# each kernel function that adds to the counter, with its exact charge:
# term products, quotient terms times the divisor's length, the two dense
# lengths of a one-variable gcd, 2 per F_p product, and a product of two
# polynomial fractions plus its one extra unit
@pytest.mark.parametrize("call, units", [
    (lambda: pp_mul(_A, _B, _P), 6),
    (lambda: pp_divexact(_AB, _B, _P), 6),
    (lambda: pp_gcd(_A, _B, _P), 6),
    (lambda: FpDomain(_P).mul(2, 3), 2),
    (lambda: Coefficient(_P, _A, {0: 1}) * Coefficient(_P, _B, {0: 1}), 7),
])
def test_every_kernel_charge_checks_the_ceiling(call, units):
    for allowance, trips in ((units, False), (units - 1, True)):
        before = work_done()
        try:
            within(allowance, call)
            tripped = False
        except Inconclusive as exc:
            assert str(exc) == "work budget exceeded"
            tripped = True
        assert (tripped, work_done() - before) == (trips, units)


def test_within_keeps_the_tighter_ceiling_and_restores_the_outer():
    def mul():
        return pp_mul(_A, _A, _P)  # 9 units

    within(20, within, 100, mul)
    for outer, inner in ((5, 100), (100, 5)):
        with pytest.raises(Inconclusive):
            within(outer, within, inner, mul)

    def inner_trips_then_outer_goes_on():
        with pytest.raises(Inconclusive):
            within(5, mul)
        return mul()  # 18 units spent, under the outer 20

    within(20, inner_trips_then_outer_goes_on)
    # None sets no ceiling, and none is left behind
    within(None, mul)
    assert ring._WORK.ceiling == type(ring._WORK).ceiling
