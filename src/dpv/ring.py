"""Base rings for the toolkit.

Geometric polynomial coefficients live in F_p(params).  Each RingContext
holds one coefficient domain, chosen by its number of parameters:

* FpDomain, for rings without parameters: coefficients are plain ints in
  0..p-1.
* FractionDomain, for rings with parameters: coefficients are Coefficient
  objects, reduced fractions of sparse parameter polynomials.  A parameter
  polynomial is a dict mapping packed monomials (one int each, see pack) to
  nonzero residues mod p.  Fractions are kept in canonical form (numerator
  and denominator coprime, denominator monic under a fixed grevlex order on
  the parameters) so that equal field elements compare equal structurally.
  Constants and parameter polynomials are fractions with denominator 1 and
  take the same arithmetic as any other fraction.

Monomials of both sorts, parameter and geometric, are packed into one int
each by one layout (see pack); the helpers that read a key's bits live here.

Polynomial code talks to ring.domain, never to the coefficient type.  The
only module-level mutable state is the per-thread work counter and ceiling.
"""

from __future__ import annotations

import operator
import struct
import sys
import threading
from dataclasses import dataclass, field
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import chain
from operator import methodcaller, or_


class Inconclusive(Exception):
    """A resource limit was hit before the computation finished."""


class _Work(threading.local):
    n, ceiling = 0, sys.maxsize  # class defaults: every thread starts at zero, unlimited


_WORK = _Work()


def work_done() -> int:
    """Monotone per-thread counter of coefficient-arithmetic effort, counted
    in term-product units: products of parameter-polynomial terms, and their
    stand-ins in exact division, one-variable gcds and F_p (see FpDomain)."""
    return _WORK.n


def _charge(units: int):
    w = _WORK
    w.n = n = w.n + units
    if n > w.ceiling:
        raise Inconclusive("work budget exceeded")


def within(units: int | None, fn, *args):
    """fn(*args) with at most units more work (None: no new limit).  Every
    kernel charge checks the ceiling, so a trip overshoots it by at most the
    units of the charge that raised; a nested call keeps the tighter one."""
    outer = _WORK.ceiling
    if units is not None:
        _WORK.ceiling = min(outer, _WORK.n + units)
    try:
        return fn(*args)
    finally:
        _WORK.ceiling = outer


# characteristics at or above this are rejected before the trial-division
# prime test, which would otherwise run for ~sqrt(p) steps
MAX_CHARACTERISTIC = 2**31


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------

# A monomial of either sort, parameter s^e or geometric x^e, is the int
# sum(e_i * 2^(16 i)) - deg(e) * 2^256 (_DEG_SHIFT): slot i holds e_i in bits
# 16i..16i+15 and the degree sits above all slots (Monagan & Pearce, packed
# exponent vectors).  The key is linear in e, so a product's key is the sum
# of its factors' keys and a quotient's key their difference, and ascending
# keys are descending grevlex (higher degree first, then the smaller last
# exponent), so the grevlex lead is the least key.  The constant monomial is
# 0.  Every monomial's degree stays at most MAX_DEGREE (check_degree), so no
# slot reaches its top bit: sums of two keys never carry between slots, and
# the top bits serve as guard bits for divides.  Only this module reads the
# bits of a key; other modules add, subtract and compare keys.
MAX_VARS = 16  # of each sort
_BITS = 16
_SLOT = (1 << _BITS) - 1
_DEG_SHIFT = MAX_VARS * _BITS
_LOW = (1 << _DEG_SHIFT) - 1  # the slots of a key
_ONES = sum(1 << (_BITS * i) for i in range(MAX_VARS))  # a 1 in every slot
_GUARD = _ONES << (_BITS - 1)
MAX_DEGREE = (1 << (_BITS - 1)) - 1
_FLOOR = -MAX_DEGREE << _DEG_SHIFT  # a key below it has degree above MAX_DEGREE


def check_degree(key: int, sort: str):
    """Raise Inconclusive, naming the sort, past MAX_DEGREE: key's slots would wrap."""
    if key < _FLOOR:
        raise Inconclusive(f"{sort} degree above {MAX_DEGREE}")


def pack(e) -> int:
    """The key of the monomial with exponent tuple e (at most MAX_VARS
    slots, each exponent at most MAX_DEGREE)."""
    return sum(x << (_BITS * i) for i, x in enumerate(e)) - (sum(e) << _DEG_SHIFT)


# per slot count n: the mask of n slots, and their reader
_SLOTS = [((1 << (_BITS * n)) - 1, struct.Struct(f"<{n}H").unpack) for n in range(MAX_VARS + 1)]


def unpack(key: int, n: int) -> tuple[int, ...]:
    """The exponent tuple, n slots long, of a packed monomial: its low
    16n bits read as n little-endian unsigned 16-bit slots."""
    mask, read = _SLOTS[n]
    return read((key & mask).to_bytes(2 * n, "little"))


def _exponents(key: int) -> tuple[int, ...]:
    """The exponent tuple of a packed monomial, up to its last nonzero
    slot."""
    low = key & _LOW
    return unpack(low, (low.bit_length() + _BITS - 1) // _BITS)


def unit(i: int) -> int:
    """The key of the i-th variable: a key plus d * unit(i) has slot i and
    the degree both raised by d."""
    return (1 << (_BITS * i)) - (1 << _DEG_SHIFT)


def degree(key: int) -> int:
    return -(key >> _DEG_SHIFT)


def divides(a: int, b: int) -> bool:
    """Monomial a divides monomial b: subtracting a's slots from b's, each
    with its guard bit set, clears no guard bit.  The degrees sit above
    the slots, so whole keys can be subtracted."""
    return (b - a + _GUARD) & _GUARD == _GUARD


def lcm(a: int, b: int) -> int:
    """The least common multiple of two monomials: slot-wise maxima.  The
    guard bits of a - b (see divides) mask the slots where a is at least b;
    one product with _ONES sums the slots (the degree, at most 2 * MAX_DEGREE,
    so nothing carries) into the top slot."""
    la, lb = a & _LOW, b & _LOW
    mask = (((la - lb + _GUARD) & _GUARD) >> (_BITS - 1)) * _SLOT
    low = (la & mask) | (lb & ~mask)
    return low - (((low * _ONES >> (_DEG_SHIFT - _BITS)) & _SLOT) << _DEG_SHIFT)


def used_slots(keys) -> list[int]:
    """The slots that occur in some key: the nonzero slots of one OR over
    all keys."""
    return [i for i, x in enumerate(_exponents(reduce(or_, keys, 0))) if x]


def format_terms(terms: dict, names, fmt=str, is_one=(1).__eq__) -> str:
    """A sum of terms (key -> coefficient) as text, in descending grevlex.
    Slot i is named names[i], or p{i} without names; fmt writes a
    coefficient, which a monomial drops when it is one (is_one) and
    otherwise puts in parentheses when it is compound."""
    names = names or [f"p{i}" for i in range(MAX_VARS)]
    parts = []
    for e in sorted(terms):
        c = terms[e]
        mono = "*".join([names[i] if x == 1 else f"{names[i]}^{x}" for i, x in enumerate(_exponents(e)) if x])
        if mono and is_one(c):
            parts.append(mono)
            continue
        cs = fmt(c)
        if mono and ("+" in cs or ("/" in cs and not cs.startswith("("))):
            cs = f"({cs})"
        parts.append(f"{cs}*{mono}" if mono else cs)
    return " + ".join(parts) or "0"


# ---------------------------------------------------------------------------
# sparse parameter polynomials: dict[packed monomial, int], values in 1..p-1
# ---------------------------------------------------------------------------

PP = dict  # alias for readability in signatures


def pp_const(c: int, p: int) -> PP:
    c %= p
    if c == 0:
        return {}
    return {0: c}


def pp_is_const(a: PP) -> bool:
    """a is a nonzero constant."""
    return len(a) == 1 and 0 in a


def pp_lead(a: PP):
    """Leading (monomial, coefficient) under grevlex on the parameters."""
    e = min(a)
    return e, a[e]


def pp_add(a: PP, b: PP, p: int) -> PP:
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for e, c in b.items():
        v = (out.get(e, 0) + c) % p
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def pp_neg(a: PP, p: int) -> PP:
    return {e: (-c) % p for e, c in a.items()}


def pp_sub(a: PP, b: PP, p: int) -> PP:
    return pp_add(a, pp_neg(b, p), p)


def pp_scale(a: PP, c: int, p: int) -> PP:
    c %= p
    if c == 0:
        return {}
    if c == 1:
        return a
    return {e: (v * c) % p for e, v in a.items()}


def pp_mul(a: PP, b: PP, p: int) -> PP:
    """Product of parameter polynomials, reduced and cancelled term by term.

    The product's leading monomial is the product of the leading monomials,
    so its degree is known before the loop; past MAX_DEGREE the product
    raises Inconclusive, since a packed key would wrap."""
    if not a or not b:
        return {}
    check_degree(min(a) + min(b), "parameter")
    _charge(len(a) * len(b))
    out: PP = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            v = (get(e, 0) + ca * cb) % p
            if v:
                out[e] = v
            else:
                del out[e]
    return out


def pp_monic(a: PP, p: int) -> PP:
    if not a:
        return a
    _, c = pp_lead(a)
    if c == 1:
        return a
    return pp_scale(a, pow(c, -1, p), p)


def pp_divexact(a: PP, b: PP, p: int) -> PP:
    """Exact division a/b; raises ArithmeticError when b does not divide a.

    Heap division (Monagan & Pearce): the remainder's terms sit in a dict and
    their keys in a min-heap, so its leading term is a pop rather than a
    scan.  Entries whose monomial has left the dict (cancelled) are skipped
    on pop; every new term is smaller than the term just divided, so no
    processed monomial comes back.  Each quotient term charges len(b) units,
    as the product q_term * b would."""
    if not b:
        raise ZeroDivisionError("parameter polynomial division by zero")
    if not a:
        return {}
    be, bc = pp_lead(b)
    binv = pow(bc, -1, p)
    tail = [(e, c) for e, c in b.items() if e != be]
    r = dict(a)
    heap = list(r)
    heapify(heap)
    q: PP = {}
    while r:
        re = heappop(heap)
        rc = r.pop(re, 0)
        if not rc:
            continue
        if not divides(be, re):
            raise ArithmeticError("inexact parameter polynomial division")
        de = re - be
        qc = rc * binv % p
        q[de] = qc
        _charge(len(b))
        for eb, cb in tail:
            e = de + eb
            old = r.get(e)
            if old is None:
                r[e] = -qc * cb % p
                heappush(heap, e)
                continue
            v = (old - qc * cb) % p
            if v:
                r[e] = v
            else:
                del r[e]
    return q


def pp_diff(a: PP, i: int, p: int) -> PP:
    out: PP = {}
    shift, u = _BITS * i, unit(i)
    for e, c in a.items():
        x = (e & _LOW) >> shift & _SLOT
        if x == 0:
            continue
        v = (c * x) % p
        if v:
            # lowering slot i is injective on terms with e[i] > 0: no two
            # terms meet, so nothing merges
            out[e - u] = v
    return out


def terms_pth_root(terms: dict, p: int, root=None) -> dict | None:
    """The r with r^p == the sum of terms (key -> coefficient), or None: a
    key is p times its root's key when p divides all its exponents, and a
    coefficient c has root(c) (None off the p-th powers), or c without root,
    since c^p = c for c in F_p."""
    out: dict = {}
    for e, c in terms.items():
        if any(x % p for x in _exponents(e)):
            return None
        r = c if root is None else root(c)
        if r is None:
            return None
        out[e // p] = r
    return out


def _to_univar(a: PP, i: int):
    """View a as univariate in slot i with parameter-poly coefficients."""
    out: dict[int, PP] = {}
    shift, u = _BITS * i, unit(i)
    for e, c in a.items():
        d = (e & _LOW) >> shift & _SLOT
        coeff = out.setdefault(d, {})
        coeff[e - d * u] = c
    return out


def _from_univar(u: dict[int, PP], i: int) -> PP:
    out: PP = {}
    ui = unit(i)
    for d, coeff in u.items():
        raised = d * ui
        for e, c in coeff.items():
            # slot i of every e is 0 (see _to_univar), so each (d, e) writes
            # its own monomial
            out[e + raised] = c
    return out


def _uv_content(u: dict[int, PP], p: int) -> PP:
    """gcd of the coefficients by ascending degree, stopping at the first
    constant gcd: the visiting order is fixed, so the work units are too."""
    g: PP = {}
    for d in sorted(u):
        g = pp_gcd(g, u[d], p)
        if pp_is_const(g):
            return g
    return g


def _uv_primitive(u: dict[int, PP], p: int):
    cont = _uv_content(u, p)
    if not cont or cont == {0: 1}:
        return u, cont
    return {d: pp_divexact(c, cont, p) for d, c in u.items()}, cont


def _uv_prem(a: dict[int, PP], b: dict[int, PP], p: int) -> dict[int, PP]:
    """Pseudo-remainder of a by b in the main variable."""
    db = max(b)
    lb = b[db]
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        k = dr - db
        # r <- lb*r - lr*x^k*b
        nr: dict[int, PP] = {}
        for d, c in r.items():
            nr[d] = pp_mul(c, lb, p)
        for d, c in b.items():
            t = pp_mul(c, lr, p)
            nd = d + k
            nr[nd] = pp_sub(nr.get(nd, {}), t, p)
        r = {d: c for d, c in nr.items() if c}
    return r


def _dense_rem(r: list[int], b: list[int], p: int) -> list[int]:
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    r = r[:]
    while len(r) - 1 >= db:
        f = (r[-1] * inv) % p
        k = len(r) - 1 - db
        for j in range(db + 1):
            r[j + k] = (r[j + k] - f * b[j]) % p
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def _pp_gcd_one_var(a: PP, b: PP, i: int, p: int) -> PP:
    """Monic Euclidean gcd when only parameter slot i occurs: F_p coefficients
    are invertible, so no pseudo-remainders are needed.  A term's exponent
    in slot i is then its degree."""

    def dense(x: PP) -> list[int]:
        degs = [degree(e) for e in x]
        out = [0] * (max(degs) + 1)
        for d, c in zip(degs, x.values()):
            out[d] = c % p
        return out

    fa, fb = dense(a), dense(b)
    _charge(len(fa) * len(fb))
    while fb:
        fa, fb = fb, _dense_rem(fa, fb, p)
    inv = pow(fa[-1], -1, p)
    ui = unit(i)
    out: PP = {}
    for d, c in enumerate(fa):
        v = (c * inv) % p
        if v:
            out[d * ui] = v
    return out


def pp_gcd(a: PP, b: PP, p: int) -> PP:
    """Monic gcd via content/primitive-part recursion and pseudo-remainders;
    single-variable operands take a dense Euclidean shortcut.  A constant
    multiple of a gives monic(a) free, so a sign never changes the units."""
    if not a:
        return pp_monic(b, p)
    if not b:
        return pp_monic(a, p)
    if pp_is_const(a) or pp_is_const(b):
        return {0: 1}
    if len(a) == len(b):
        ma = pp_monic(a, p)
        if ma == pp_monic(b, p):
            return ma
    used = used_slots(chain(a, b))
    if len(used) == 1:
        return _pp_gcd_one_var(a, b, used[0], p)
    main = used[-1]
    ua, ub = _to_univar(a, main), _to_univar(b, main)
    pa, ca = _uv_primitive(ua, p)
    pb, cb = _uv_primitive(ub, p)
    cont = pp_gcd(ca, cb, p)
    if max(pa) < max(pb):
        pa, pb = pb, pa
    while True:
        if not pb:
            g = pa
            break
        if max(pb) == 0:
            g = {0: {0: 1}}
            break
        r = _uv_prem(pa, pb, p)
        r, _ = _uv_primitive(r, p)
        pa, pb = pb, r
    gp = _from_univar(g, main)
    return pp_monic(pp_mul(cont, gp, p), p)


# ---------------------------------------------------------------------------
# fraction field F_p(params)
# ---------------------------------------------------------------------------


class Coefficient:
    """A reduced fraction of parameter polynomials over F_p, the coefficient
    type of rings with parameters (see FractionDomain; a ring without
    parameters holds ints mod p instead).

    The denominator is monic, numerator and denominator are coprime, so the
    representation is canonical and __eq__ is structural.

    * and / keep that form without a gcd of the products: both operands are
    already coprime, so cross-cancelling each numerator against the other
    denominator before multiplying leaves a reduced result (see _cross).
    When both denominators are 1 (constants and every element of
    F_p[params]) nothing can cancel, and _cross only multiplies the
    numerators.  inverse() only swaps numerator and denominator and
    rescales, since the two are coprime already.  __add__ still takes one
    gcd of the whole sum, and - is + of the negation.
    """

    __slots__ = ("p", "num", "den")

    def __init__(self, p: int, num: PP, den: PP, reduced: bool = False):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not reduced:
            if not num:
                den = {0: 1}
            elif pp_is_const(den):
                # constant denominator: already coprime to num, only make it
                # monic (pp_gcd would return 1 without charging any work)
                num, den = _monic_den(p, num, den, den[0])
            else:
                g = pp_gcd(num, den, p)
                if not pp_is_const(g):
                    num = pp_divexact(num, g, p)
                    den = pp_divexact(den, g, p)
                num, den = _monic_den(p, num, den, pp_lead(den)[1])
        self.p = p
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "Coefficient":
        return cls(p, {}, {0: 1}, reduced=True)

    @classmethod
    def from_const(cls, c: int, p: int) -> "Coefficient":
        return cls(p, pp_const(c, p), {0: 1}, reduced=True)

    @classmethod
    def from_param(cls, i: int, p: int) -> "Coefficient":
        """Parameter i, whose key is unit(i)."""
        return cls(p, {unit(i): 1}, {0: 1}, reduced=True)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return pp_is_const(self.den) and self.num == self.den

    def is_polynomial(self) -> bool:
        return pp_is_const(self.den)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Coefficient") -> "Coefficient":
        p = self.p
        if not self.num:
            return other
        if not other.num:
            return self
        if self.den == other.den:
            return Coefficient(p, pp_add(self.num, other.num, p), self.den)
        num = pp_add(
            pp_mul(self.num, other.den, p), pp_mul(other.num, self.den, p), p
        )
        return Coefficient(p, num, pp_mul(self.den, other.den, p))

    def __neg__(self) -> "Coefficient":
        return Coefficient(self.p, pp_neg(self.num, self.p), self.den, reduced=True)

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        return self + (-other)

    def __mul__(self, other: "Coefficient") -> "Coefficient":
        if not self.num:
            return self
        if not other.num:
            return other
        return _cross(self.p, self.num, self.den, other.num, other.den)

    def __truediv__(self, other: "Coefficient") -> "Coefficient":
        if not other.num:
            raise ZeroDivisionError("division by zero coefficient")
        if not self.num:
            return self
        return _cross(self.p, self.num, self.den, other.den, other.num)

    def inverse(self) -> "Coefficient":
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        p = self.p
        num, den = _monic_den(p, self.den, self.num, pp_lead(self.num)[1])
        return Coefficient(p, num, den, reduced=True)

    # -- calculus ------------------------------------------------------------

    def diff(self, i: int) -> "Coefficient":
        """Derivative with respect to parameter slot i (quotient rule)."""
        p = self.p
        dn = pp_diff(self.num, i, p)
        dd = pp_diff(self.den, i, p)
        num = pp_sub(pp_mul(dn, self.den, p), pp_mul(self.num, dd, p), p)
        den = pp_mul(self.den, self.den, p)
        return Coefficient(p, num, den)

    def pth_root(self) -> "Coefficient | None":
        """The r with r^p == self, or None when self is not a p-th power.
        A canonical fraction is a p-th power iff its numerator and
        denominator are; their roots stay coprime, and the root of a monic
        denominator is monic."""
        p = self.p
        num, den = terms_pth_root(self.num, p), terms_pth_root(self.den, p)
        if num is None or den is None:
            return None
        return Coefficient(p, num, den, reduced=True)

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Coefficient)
            and self.p == other.p
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.p, frozenset(self.num.items()), frozenset(self.den.items())))

    def __repr__(self):
        return f"Coefficient({self.format(None)})"

    def format(self, names) -> str:
        num = format_terms(self.num, names)
        if pp_is_const(self.den):
            return num
        den = format_terms(self.den, names)
        ns = num if (len(self.num) == 1 and "+" not in num) else f"({num})"
        ds = den if (len(self.den) == 1 and "+" not in den) else f"({den})"
        return f"{ns}/{ds}"


def _cross(p: int, a: PP, b: PP, c: PP, d: PP) -> Coefficient:
    """(a/b)(c/d) in canonical form, for nonzero a/b and c/d in lowest terms
    with b monic (Henrici; Knuth, TAOCP 2, 4.5.1).

    Since gcd(a, b) = gcd(c, d) = 1, dividing out g1 = gcd(a, d) and
    g2 = gcd(c, b) leaves (a/g1)(c/g2) coprime to (b/g2)(d/g1): the gcds run
    on the operands, not on the products, and no gcd of the result is
    needed.  A constant denominator shares no factor, so its gcd is skipped
    outright.  b and both gcds are monic, so the leading coefficient of the
    new denominator is d's.

    When b and d are both constants, b is 1 (monic) and the product is
    (a*c*d^-1)/1 with nothing to cancel.  That case charges the general
    path's len(a)*len(c) + 1 units, the 1 just before pp_mul, whose check
    covers it: two constants charge 2 and check once, as in FpDomain.mul."""
    if pp_is_const(b) and pp_is_const(d):
        _WORK.n += 1
        return Coefficient(p, pp_scale(pp_mul(a, c, p), pow(d[0], -1, p), p), b, reduced=True)
    if not pp_is_const(d):
        g = pp_gcd(a, d, p)
        if not pp_is_const(g):
            a = pp_divexact(a, g, p)
            d = pp_divexact(d, g, p)
    if not pp_is_const(b):
        g = pp_gcd(c, b, p)
        if not pp_is_const(g):
            c = pp_divexact(c, g, p)
            b = pp_divexact(b, g, p)
    num, den = _monic_den(p, pp_mul(a, c, p), pp_mul(b, d, p), pp_lead(d)[1])
    return Coefficient(p, num, den, reduced=True)


def _monic_den(p: int, num: PP, den: PP, lc: int) -> tuple[PP, PP]:
    """num/den rescaled to a monic denominator, where lc is den's leading
    coefficient."""
    if lc == 1:
        return num, den
    inv = pow(lc, -1, p)
    return pp_scale(num, inv, p), pp_scale(den, inv, p)


# ---------------------------------------------------------------------------
# coefficient domains
# ---------------------------------------------------------------------------


class FpDomain:
    """F_p as plain ints in 0..p-1: the coefficients of a ring without
    parameters.

    A product of two nonzero elements charges work_done() 2 units and then
    checks the ceiling, as a product of two constants does in F_p(params),
    so a work budget trips at the same unit for the same ideal written over
    F_p(params); sums, negation and inverse charge nothing."""

    __slots__ = ("p", "zero")

    is_zero = staticmethod(operator.not_)

    def __init__(self, p: int):
        self.p = p
        self.zero = 0

    def const(self, c: int) -> int:
        return c % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        if a and b:
            _charge(2)
            return a * b % self.p
        return 0

    def inverse(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    @staticmethod
    def is_one(a: int) -> bool:
        return a == 1

    @staticmethod
    def format(a: int, names) -> str:
        return str(a)

    @staticmethod
    def pth_root(a: int) -> int:
        return a  # Frobenius fixes every element of F_p

    @staticmethod
    def clear_denominators(terms: dict) -> dict:
        return terms  # ints mod p have no denominators


class FractionDomain:
    """F_p(params) as Coefficient fractions: the coefficients of a ring with
    parameters.  Every operation is Coefficient's own, reached through the
    operator or by method name, so a wrapper installed on Coefficient sees
    each call."""

    __slots__ = ("p", "zero")

    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    inverse = staticmethod(methodcaller("inverse"))
    is_zero = staticmethod(methodcaller("is_zero"))
    is_one = staticmethod(methodcaller("is_one"))
    pth_root = staticmethod(methodcaller("pth_root"))

    def __init__(self, p: int):
        self.p = p
        self.zero = Coefficient.zero(p)

    def const(self, c: int) -> Coefficient:
        return Coefficient.from_const(c, self.p)

    def param(self, i: int) -> Coefficient:
        return Coefficient.from_param(i, self.p)

    def clear_denominators(self, terms: dict) -> dict:
        """The coefficients of terms times the lcm of their denominators, all
        in F_p[params]; terms itself when none has a denominator."""
        p = self.p
        lcm = None
        for c in terms.values():
            if c.is_polynomial():
                continue
            if lcm is None:
                lcm = c.den
            else:
                lcm = pp_mul(lcm, pp_divexact(c.den, pp_gcd(lcm, c.den, p), p), p)
        if lcm is None:
            return terms
        one = {0: 1}
        return {
            e: Coefficient(p, pp_mul(c.num, pp_divexact(lcm, c.den, p), p), one, reduced=True)
            for e, c in terms.items()
        }

    @staticmethod
    def format(a: Coefficient, names) -> str:
        return a.format(names)


# ---------------------------------------------------------------------------
# ring context
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingContext:
    """Declares a polynomial ring: characteristic, geometric variables with
    weights, and parameter variables.  The grading by factor blocks belongs to
    the ambient (scheme.AmbientSpace), not to the ring.

    domain is the coefficient domain, derived from p and the parameters:
    FpDomain (ints mod p) without parameters, FractionDomain otherwise.
    """

    p: int
    geom: tuple[str, ...]
    weights: tuple[int, ...]
    params: tuple[str, ...] = ()
    domain: FpDomain | FractionDomain = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.p >= MAX_CHARACTERISTIC:
            raise ValueError(f"characteristic {self.p} is too large (must be below 2^31)")
        if not is_prime(self.p):
            raise ValueError(f"characteristic {self.p} is not prime")
        names = self.geom + self.params
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        if len(self.weights) != len(self.geom):
            raise ValueError("one weight per geometric variable required")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive")
        for sort, names in (("geometric variables", self.geom), ("parameters", self.params)):
            if len(names) > MAX_VARS:
                raise ValueError(f"{len(names)} {sort} are too many (at most {MAX_VARS})")
        domain = FractionDomain(self.p) if self.params else FpDomain(self.p)
        object.__setattr__(self, "domain", domain)

    # -- lookups -------------------------------------------------------------

    @property
    def ngeom(self) -> int:
        return len(self.geom)

    @property
    def nparams(self) -> int:
        return len(self.params)

    def geom_index(self, name: str) -> int:
        try:
            return self.geom.index(name)
        except ValueError:
            raise KeyError(f"no geometric variable {name!r}") from None

    def param_index(self, name: str) -> int:
        try:
            return self.params.index(name)
        except ValueError:
            raise KeyError(f"no parameter {name!r}") from None

    # -- coefficient helpers ------------------------------------------------

    def coeff(self, c: int):
        """The integer c as a coefficient of this ring's domain."""
        return self.domain.const(c)

    def coeff_param(self, name: str) -> Coefficient:
        return self.domain.param(self.param_index(name))

    # -- derived rings -------------------------------------------------------

    def without_geom_var(self, name: str) -> "RingContext":
        i = self.geom_index(name)
        return RingContext(
            p=self.p,
            geom=self.geom[:i] + self.geom[i + 1 :],
            weights=self.weights[:i] + self.weights[i + 1 :],
            params=self.params,
        )

    def with_extra_geom_vars(self, names: tuple[str, ...]) -> "RingContext":
        return RingContext(
            p=self.p,
            geom=self.geom + tuple(names),
            weights=self.weights + (1,) * len(names),
            params=self.params,
        )

    def fresh_name(self, base: str) -> str:
        taken = set(self.geom) | set(self.params)
        name = base
        while name in taken:
            name += "_"
        return name
