"""Brute-force finite-field oracles for cross-checking the exact engine.

Everything here is deliberately independent of the package internals: dense
univariate arithmetic over F_p, an F_{p^k} implementation with log tables,
and point-enumeration helpers used to validate emptiness verdicts.  Only the
bridge at the end reads engine polynomials, their exponents through
dpv.ring.unpack.
"""

from __future__ import annotations

from functools import lru_cache

from dpv.ring import unpack


# -- dense univariate polynomials over F_p (little-endian int lists) ---------


def u_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def u_deg(a: list[int]) -> int:
    return len(a) - 1


def u_add(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return u_trim(out)


def u_sub(a, b, p):
    return u_add(a, [(-c) % p for c in b], p)


def u_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] = (out[i + j] + c * d) % p
    return u_trim(out)


def u_monic(a, p):
    if not a:
        return []
    lc = a[-1]
    if lc == 1:
        return list(a)
    inv = pow(lc, -1, p)
    return [c * inv % p for c in a]


def u_rem(a, b, p):
    """Remainder of a by b (b nonzero)."""
    a = list(a)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b) and a:
        if a[-1] == 0:
            a.pop()
            continue
        f = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - f * c) % p
        u_trim(a)
    return a


def u_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, u_rem(a, b, p)
    return u_monic(a, p)


def u_powmod(base, e, mod, p):
    result = [1]
    base = u_rem(base, mod, p)
    while e:
        if e & 1:
            result = u_rem(u_mul(result, base, p), mod, p)
        base = u_rem(u_mul(base, base, p), mod, p)
        e >>= 1
    return result


def u_is_irreducible(f, p):
    """Rabin test for a monic polynomial of degree >= 1."""
    k = u_deg(f)
    if k < 1:
        return False
    x = [0, 1]
    primes = {q for q in range(2, k + 1) if k % q == 0 and all(q % r for r in range(2, q))}
    for q in primes:
        h = u_sub(u_powmod(x, p ** (k // q), f, p), u_rem(x, f, p), p)
        if u_deg(u_gcd(f, h, p)) != 0:
            return False
    h = u_sub(u_powmod(x, p**k, f, p), u_rem(x, f, p), p)
    return not h


def find_irreducible(p, k):
    if k == 1:
        return [0, 1]
    for idx in range(p**k):
        coeffs = []
        n = idx
        for _ in range(k):
            coeffs.append(n % p)
            n //= p
        f = coeffs + [1]
        if u_is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")


@lru_cache(maxsize=None)
def irreducibles_upto(p: int, dmax: int) -> tuple[tuple[int, ...], ...]:
    """All monic irreducibles over F_p of degree 1..dmax, by sieving."""
    found: list[list[int]] = []
    for d in range(1, dmax + 1):
        for idx in range(p**d):
            coeffs = []
            n = idx
            for _ in range(d):
                coeffs.append(n % p)
                n //= p
            f = coeffs + [1]
            if all(u_rem(f, list(g), p) for g in found if u_deg(list(g)) <= d // 2):
                found.append(f)
    return tuple(tuple(f) for f in found)


def u_factor_degrees(g, p) -> list[int]:
    """Multiset of irreducible factor degrees of a nonconstant polynomial."""
    g = u_monic(list(g), p)
    assert u_deg(g) >= 1
    out = []
    for f in irreducibles_upto(p, max(1, u_deg(g) // 2)):
        f = list(f)
        while u_deg(g) >= u_deg(f) and not u_rem(g, f, p):
            out.append(u_deg(f))
            q, r = _u_quo(g, f, p)
            assert not r
            g = q
            if u_deg(g) == 0:
                break
        if u_deg(g) == 0:
            break
    if u_deg(g) >= 1:
        out.append(u_deg(g))  # no factor up to half its degree: irreducible
    return sorted(out)


def _u_quo(a, b, p):
    a = list(a)
    inv = pow(b[-1], -1, p)
    quo = [0] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        if a[-1] == 0:
            a.pop()
            continue
        f = a[-1] * inv % p
        shift = len(a) - len(b)
        quo[shift] = f
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - f * c) % p
        u_trim(a)
    return u_trim(quo), a


# -- F_{p^k} with log tables --------------------------------------------------


class GF:
    """F_{p^k}; elements are integers in [0, p^k) whose base-p digits are the
    coordinates in the power basis of a fixed irreducible modulus."""

    def __init__(self, p: int, k: int):
        self.p, self.k, self.q = p, k, p**k
        self.modulus = find_irreducible(p, k)
        self.digits = []
        for idx in range(self.q):
            n, ds = idx, []
            for _ in range(k):
                ds.append(n % p)
                n //= p
            self.digits.append(tuple(ds))
        self._idx = {ds: i for i, ds in enumerate(self.digits)}
        # reduction rows for x^(k+j)
        self._red = []
        row = [(-c) % p for c in self.modulus[:-1]]
        for _ in range(k - 1):
            self._red.append(list(row))
            row = [0] + row
            if len(row) > k:
                top = row.pop()
                if top:
                    row = [(c + top * r) % p for c, r in zip(row, self._red[0])]
        self._build_log_tables()

    def _raw_mul(self, a: tuple, b: tuple) -> tuple:
        p, k = self.p, self.k
        conv = [0] * (2 * k - 1)
        for i, c in enumerate(a):
            if c:
                for j, d in enumerate(b):
                    conv[i + j] = (conv[i + j] + c * d) % p
        out = conv[:k]
        for j in range(k, 2 * k - 1):
            top = conv[j]
            if top:
                red = self._red[j - k]
                out = [(c + top * r) % p for c, r in zip(out, red)]
        return tuple(out)

    def _build_log_tables(self):
        q = self.q
        factors = set()
        n = q - 1
        d = 2
        while d * d <= n:
            while n % d == 0:
                factors.add(d)
                n //= d
            d += 1
        if n > 1:
            factors.add(n)

        def order_is_full(gd):
            for f in factors:
                acc = (1,) + (0,) * (self.k - 1)
                base, e = gd, (q - 1) // f
                while e:
                    if e & 1:
                        acc = self._raw_mul(acc, base)
                    base = self._raw_mul(base, base)
                    e >>= 1
                if acc == (1,) + (0,) * (self.k - 1):
                    return False
            return True

        gen = None
        for idx in range(2, q):
            if order_is_full(self.digits[idx]):
                gen = self.digits[idx]
                break
        assert gen is not None
        self.exp = [0] * (2 * (q - 1))
        self.log = [0] * q
        acc = (1,) + (0,) * (self.k - 1)
        for t in range(q - 1):
            i = self._idx[acc]
            self.exp[t] = i
            self.exp[t + q - 1] = i
            self.log[i] = t
            acc = self._raw_mul(acc, gen)

    # -- element operations (integers as indices) ----------------------------

    def add(self, i, j):
        p = self.p
        return self._idx[tuple((a + b) % p for a, b in zip(self.digits[i], self.digits[j]))]

    def neg(self, i):
        p = self.p
        return self._idx[tuple((-a) % p for a in self.digits[i])]

    def sub(self, i, j):
        return self.add(i, self.neg(j))

    def mul(self, i, j):
        if i == 0 or j == 0:
            return 0
        return self.exp[self.log[i] + self.log[j]]

    def inv(self, i):
        if i == 0:
            raise ZeroDivisionError
        return self.exp[(self.q - 1 - self.log[i]) % (self.q - 1)]

    def pow(self, i, n):
        if n == 0:
            return 1
        if i == 0:
            return 0
        return self.exp[(self.log[i] * n) % (self.q - 1)]

    def from_int(self, c):
        return c % self.p

    def elements(self):
        return range(self.q)


@lru_cache(maxsize=None)
def gf(p: int, k: int) -> GF:
    return GF(p, k)


# -- univariate polynomials over a GF (dense lists of element indices) -------


def gfu_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def gfu_mul(F: GF, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                if d:
                    out[i + j] = F.add(out[i + j], F.mul(c, d))
    return gfu_trim(out)


def gfu_rem(F: GF, a, b):
    a = list(a)
    inv = F.inv(b[-1])
    while len(a) >= len(b) and a:
        if a[-1] == 0:
            a.pop()
            continue
        f = F.mul(a[-1], inv)
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = F.sub(a[shift + i], F.mul(f, c))
        gfu_trim(a)
    return a


def gfu_gcd(F: GF, a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, gfu_rem(F, a, b)
    if a:
        inv = F.inv(a[-1])
        a = [F.mul(c, inv) for c in a]
    return a


def gfu_powmod(F: GF, base, e, mod):
    result = [1]
    base = gfu_rem(F, base, mod)
    while e:
        if e & 1:
            result = gfu_rem(F, gfu_mul(F, result, base), mod)
        base = gfu_rem(F, gfu_mul(F, base, base), mod)
        e >>= 1
    return result


def gfu_has_root(F: GF, g) -> bool:
    """Does a nonzero univariate polynomial have a root in F itself?"""
    g = list(g)
    if not g:
        raise ValueError("zero polynomial")
    if len(g) == 1:
        return False
    h = gfu_powmod(F, [0, 1], F.q, g)  # x^q mod g
    h = gfu_trim([F.sub(a, b) for a, b in zip(h + [0] * len(g), [0, 1] + [0] * len(g))])
    if not h:
        return True  # g divides x^q - x entirely
    return len(gfu_gcd(F, g, h)) > 1


# -- bridging engine polynomials ----------------------------------------------


def int_terms(f) -> list[tuple[tuple, int]]:
    """Exponent-tuple/int-coefficient pairs of a parameter-free engine
    polynomial, whose coefficients are ints mod p."""
    return [(unpack(e, f.ring.ngeom), f.terms[e]) for e in sorted(f.terms)]


def eval_terms(F: GF, terms, point) -> int:
    acc = 0
    for exps, c in terms:
        v = F.from_int(c)
        for i, e in enumerate(exps):
            if e:
                v = F.mul(v, F.pow(point[i], e))
        acc = F.add(acc, v)
    return acc


def affine_common_point_scan(F: GF, gens_terms) -> bool:
    """Fully naive scan of F^2 for a common zero (use only for small q)."""
    for x in F.elements():
        for y in F.elements():
            if all(eval_terms(F, ts, (x, y)) == 0 for ts in gens_terms):
                return True
    return False


def affine_common_point_sliced(F: GF, gens_terms) -> bool:
    """Scan x in F; decide existence of y by univariate gcds over F."""
    for x in F.elements():
        xpow = [1]
        for _ in range(8):
            xpow.append(F.mul(xpow[-1], x))
        slices = []
        for ts in gens_terms:
            coeffs: dict[int, int] = {}
            for (ex, ey), c in ts:
                v = F.mul(F.from_int(c), xpow[ex])
                coeffs[ey] = F.add(coeffs.get(ey, 0), v)
            g = [coeffs.get(i, 0) for i in range(max(coeffs) + 1)] if coeffs else []
            slices.append(gfu_trim(g))
        nonzero = [s for s in slices if s]
        if not nonzero:
            return True  # every generator vanishes on the whole line x = const
        g = nonzero[0]
        for s in nonzero[1:]:
            g = gfu_gcd(F, g, s)
        if len(g) == 1:
            continue  # slice ideal is the unit ideal: nothing on this line
        if gfu_has_root(F, g):
            return True
    return False


def univariate_common_root_scan(F: GF, gens_terms) -> bool:
    for x in F.elements():
        xpow = [1]
        for _ in range(8):
            xpow.append(F.mul(xpow[-1], x))
        ok = True
        for ts in gens_terms:
            acc = 0
            for (ex,), c in ts:
                acc = F.add(acc, F.mul(F.from_int(c), xpow[ex]))
            if acc != 0:
                ok = False
                break
        if ok:
            return True
    return False


def projective_line_point_scan(F: GF, gens_terms) -> bool:
    """Scan P^1(F) = {[x:1]} + {[1:0]} for a common zero of homogeneous forms."""
    for x in F.elements():
        if all(eval_terms(F, ts, (x, 1)) == 0 for ts in gens_terms):
            return True
    return all(eval_terms(F, ts, (1, 0)) == 0 for ts in gens_terms)
