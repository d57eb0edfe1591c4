"""Deterministic random generators shared by the property suites."""

from __future__ import annotations

import random

from dpv.parsing import parse_ring
from dpv.poly import Polynomial
from dpv.ring import RingContext, pack

VAR_NAMES = ("x", "y", "z")
PARAM_NAMES = ("s", "t")


def make_ring(p: int, nvars: int, nparams: int = 0) -> RingContext:
    decl = f"ring p={p} geom {' '.join(VAR_NAMES[:nvars])}"
    if nparams:
        decl += f" params {' '.join(PARAM_NAMES[:nparams])}"
    return parse_ring(decl)


def random_poly(
    ring: RingContext,
    rng: random.Random,
    max_terms: int = 5,
    max_degree: int = 3,
    homogeneous_degree: int | None = None,
) -> Polynomial:
    n = ring.ngeom
    f = Polynomial.zero(ring)
    for _ in range(rng.randint(1, max_terms)):
        d = homogeneous_degree if homogeneous_degree is not None else rng.randint(0, max_degree)
        exps = [0] * n
        for _ in range(d):
            exps[rng.randrange(n)] += 1
        mono = Polynomial(ring, {pack(exps): ring.coeff(1)})
        if ring.nparams and rng.random() < 0.4:
            c = Polynomial.variable(ring, ring.params[rng.randrange(ring.nparams)])
            if rng.random() < 0.5:
                c = c + rng.randint(1, ring.p - 1)
        else:
            c = Polynomial.constant(ring, rng.randint(1, ring.p - 1))
        f = f + mono * c
    return f


def random_ideal(rng: random.Random, ps=(2, 3, 5), max_vars=3, max_params=2):
    p = rng.choice(ps)
    ring = make_ring(p, rng.randint(1, max_vars), rng.randint(0, max_params))
    gens = [random_poly(ring, rng) for _ in range(rng.randint(1, 3))]
    return ring, [g for g in gens if not g.is_zero()]
