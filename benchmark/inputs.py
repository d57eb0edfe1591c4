"""Workload inputs, generated from a seed with the standard library only.

run.py builds every input here and hands the program plain text (ring
declarations and polynomials in dpv's expression grammar); the program never
sees a seed.

The ideal pools of `sweep` and `fp-ideals` are fixed draws (POOL_SEED) from
their distributions.  Their per-ideal cost is heavy-tailed: on the sweep
distribution 1 % of ideals take most of the time, and three fresh 400-ideal
draws took 9.2 s, 9.6 s and 23.7 s.  A fresh draw per seed would therefore
measure the draw, not the program.  The run seed draws what does not move
the cost distribution: the order of the ops and each op's normal-form query
polynomials.
"""

from __future__ import annotations

import itertools
import random

POOL_SEED = 20260815

SWEEP_POOL = 300
SWEEP_VARS = ("x", "y", "z")
SWEEP_PARAMS = ("s", "t")

FP_POOL = 12
FP_PRIMES = (2, 3, 5, 7)
FP_VARS = ("a", "b", "c", "d", "e", "f")
FP_GENS = 5
FP_TERMS = 8
FP_QUERIES = 16
FP_QUERY_TERMS = 6


def _mono(names, exps) -> str:
    parts = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, exps) if k]
    return "*".join(parts) or "1"


def _linear_text(lin: dict, p: int) -> str:
    """A coefficient a0 + a1*s + a2*t of F_p[params], as text."""
    parts = [str(lin[k]) if k == "" else f"{lin[k]}*{k}" for k in sorted(lin) if lin[k] % p]
    return "+".join(parts)


def _sweep_poly(rng: random.Random, p: int, nvars: int, nparams: int) -> str:
    """One polynomial of the acceptance-criterion-6 distribution: 1-5 terms
    of degree 0-3; with parameters, 40 % of coefficients are s, t, s + c or
    t + c.  Equal monomials are summed, so the text is exact and a zero
    polynomial shows as the empty string."""
    terms: dict[tuple, dict] = {}
    for _ in range(rng.randint(1, 5)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(nvars)] += 1
        if nparams and rng.random() < 0.4:
            coeff = {SWEEP_PARAMS[rng.randrange(nparams)]: 1}
            if rng.random() < 0.5:
                coeff[""] = rng.randint(1, p - 1)
        else:
            coeff = {"": rng.randint(1, p - 1)}
        lin = terms.setdefault(tuple(exps), {})
        for k, v in coeff.items():
            lin[k] = (lin.get(k, 0) + v) % p
    out = []
    for exps, lin in terms.items():
        c = _linear_text(lin, p)
        if c:
            out.append(f"({c})*{_mono(SWEEP_VARS, exps)}")
    return "+".join(out)


def _ring_text(p: int, geom, params) -> str:
    text = f"ring p={p} geom {' '.join(geom)}"
    return text + (f" params {' '.join(params)}" if params else "")


def sweep_pool() -> list[dict]:
    """SWEEP_POOL ideals: p in {2, 3, 5}, 1-3 variables, 0-2 parameters,
    1-3 nonzero generators."""
    rng = random.Random(POOL_SEED)
    pool = []
    while len(pool) < SWEEP_POOL:
        p = rng.choice((2, 3, 5))
        nvars, nparams = rng.randint(1, 3), rng.randint(0, 2)
        gens = [_sweep_poly(rng, p, nvars, nparams) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if g]
        if gens:
            pool.append({
                "ring": _ring_text(p, SWEEP_VARS[:nvars], SWEEP_PARAMS[:nparams]),
                "shape": [p, nvars, nparams],
                "gens": gens,
            })
    return pool


def _fp_poly(rng: random.Random, p: int, monos, nterms: int) -> str:
    chosen = rng.sample(monos, nterms)
    return "+".join(f"{rng.randint(1, p - 1)}*{_mono(FP_VARS, e)}" for e in chosen)


def _monomials(degrees) -> list[tuple]:
    out = []
    for d in degrees:
        for combo in itertools.combinations_with_replacement(range(len(FP_VARS)), d):
            out.append(tuple(combo.count(i) for i in range(len(FP_VARS))))
    return out


def fp_pool() -> list[dict]:
    """FP_POOL ideals of FP_GENS homogeneous quadrics with FP_TERMS terms in
    six variables over F_p, the primes taken in turn."""
    rng = random.Random(POOL_SEED)
    quad = _monomials((2,))
    pool = []
    for i in range(FP_POOL):
        p = FP_PRIMES[i % len(FP_PRIMES)]
        pool.append({
            "ring": _ring_text(p, FP_VARS, ()),
            "shape": [p, len(FP_VARS), 0],
            "gens": [_fp_poly(rng, p, quad, FP_TERMS) for _ in range(FP_GENS)],
        })
    return pool


def make_inputs(workload: str, seed: int) -> dict:
    """Everything one run hands to the program, from the run seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalogue":
        return {"workload": workload, "ops": []}
    if workload == "sweep":
        pool = sweep_pool()
        for ideal in pool:
            p, nvars, nparams = ideal["shape"]
            q = ""
            while not q:
                q = _sweep_poly(rng, p, nvars, nparams)
            ideal["queries"] = [q]
    elif workload == "fp-ideals":
        pool = fp_pool()
        cubic = _monomials((3,))
        for ideal in pool:
            p = ideal["shape"][0]
            ideal["queries"] = [_fp_poly(rng, p, cubic, FP_QUERY_TERMS) for _ in range(FP_QUERIES)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, ideal in enumerate(pool):
        ideal["pool_index"] = i
    rng.shuffle(pool)
    return {"workload": workload, "ops": pool}
