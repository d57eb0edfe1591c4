"""Monomial orders on packed geometric monomials (ring.pack).

grevlex is the default everywhere; lex and block elimination orders exist
only because variable elimination needs them.

Each order has one sort key, MonomialOrder.rkey, and it sorts the largest
monomial first.  Under grevlex the packed key is its own rkey; lex and elim
build theirs from the exponents.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import neg

from .ring import unit, unpack


@dataclass(frozen=True)
class MonomialOrder:
    kind: str  # "grevlex" | "lex" | "elim"
    n: int
    block: tuple[int, ...] = ()  # dominant variable slots for "elim"

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex", "elim"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == "elim" and not self.block:
            raise ValueError("elimination order needs a dominant block")

    def rkey(self, e):
        """The order's only key: ascending rkey is descending in the order,
        so min(terms, key=rkey) is the leading monomial and a min-heap of
        rkeys pops the largest monomial first."""
        if self.kind == "grevlex":
            return e
        x = unpack(e, self.n)
        if self.kind == "lex":
            return tuple(map(neg, x))
        # grevlex on the block's slots, then on the others: zeros in the
        # slots left out do not change a grevlex comparison
        block = sum(x[i] * u for i, u in self._block_units)
        return (block, e - block)

    @cached_property
    def _block_units(self):
        return tuple((i, unit(i)) for i in self.block)


def grevlex(n: int) -> MonomialOrder:
    return MonomialOrder("grevlex", n)


def lex(n: int) -> MonomialOrder:
    return MonomialOrder("lex", n)


def elimination(n: int, block: tuple[int, ...]) -> MonomialOrder:
    """Block order making the given slots dominant; a leading monomial free
    of the block certifies the whole polynomial is (used for elimination)."""
    return MonomialOrder("elim", n, tuple(sorted(block)))
