"""Monomial orders on geometric exponent tuples.

grevlex is the default everywhere; lex and block elimination orders exist
only because variable elimination needs them.

Each order has one sort key, MonomialOrder.rkey, and it sorts the largest
monomial first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import neg


def grevlex_rkey(e):
    """grevlex's key: ascending rkey is descending grevlex (higher degree
    first, then the smaller last exponent)."""
    return (-sum(e), e[::-1])


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
            return grevlex_rkey(e)
        if self.kind == "lex":
            return tuple(map(neg, e))
        eb, rest = self._split(e)
        return (grevlex_rkey(eb), grevlex_rkey(rest))

    @cached_property
    def _rest(self):
        return tuple(i for i in range(self.n) if i not in self.block)

    def _split(self, e):
        """(block exponents, the other exponents) for an "elim" order."""
        return tuple(e[i] for i in self.block), tuple(e[i] for i in self._rest)


def grevlex(n: int) -> MonomialOrder:
    return MonomialOrder("grevlex", n)


def lex(n: int) -> MonomialOrder:
    return MonomialOrder("lex", n)


def elimination(n: int, block: tuple[int, ...]) -> MonomialOrder:
    """Block order making the given slots dominant; a leading monomial free
    of the block certifies the whole polynomial is (used for elimination)."""
    return MonomialOrder("elim", n, tuple(sorted(block)))
