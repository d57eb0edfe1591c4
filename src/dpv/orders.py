"""Monomial orders on geometric exponent tuples.

grevlex is the default everywhere; lex and block elimination orders exist
only because variable elimination needs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import neg


def grevlex_key(e):
    return (sum(e), tuple(map(neg, reversed(e))))


def grevlex_rkey(e):
    """A key whose ascending order is grevlex_key's descending order."""
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

    def key(self, e):
        if self.kind == "grevlex":
            return grevlex_key(e)
        if self.kind == "lex":
            return tuple(e)
        eb, rest = self._split(e)
        return (grevlex_key(eb), grevlex_key(rest))

    def rkey(self, e):
        """A key whose ascending order is key's descending order, so a
        min-heap of rkeys pops the largest monomial first."""
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
