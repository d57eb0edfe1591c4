"""Text grammar for rings, polynomials, and surface-model declarations.

Ring declaration:

    ring p=3 geom x0:1 x1:1 y:2 z:3 params s0 s1 s2 s3

Polynomial expressions are whitespace-insensitive, use ^ for powers and
require explicit *; identifiers may contain apostrophes (x').  A model text
is a ring line, one ambient line and one base presentation, optionally
followed by one blow-up of that base:

    ambient wproj                      # weights taken from the ring
    ambient multiproj 2 1              # factor dimensions, all weights 1
    hypersurface EXPR                  # any number, none for the whole ambient
    extrachart name=U coords x0 x1 u invert u eq EXPR
    doublecover section EXPR           # or one double cover instead
    blowup chart=NAME center EXPR ; EXPR    # blows up the model above
    localize EXPR                      # inverted on the blow-up's center chart

So a blow-up is declared as its parent's own text followed by a blowup line.
Every other shape is rejected with ValueError: a second ambient, doublecover,
blowup or localize line, a doublecover beside hypersurface or extrachart
lines, a localize without a blowup, any line after the blowup other than
its localize, and an extrachart with more than one name=.  A blowup chart
that the base model does not have is rejected when the model is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import accumulate

from .poly import Polynomial
from .ring import MAX_DEGREE, Inconclusive, RingContext

MAX_NESTING = 100
_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_']*|[0-9]+|\^|\+|\-|\*|/|\(|\))")


def tokenize(text: str) -> list[str]:
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"bad character in expression: {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _ExprParser:
    def __init__(self, ring: RingContext, tokens: list[str]):
        self.ring = ring
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, t):
        got = self.next()
        if got != t:
            raise ValueError(f"expected {t!r}, got {got!r}")

    def parse(self) -> Polynomial:
        f = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing tokens: {self.toks[self.i:]}")
        return f

    def expr(self) -> Polynomial:
        if self.peek() == "-":
            self.next()
            f = -self.term()
        else:
            f = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            g = self.term()
            f = f + g if op == "+" else f - g
        return f

    def term(self) -> Polynomial:
        f = self.factor()
        while self.peek() in ("*", "/"):
            op = self.next()
            g = self.factor()
            if op == "*":
                f = f * g
                continue
            # division only by invertible scalars, i.e. parameter expressions
            if not g.is_unit_constant():
                raise ValueError(f"cannot divide by {g}")
            f = f * self.ring.domain.inverse(g.constant_coefficient())
        return f

    def factor(self) -> Polynomial:
        start = self.i
        f = self.atom()
        if self.peek() == "^":
            self.next()
            n = self.next()
            if n is None or not n.isdigit():
                raise ValueError("exponent must be a nonnegative integer")
            n = int(n)
            # a degree above the packed-key limit would only fail inside the
            # power, after building the powers below it; a constant base
            # has degree 0 whatever the exponent
            base = set(self.toks[start : self.i])
            if n > MAX_DEGREE and base & set(self.ring.geom + self.ring.params):
                sort = "parameter" if base & set(self.ring.params) else "geometric"
                raise ValueError(f"{sort} exponent {n} is above {MAX_DEGREE}")
            f = f**n
        return f

    def atom(self) -> Polynomial:
        t = self.next()
        if t is None:
            raise ValueError("unexpected end of expression")
        if t == "(":
            f = self.expr()
            self.expect(")")
            return f
        if t.isdigit():
            return Polynomial.constant(self.ring, int(t))
        if t in self.ring.geom or t in self.ring.params:
            return Polynomial.variable(self.ring, t)
        raise ValueError(f"unknown variable {t!r}")


def _integer(word: str, what: str) -> int:
    """int(word) for ASCII digits with an optional minus sign (a negative
    value meets its field's range check), else a ValueError naming what and word."""
    if not re.fullmatch("-?[0-9]+", word):
        raise ValueError(f"{what} must be an integer, got {word!r}")
    return int(word)


def parse_poly(ring: RingContext, text: str) -> Polynomial:
    """The polynomial the text denotes.  Text whose degree in either sort
    of variable overflows a packed monomial (see ring.MAX_DEGREE) is
    rejected input: ValueError, not the kernel's Inconclusive, and so is
    text nested past MAX_NESTING parentheses (four parser frames a level)."""
    toks = tokenize(text)
    if max(accumulate((t == "(") - (t == ")") for t in toks), default=0) > MAX_NESTING:
        raise ValueError(f"expression nested too deeply (at most {MAX_NESTING} levels)")
    try:
        return _ExprParser(ring, toks).parse()
    except Inconclusive as exc:
        raise ValueError(str(exc)) from None


def parse_ring(line: str) -> RingContext:
    words = line.split()
    if not words or words[0] != "ring":
        raise ValueError("ring declaration must start with 'ring'")
    if len(words) < 2 or not words[1].startswith("p="):
        raise ValueError("ring declaration needs p=<prime>")
    p = _integer(words[1][2:], "p")
    geom: list[str] = []
    weights: list[int] = []
    params: list[str] = []
    section = None
    for w in words[2:]:
        if w == "geom":
            section = "geom"
        elif w == "params":
            section = "params"
        elif section == "geom":
            if ":" in w:
                name, wt = w.split(":", 1)
                geom.append(name)
                weights.append(_integer(wt, f"the weight of {name}"))
            else:
                geom.append(w)
                weights.append(1)
        elif section == "params":
            params.append(w)
        else:
            raise ValueError(f"unexpected token {w!r} in ring declaration")
    return RingContext(p=p, geom=tuple(geom), weights=tuple(weights), params=tuple(params))


def parse_ideal_lines(ring: RingContext, text: str) -> list[Polynomial]:
    """Polynomial-per-line format; 'poly NAME = EXPR' and bare EXPR both work."""
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("ring "):
            continue
        if line.startswith("poly "):
            _, rest = line.split(" ", 1)
            if "=" not in rest:
                raise ValueError(f"malformed poly line: {raw!r}")
            rest = rest.split("=", 1)[1]
            out.append(parse_poly(ring, rest))
        else:
            out.append(parse_poly(ring, line))
    return out


# ---------------------------------------------------------------------------
# model declarations
# ---------------------------------------------------------------------------


@dataclass
class ExtraChartDecl:
    name: str
    coords: tuple[str, ...]
    invert: tuple[str, ...]
    equations: tuple[str, ...]


@dataclass
class ModelDecl:
    ring: RingContext
    factors: tuple[int, ...] = ()  # () for wproj, the factor dimensions for multiproj
    hypersurfaces: tuple[Polynomial, ...] = ()
    blowup_chart: str | None = None
    blowup_center: tuple[str, str] | None = None  # raw texts, parsed in the chart ring
    localize: str | None = None
    cover_section: Polynomial | None = None
    extra_chart_decls: tuple[ExtraChartDecl, ...] = field(default=())


_ONCE = {"ambient", "doublecover", "blowup", "localize"}


def parse_model(text: str) -> ModelDecl:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("ring "):
        raise ValueError("model text must start with a ring declaration")
    ring = parse_ring(lines[0])
    decl = ModelDecl(ring=ring)
    hyps: list[Polynomial] = []
    charts: list[ExtraChartDecl] = []
    seen: set[str] = set()
    for line in lines[1:]:
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head in seen and head in _ONCE:
            raise ValueError(f"a model text takes one {head!r} line")
        if "blowup" in seen and head != "localize":
            raise ValueError(f"{head!r} after blowup: a blow-up follows the whole text of the model it blows up")
        seen.add(head)
        if head == "ambient":
            kind, *dims = rest.split() or [None]
            decl.factors = tuple(_integer(w, "a factor dimension") for w in dims)
            if kind == "multiproj":
                if not decl.factors or min(decl.factors) < 0 or sum(d + 1 for d in decl.factors) != ring.ngeom:
                    raise ValueError("factor dimensions do not match the ring")
                if any(w != 1 for w in ring.weights):
                    raise ValueError("a product of projective spaces needs weight-1 variables")
            elif kind != "wproj" or dims:
                raise ValueError(f"bad ambient {rest!r}: expected 'wproj' or 'multiproj DIMS'")
        elif head == "hypersurface":
            hyps.append(parse_poly(ring, rest))
        elif head == "extrachart":
            charts.append(_parse_extrachart(rest))
        elif head == "blowup":
            _parse_blowup(decl, rest)
        elif head == "localize":
            if "blowup" not in seen:
                raise ValueError("localize needs a blowup line before it")
            decl.localize = rest
        elif head == "doublecover":
            word, _, section = rest.partition(" ")
            if word != "section" or not section.strip():
                raise ValueError("doublecover takes 'section EXPR'")
            decl.cover_section = parse_poly(ring, section)
        else:
            raise ValueError(f"unknown model declaration {head!r}")
    if "doublecover" in seen and seen & {"hypersurface", "extrachart"}:
        raise ValueError("a doublecover takes no hypersurface or extrachart lines")
    if "ambient" not in seen:
        raise ValueError("model text needs an ambient line")
    decl.hypersurfaces = tuple(hyps)
    decl.extra_chart_decls = tuple(charts)
    return decl


def _parse_extrachart(rest: str) -> ExtraChartDecl:
    if " eq " not in rest:
        raise ValueError("extrachart needs an 'eq' expression")
    headpart, eq_text = rest.split(" eq ", 1)
    words = headpart.split()
    name = None
    coords: list[str] = []
    invert: list[str] = []
    section = None
    for w in words:
        if w.startswith("name="):
            if name is not None:
                raise ValueError("extrachart takes one name=")
            name = w[5:]
        elif w == "coords":
            section = "coords"
        elif w == "invert":
            section = "invert"
        elif section == "coords":
            coords.append(w)
        elif section == "invert":
            invert.append(w)
        else:
            raise ValueError(f"unexpected token {w!r} in extrachart")
    return ExtraChartDecl(
        name=name or "extra",
        coords=tuple(coords),
        invert=tuple(invert),
        equations=(eq_text.strip(),),
    )


def _parse_blowup(decl: ModelDecl, rest: str) -> None:
    m = re.fullmatch(r"chart=(\S+)\s+center\s(.*)", rest)
    parts = [s.strip() for s in m.group(2).split(";")] if m else []
    if len(parts) != 2 or not all(parts):
        raise ValueError("blowup takes 'chart=NAME center EXPR ; EXPR'")
    decl.blowup_chart = m.group(1)
    # store the raw texts; the builder parses them in the chart ring
    decl.blowup_center = tuple(parts)  # type: ignore[assignment]
