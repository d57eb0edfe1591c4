"""Chart-by-chart surface models and the Jacobian-criterion machinery.

A SurfaceModel is a surface presented inside a weighted projective or
multiprojective ambient (hypersurfaces / complete intersections), as a double
cover of a product of projective lines, or as the blow-up of a parent model
at a closed point.  All verification is chart-by-chart: a Chart is an affine
ring with equations and relations.  Each inverted element u carries a
companion variable u_inv, and Chart.relations holds u*u_inv - 1, built once
when u is inverted (Chart.with_inversion), so invertibility enters the ideal
instead of being assumed.

AmbientSpace is the one description of the ambient: its factor blocks (a
weighted projective space is one block of all its variables, a product of
projective spaces one block per factor), the degree of a polynomial in each
block, and the locus the standard charts miss.  The standard charts set one
weight-1 variable of every block to 1.  On a weighted projective space they
miss the points where every weight-1 variable vanishes; a product of
projective spaces has all weights 1, and they miss nothing there (its
irrelevant ideal is generated by the products of one variable from every
block: Cox, The homogeneous coordinate ring of a toric variety, 1995).
Ambient emptiness of a homogeneous ideal is therefore tested chart by chart
and then on that locus alone, and a locus of the ambient (that one, or a
singular stratum) is empty when one Groebner basis shows that its affine
cone is at most the vertex (groebner.projective_is_empty).

Regularity uses the Jacobian criterion over the base field F_p(params) with
derivations taken in both variable sorts: geometric columns detect smoothness
over the algebraic closure, parameter columns supply the extra derivations
that distinguish regular-but-not-smooth points.  The ideal with parameter
columns contains every geometric minor, so the non-regular locus lies inside
the geometric non-smooth locus, and a chart whose p-th root closure basis
(geom_normal's certificate, kept per model) is [1] is regular.

Reducedness is witnessed by a Jacobian minor m outside the radical of a
chart ideal I.  Before the Rabinowitsch basis of (I, 1 - T*m), each minor
that uses one or two geometric variables S is tried on the fibres of X over
the points a of F_p^S: when m(a) != 0 and I(a) is not the unit ideal in the
ring without S, the fibre has a point over the algebraic closure of
F_p(params) by the weak Nullstellensatz (Cox, Little & O'Shea, Ideals,
Varieties, and Algorithms, 4.1), m(a) != 0 there, and so m is not in the
radical.  A minor inside the radical vanishes on all of X, so no fibre can
show it; the first witness is the one the Rabinowitsch basis alone finds.

Every check is decided chart by chart, and by any chart that decides it,
even when a resource limit stopped another chart (chart_by_chart,
every_chart).  A check that must hold on every chart (regular, geom_normal,
disjointness) fails on one failing chart, and is None when none fails and
some chart was stopped; reducedness holds at the first smooth-point witness.
Each check returns (verdict, charts): True/False/None and one ChartVerdict
per chart tried, valued by what it decided (a bool, a dimension with its
Polynomial basis, a minor index with its minor).  ambient_check returns
the strata and coverage, and a blow-up keeps the polynomial it inverted on
its center chart (SurfaceModel.localizer, or None).  The catalogue renders
these values into report text; this module makes none.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace

from .groebner import (
    Inconclusive,
    Limits,
    buchberger,
    degree_of_basis,
    dimension_of_basis,
    is_unit_ideal,
    projective_is_empty,
    radical_membership,
    reduce as normal_form,
    saturate,
)
from .orders import grevlex
from .parsing import ExtraChartDecl, ModelDecl, parse_poly
from .poly import Polynomial
from .ring import RingContext, unpack

@dataclass(frozen=True)
class AmbientSpace:
    # factors: () for a weighted projective space, else the dimensions of a
    # product of projective spaces (all weights 1)
    ring: RingContext
    factors: tuple[int, ...] = ()

    def factor_blocks(self) -> tuple[tuple[str, ...], ...]:
        if not self.factors:
            return (self.ring.geom,)
        blocks = []
        start = 0
        for d in self.factors:
            blocks.append(self.ring.geom[start : start + d + 1])
            start += d + 1
        return tuple(blocks)

    def degree(self, f: Polynomial) -> tuple[int, ...]:
        """Weighted degree of f in each factor block; zero has degree 0 in
        every block.  Raises ValueError when the terms of f disagree."""
        ring = self.ring
        blocks = [[ring.geom_index(v) for v in b] for b in self.factor_blocks()]
        exps = {unpack(e, ring.ngeom) for e in f.terms}
        degs = {tuple(sum(x[i] * ring.weights[i] for i in b) for b in blocks) for x in exps}
        if len(degs) > 1:
            raise ValueError(f"{f} is not homogeneous in the ambient")
        return degs.pop() if degs else (0,) * len(blocks)

    def uncharted_empty(self, gens, limits: Limits | None = None) -> bool:
        """True iff the homogeneous gens cut out nothing where the standard
        charts miss, i.e. where every weight-1 variable vanishes.  With all
        weights 1 the charts cover the ambient and nothing is computed."""
        ring = self.ring
        if all(w == 1 for w in ring.weights):
            return True
        weight1 = [Polynomial.variable(ring, v) for v, w in zip(ring.geom, ring.weights) if w == 1]
        return projective_is_empty(list(gens) + weight1, limits)


@dataclass(frozen=True)
class Chart:
    name: str
    ring: RingContext
    equations: tuple[Polynomial, ...]
    relations: tuple[Polynomial, ...] = ()  # u*u_inv - 1 for each inverted u
    provenance: str = "standard"
    from_vars: tuple[str, ...] = ()  # ambient vars set to 1, when applicable

    @property
    def codim(self) -> int:
        return self.ring.ngeom - 2

    def full_equations(self) -> tuple[Polynomial, ...]:
        return self.equations + self.relations

    def with_inversion(self, u: Polynomial, base: str) -> "Chart":
        inv_name = self.ring.fresh_name(base + "_inv")
        ring2 = self.ring.with_extra_geom_vars((inv_name,))
        eqs = tuple(e.change_ring(ring2) for e in self.equations)
        rels = tuple(r.change_ring(ring2) for r in self.relations)
        rel = u.change_ring(ring2) * Polynomial.variable(ring2, inv_name) - Polynomial.one(ring2)
        return replace(self, ring=ring2, equations=eqs, relations=rels + (rel,))


@dataclass
class SurfaceModel:
    model_id: str
    ambient: AmbientSpace
    presentation: str  # "hypersurfaces" | "double_cover" | "blow_up"
    # in the ambient ring: the hypersurfaces, a double cover's branch
    # section, a blow-up's parent equations
    equations: tuple[Polynomial, ...] = ()
    charts: tuple[Chart, ...] = ()
    parent: "SurfaceModel | None" = None
    center_degree: int | None = None
    localizer: Polynomial | None = None  # h inverted on a blow-up's center chart
    # chart name -> decided chart_singular_data, exact under any limits
    _singular: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len({c.name for c in self.charts}) < len(self.charts):
            raise ValueError(f"chart names repeat: {[c.name for c in self.charts]}")

    @property
    def ring(self) -> RingContext:
        return self.ambient.ring

    def chart(self, name: str) -> Chart:
        for c in self.charts:
            if c.name == name:
                return c
        raise KeyError(f"no chart named {name!r}")


# ---------------------------------------------------------------------------
# chart construction
# ---------------------------------------------------------------------------


def _standard_charts(ambient: AmbientSpace, equations) -> tuple[Chart, ...]:
    """One chart per choice of a weight-1 variable from each factor block,
    that variable set to 1 and dropped."""
    weight = dict(zip(ambient.ring.geom, ambient.ring.weights))
    blocks = [[v for v in b if weight[v] == 1] for b in ambient.factor_blocks()]
    out = []
    for combo in itertools.product(*blocks):
        out.append(
            Chart(
                name="&".join(f"D+({v})" for v in combo),
                ring=ambient.ring.without_geom_var(*combo),
                equations=tuple(f.dehomogenize(*combo) for f in equations),
                provenance="standard",
                from_vars=combo,
            )
        )
    return tuple(out)


def _build_extra_chart(ring: RingContext, decl: ExtraChartDecl) -> Chart:
    cring = RingContext(
        p=ring.p,
        geom=tuple(decl.coords),
        weights=(1,) * len(decl.coords),
        params=ring.params,
    )
    chart = Chart(
        name=decl.name,
        ring=cring,
        equations=tuple(parse_poly(cring, t) for t in decl.equations),
        provenance="extra",
    )
    for text in decl.invert:
        base = text if text.isidentifier() else "q"
        chart = chart.with_inversion(parse_poly(chart.ring, text), base)
    return chart


def build_model(decl: ModelDecl, model_id: str, limits: Limits | None = None) -> SurfaceModel:
    """Assemble a SurfaceModel from a parsed declaration: its base
    presentation, blown up when the declaration ends in a blow-up.  A
    hypersurface that is not homogeneous in the ambient is rejected with
    ValueError."""
    ambient = AmbientSpace(decl.ring, decl.factors)
    if decl.cover_section is not None:
        model = double_cover(ambient, decl.cover_section, model_id)
    else:
        for f in decl.hypersurfaces:
            ambient.degree(f)  # raises ValueError when f is not homogeneous
        extra = tuple(_build_extra_chart(decl.ring, d) for d in decl.extra_chart_decls)
        model = SurfaceModel(
            model_id=model_id,
            ambient=ambient,
            presentation="hypersurfaces",
            equations=decl.hypersurfaces,
            charts=_standard_charts(ambient, decl.hypersurfaces) + extra,
        )
    if decl.blowup_chart is None:
        return model
    return blow_up(model, decl.blowup_chart, decl.blowup_center, decl.localize, model_id, limits)


# ---------------------------------------------------------------------------
# blow-up and double cover
# ---------------------------------------------------------------------------


def _bare_variable(f: Polynomial) -> str | None:
    if len(f.terms) != 1 or f.total_degree() != 1:
        return None
    (c,) = f.terms.values()
    return f.support()[0] if f.ring.domain.is_one(c) else None


def _blowup_chart(c: Chart, gnum: Polynomial, gden: Polynomial, varbase: str, limits) -> Chart:
    """Chart where gnum = t*gden, exceptional divisor cut by gden."""
    tname = c.ring.fresh_name(varbase)
    ring1 = c.ring.with_extra_geom_vars((tname,))
    bare = _bare_variable(gnum)
    eliminable = (
        bare is not None
        and bare not in gden.support()
        and all(bare not in r.support() for r in c.relations)
    )
    if eliminable:
        # gnum is a coordinate; rewrite it as t*gden and drop the variable
        work_ring = ring1.without_geom_var(bare)
        exceptional = gden.change_ring(work_ring)
        sub = {bare: Polynomial.variable(work_ring, tname) * exceptional}
        work_eqs = [f.substitute(sub, work_ring) for f in c.equations]
        work_eqs = [g for g in work_eqs if not g.is_zero()]
    else:
        work_ring = ring1
        exceptional = gden.change_ring(ring1)
        t = Polynomial.variable(ring1, tname)
        work_eqs = [e.change_ring(ring1) for e in c.equations]
        work_eqs.append(gnum.change_ring(ring1) - t * exceptional)
    sat = saturate(work_eqs, exceptional, limits) if work_eqs else []
    return Chart(
        name=f"{c.name}|{varbase}",
        ring=work_ring,
        equations=tuple(sat),
        relations=tuple(r.change_ring(work_ring) for r in c.relations),
        provenance="blowup",
    )


def blow_up(
    parent: SurfaceModel,
    chart_name: str,
    center_texts,
    localize: str | None = None,
    model_id: str = "blowup",
    limits: Limits | None = None,
) -> SurfaceModel:
    """Blow up a parent model at a closed point given by two center
    generators on one chart.  The center chart is replaced by the two
    standard blow-up charts; the other parent charts are retained."""
    try:
        c0 = parent.chart(chart_name)
    except KeyError:
        raise ValueError(f"blowup chart {chart_name!r} is not a chart of the model") from None
    h = parse_poly(c0.ring, localize) if localize else None
    if h is not None:
        c0 = c0.with_inversion(h, "h")
    g1 = parse_poly(c0.ring, center_texts[0])
    g2 = parse_poly(c0.ring, center_texts[1])
    probe = list(c0.full_equations()) + [g1, g2]
    order = grevlex(c0.ring.ngeom)
    basis = buchberger(probe, order, limits)
    d = dimension_of_basis(basis, c0.ring.ngeom, order)
    if d != 0:
        raise ValueError(f"blow-up center has dimension {d}, expected a closed point")
    degree = degree_of_basis(basis, c0.ring.ngeom, order)
    chart_a = _blowup_chart(c0, g1, g2, "v", limits)
    chart_b = _blowup_chart(c0, g2, g1, "u", limits)
    # Retain every parent chart, the center chart included: away from the
    # center the blow-up is an isomorphism, so the retained charts cover
    # that locus (in particular any part of the center chart outside the
    # localization), while the two blow-up charts cover the exceptional
    # fiber.  The retained center chart re-verifies the center point itself
    # downstairs; that overcount never lowers a verdict.
    retained = tuple(replace(c, provenance="parent") for c in parent.charts)
    return SurfaceModel(
        model_id=model_id,
        ambient=parent.ambient,
        presentation="blow_up",
        equations=parent.equations,
        charts=(chart_a, chart_b) + retained,
        parent=parent,
        center_degree=degree,
        localizer=h,
    )


def double_cover(ambient: AmbientSpace, section: Polynomial, model_id: str = "cover") -> SurfaceModel:
    """Double cover of a product of projective spaces of total dimension 2,
    branched over a section of even degree in every factor (twice the
    bidegree); one chart per trivializing product chart of the base, with
    cover variable w.  Any other base, or a section of odd degree in some
    factor, is rejected with ValueError."""
    if sum(ambient.factors) != 2:
        raise ValueError(f"a double cover needs a product of projective spaces of dimension 2, not {ambient.factors}")
    deg = ambient.degree(section)
    if any(d % 2 for d in deg):
        raise ValueError(f"section degree {deg} is odd in some factor")
    base_charts = _standard_charts(ambient, (section,))
    charts = []
    for bc in base_charts:
        (s_chart,) = bc.equations
        wname = bc.ring.fresh_name("w")
        cring = bc.ring.with_extra_geom_vars((wname,))
        w = Polynomial.variable(cring, wname)
        charts.append(replace(bc, ring=cring, equations=(w * w - s_chart.change_ring(cring),)))
    return SurfaceModel(
        model_id=model_id,
        ambient=ambient,
        presentation="double_cover",
        equations=(section,),
        charts=tuple(charts),
    )


# ---------------------------------------------------------------------------
# ambient checks
# ---------------------------------------------------------------------------


@dataclass
class AmbientReport:
    ok: bool
    strata: tuple[tuple[int, bool], ...] = ()
    coverage: str = "covered"  # "covered" | "asserted" | "uncovered"


def ambient_check(model: SurfaceModel, limits: Limits | None = None) -> AmbientReport:
    """Verify the ambient singular strata miss the surface and that weight-1
    standard charts cover it (extra charts downgrade failure to 'asserted').
    A blow-up's ambient is its parent's, and so is its report."""
    if model.presentation == "blow_up":
        return ambient_check(model.parent, limits)
    ambient = model.ambient
    ring = ambient.ring
    if ambient.factors:
        return AmbientReport(ok=True)
    strata = []
    for d in sorted({d for w in ring.weights for d in range(2, w + 1) if w % d == 0}):
        killed = [Polynomial.variable(ring, v) for v, w in zip(ring.geom, ring.weights) if w % d != 0]
        strata.append((d, projective_is_empty(list(model.equations) + killed, limits)))
    coverage = "covered"
    if not ambient.uncharted_empty(model.equations, limits):
        coverage = "asserted" if any(c.provenance == "extra" for c in model.charts) else "uncovered"
    ok = coverage != "uncovered" and all(empty for _, empty in strata)
    return AmbientReport(ok=ok, strata=tuple(strata), coverage=coverage)


# ---------------------------------------------------------------------------
# Jacobian machinery
# ---------------------------------------------------------------------------


def jacobian_minors(
    polys: tuple[Polynomial, ...],
    ring: RingContext,
    size: int,
    include_params: bool,
) -> list[Polynomial]:
    """All size x size minors of the derivation matrix of polys: geometric
    columns always, parameter columns when include_params.  Each minor is a
    Laplace expansion along its first row, and every smaller minor is
    computed once and shared by all the minors that expand into it."""
    colnames = list(ring.geom)
    if include_params:
        colnames += list(ring.params)
    matrix = [[f.diff(nm) for nm in colnames] for f in polys]
    if size == 0:
        return [Polynomial.one(ring)]

    @functools.cache
    def det(rows: tuple[int, ...], cols: tuple[int, ...]) -> Polynomial:
        top = matrix[rows[0]]
        if len(rows) == 1:
            return top[cols[0]]
        out = Polynomial.zero(ring)
        for j, c in enumerate(cols):
            if top[c].is_zero():
                continue
            sub = det(rows[1:], cols[:j] + cols[j + 1 :])
            if sub.is_zero():
                continue
            term = top[c] * sub
            out = out + (term if j % 2 == 0 else -term)
        return out

    seen = set()
    out: list[Polynomial] = []
    for rsel in itertools.combinations(range(len(polys)), size):
        for csel in itertools.combinations(range(len(colnames)), size):
            m = det(rsel, csel)
            if m.is_zero():
                continue
            key = frozenset(m.terms.items())
            nkey = frozenset((-m).terms.items())
            if key in seen or nkey in seen:
                continue
            seen.add(key)
            out.append(m)
    return out


def nonsmooth_ideal(chart: Chart, include_params: bool = False) -> list[Polynomial]:
    """Generators of the locus where the derivation matrix drops below the
    expected rank: chart equations plus all codim x codim minors, for the
    chart's codimension.

    Each equation is first multiplied by the lcm c of its coefficient
    denominators, so the minors are built without parameter fractions.  The
    ideal does not change (Fitting ideals are invariant under unit row
    scaling, Eisenbud, Commutative Algebra, section 20): c is a unit of
    F_p(params), a geometric derivation of c*f is c times that of f, and a
    parameter derivation adds only f*dc, a multiple of f, which the ideal
    already contains.  geometric_integrality builds its minors from the
    uncleared equations instead, because its report prints the witness
    minor and its index."""
    eqs = tuple(f.clear_denominators() for f in chart.full_equations())
    return list(eqs) + jacobian_minors(eqs, chart.ring, chart.codim, include_params)


def pth_root_closure(gens: list[Polynomial], limits: Limits | None = None) -> list[Polynomial]:
    """Reduced basis of the ideal enlarged by p-th roots of any basis member
    that is a p-th power; the radical (hence the dimension) is unchanged and
    the certificate basis gets sharper."""
    if not gens:
        return []
    ring = gens[0].ring
    order = grevlex(ring.ngeom)
    basis = buchberger(gens, order, limits)
    while True:
        fresh = []
        for g in basis:
            r = g.pth_root()
            if r is not None and not normal_form(r, basis, order, limits).is_zero():
                fresh.append(r)
        if not fresh:
            return basis
        basis = buchberger(basis + fresh, order, limits)


@dataclass(frozen=True)
class ChartVerdict:
    """What one chart decided for one check: the decided value, or None
    when a resource limit stopped the chart, with the limit's message."""

    chart: str
    provenance: str
    value: object
    limit: str


def chart_by_chart(charts, decide, until=lambda value: False) -> list[ChartVerdict]:
    """Run decide on each chart in order.  A chart whose decision trips a
    resource limit is recorded undecided and the loop goes on; it stops at
    the first decided value that until accepts."""
    out = []
    for c in charts:
        try:
            value, limit = decide(c), ""
        except Inconclusive as exc:
            value, limit = None, str(exc)
        out.append(ChartVerdict(c.name, c.provenance, value, limit))
        if value is not None and until(value):
            break
    return out


def every_chart(verdicts, holds=bool) -> bool | None:
    """False when some decided chart fails holds, otherwise None when some
    chart is undecided, otherwise True."""
    if any(v.value is not None and not holds(v.value) for v in verdicts):
        return False
    if any(v.value is None for v in verdicts):
        return None
    return True


def chart_singular_data(chart: Chart, limits: Limits | None = None) -> tuple[int, list[Polynomial]]:
    """Dimension of the geometric nonsmooth locus on one chart, read off the
    p-th root closure basis that is also its certificate: the closure lies
    between the nonsmooth ideal and its radical, so the dimension agrees.
    Returns (dimension, basis)."""
    basis = pth_root_closure(nonsmooth_ideal(chart, include_params=False), limits)
    n = chart.ring.ngeom
    return dimension_of_basis(basis, n, grevlex(n)), basis


def _singular_data(model: SurfaceModel, chart: Chart, limits: Limits | None):
    """chart_singular_data of one of the model's charts, computed once; a
    tripped limit is not kept."""
    data = model._singular.get(chart.name)
    if data is None:
        data = model._singular[chart.name] = chart_singular_data(chart, limits)
    return data


def check_regular(model: SurfaceModel, limits: Limits | None = None):
    """Jacobian criterion with parameter derivations: the non-regular locus
    ideal is the unit ideal on every chart.  It contains every geometric
    minor, so a chart whose closure basis is [1] (dimension -1) is regular
    with no parameter minor built; other charts, and those whose closure
    trips a limit, build it.  Returns (True/False/None, per-chart verdicts)."""

    def regular_on(c: Chart) -> bool:
        try:
            if _singular_data(model, c, limits)[0] < 0:
                return True
        except Inconclusive:
            pass
        return is_unit_ideal(nonsmooth_ideal(c, include_params=True), limits=limits)

    charts = chart_by_chart(model.charts, regular_on)
    return every_chart(charts), charts


def is_geometrically_normal(model: SurfaceModel, limits: Limits | None = None):
    """Serre criterion specialised to the catalogue presentations: normal iff
    the geometric singular locus has dimension <= 0 on every chart (S2
    holds for the hypersurface / complete-intersection charts in use).
    Returns (True/False/None, per-chart verdicts valued by
    chart_singular_data)."""
    charts = chart_by_chart(model.charts, lambda c: _singular_data(model, c, limits))
    return every_chart(charts, lambda data: data[0] <= 0), charts


def _nonzero_on_a_fibre(m: Polynomial, eqs, limits: Limits | None) -> bool:
    """True when m is a nonzero constant on a nonempty fibre: some point a
    of F_p^S, S the one or two geometric variables m uses, has m(a) != 0
    and a fibre eqs(a) that is not the unit ideal in the ring without S.
    That fibre has a point over the algebraic closure of F_p(params)
    (Nullstellensatz), m is nonzero there, so m lies outside the radical of
    (eqs).  False decides nothing."""
    ring = m.ring
    used = m.support()
    if not 1 <= len(used) <= 2:
        return False
    fibre_ring = ring.without_geom_var(*used)
    for a in itertools.product(range(ring.p), repeat=len(used)):
        point = dict(zip(used, a))
        if m.substitute(point, fibre_ring).is_zero():
            continue
        if not is_unit_ideal([f.substitute(point, fibre_ring) for f in eqs], limits=limits):
            return True
    return False


def _outside_radical(m: Polynomial, eqs, limits: Limits | None) -> bool:
    """Whether m lies outside the radical of (eqs): a nonempty fibre where m
    does not vanish, else the Rabinowitsch basis of radical_membership."""
    return _nonzero_on_a_fibre(m, eqs, limits) or not radical_membership(m, eqs, limits)


def _smooth_point_witness(c: Chart, limits: Limits | None):
    """(index, minor) for the first Jacobian minor of the chart outside the
    radical of its ideal, or False when every minor lies inside.

    Each minor is first tried on the fibres over the F_p-points of the one
    or two geometric variables it uses (_nonzero_on_a_fibre), and only
    then by a Rabinowitsch basis.  Both answers are exact, and the fibre
    test can never fire for a minor inside the radical: such a minor
    vanishes on all of X, so every fibre on which it is a nonzero constant
    is empty.  The first witness and its index are therefore the ones the
    Rabinowitsch basis alone would give."""
    eqs = c.full_equations()
    for i, m in enumerate(jacobian_minors(eqs, c.ring, c.codim, include_params=False)):
        if _outside_radical(m, eqs, limits):
            return i, m
    return False


def geometric_integrality(model: SurfaceModel, limits: Limits | None = None):
    """Reducedness: some chart carries a geometric smooth point, witnessed by
    a Jacobian minor outside the radical of the chart ideal.  The charts are
    tried in order up to the first witness.  Returns (True/False/None,
    per-chart verdicts valued by (minor_index, minor) or False); None when
    no chart shows a witness and some chart is undecided."""
    charts = chart_by_chart(model.charts, lambda c: _smooth_point_witness(c, limits), until=bool)
    no_witness = every_chart(charts, lambda witness: not witness)
    return (None if no_witness is None else not no_witness), charts


def restrict_to_chart(f: Polynomial, chart: Chart) -> Polynomial:
    """Restriction of an ambient polynomial to a standard chart."""
    if not chart.from_vars:
        raise ValueError(f"chart {chart.name!r} has no ambient dehomogenization data")
    return f.dehomogenize(*chart.from_vars).change_ring(chart.ring)


def subschemes_disjoint(
    model: SurfaceModel,
    a_gens: list[Polynomial],
    b_gens: list[Polynomial],
    limits: Limits | None = None,
):
    """Emptiness of the intersection of two homogeneous subschemes of the
    model: the unit ideal on every standard chart, then emptiness on the
    locus those charts miss.  Charts without ambient restriction data are
    not tried.  Returns (True/False/None, per-chart verdicts valued by
    whether the chart's ideal is the unit ideal); a not-unit chart decides
    False and an undecided one None, with no ambient test."""
    gens = list(a_gens) + list(b_gens)

    def unit_on(c: Chart) -> bool:
        restricted = [restrict_to_chart(f, c) for f in gens]
        return is_unit_ideal(list(c.full_equations()) + restricted, limits=limits)

    charts = chart_by_chart([c for c in model.charts if c.from_vars], unit_on)
    disjoint = every_chart(charts)
    if disjoint:
        disjoint = model.ambient.uncharted_empty(list(model.equations) + gens, limits)
    return disjoint, charts
