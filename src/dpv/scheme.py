"""Chart-by-chart surface models and the Jacobian-criterion machinery.

A SurfaceModel is a surface presented inside a weighted projective or
multiprojective ambient (hypersurfaces / complete intersections), as a double
cover of a product of projective lines, or as the blow-up of a parent model
at a closed point.  All verification is chart-by-chart: a Chart is an affine
ring with equations and optional inverted elements (each inverted element u
carries a companion variable u_inv and the relation u*u_inv - 1, so
invertibility enters the ideal instead of being assumed).

Regularity uses the Jacobian criterion over the base field F_p(params) with
derivations taken in both variable sorts: geometric columns detect smoothness
over the algebraic closure, parameter columns supply the extra derivations
that distinguish regular-but-not-smooth points.
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
from .ring import RingContext


@dataclass(frozen=True)
class AmbientSpace:
    kind: str  # "weighted_projective" | "multiprojective"
    ring: RingContext
    factors: tuple[int, ...] = ()

    def factor_blocks(self) -> tuple[tuple[str, ...], ...]:
        if self.kind != "multiprojective":
            return (self.ring.geom,)
        blocks = []
        start = 0
        for d in self.factors:
            blocks.append(self.ring.geom[start : start + d + 1])
            start += d + 1
        return tuple(blocks)


@dataclass(frozen=True)
class Chart:
    name: str
    ring: RingContext
    equations: tuple[Polynomial, ...]
    inverted: tuple[tuple[Polynomial, str], ...] = ()  # (element, inverse var)
    provenance: str = "standard"
    from_vars: tuple[str, ...] = ()  # ambient vars set to 1, when applicable

    @property
    def codim(self) -> int:
        return self.ring.ngeom - 2

    def inversion_relations(self) -> tuple[Polynomial, ...]:
        rels = []
        for u, inv_name in self.inverted:
            v = Polynomial.variable(self.ring, inv_name)
            rels.append(u * v - Polynomial.one(self.ring))
        return tuple(rels)

    def full_equations(self) -> tuple[Polynomial, ...]:
        rels = self.inversion_relations()
        out = list(self.equations)
        for r in rels:
            if r not in out:
                out.append(r)
        return tuple(out)

    def with_inversion(self, u: Polynomial, base: str) -> "Chart":
        inv_name = self.ring.fresh_name(base + "_inv")
        ring2 = self.ring.with_extra_geom_vars((inv_name,))
        eqs = tuple(e.change_ring(ring2) for e in self.equations)
        inv = tuple((g.change_ring(ring2), nm) for g, nm in self.inverted)
        return Chart(
            name=self.name,
            ring=ring2,
            equations=eqs,
            inverted=inv + ((u.change_ring(ring2), inv_name),),
            provenance=self.provenance,
            from_vars=self.from_vars,
        )


@dataclass
class SurfaceModel:
    model_id: str
    ambient: AmbientSpace
    presentation: str  # "hypersurfaces" | "double_cover" | "blow_up"
    equations: tuple[Polynomial, ...] = ()
    charts: tuple[Chart, ...] = ()
    extra_charts: tuple[Chart, ...] = ()
    parent: "SurfaceModel | None" = None
    center_degree: int | None = None
    notes: tuple[str, ...] = ()

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
    ring = ambient.ring
    out = []
    if ambient.kind == "weighted_projective":
        for name, w in zip(ring.geom, ring.weights):
            if w != 1:
                continue
            eqs = tuple(f.dehomogenize(name) for f in equations)
            cring = eqs[0].ring if eqs else ring.without_geom_var(name)
            out.append(
                Chart(
                    name=f"D+({name})",
                    ring=cring,
                    equations=eqs,
                    provenance="standard",
                    from_vars=(name,),
                )
            )
        return tuple(out)
    # multiprojective: one dehomogenized variable per factor
    for combo in itertools.product(*ambient.factor_blocks()):
        eqs = list(equations)
        for name in combo:
            eqs = [f.dehomogenize(name) for f in eqs]
        if eqs:
            cring = eqs[0].ring
        else:
            cring = ring
            for name in combo:
                cring = cring.without_geom_var(name)
        out.append(
            Chart(
                name="&".join(f"D+({v})" for v in combo),
                ring=cring,
                equations=tuple(eqs),
                provenance="standard",
                from_vars=tuple(combo),
            )
        )
    return tuple(out)


def _build_extra_chart(ring: RingContext, decl: ExtraChartDecl) -> Chart:
    inv_names = []
    for text in decl.invert:
        base = text if text.isidentifier() else "q"
        inv_names.append(f"{base}_inv")
    cring = RingContext(
        p=ring.p,
        geom=tuple(decl.coords) + tuple(inv_names),
        weights=(1,) * (len(decl.coords) + len(inv_names)),
        params=ring.params,
        grading=(),
    )
    inverted = tuple(
        (parse_poly(cring, text), inv_names[i]) for i, text in enumerate(decl.invert)
    )
    eqs = tuple(parse_poly(cring, t) for t in decl.equations)
    return Chart(
        name=decl.name,
        ring=cring,
        equations=eqs,
        inverted=inverted,
        provenance="extra",
    )


def build_model(decl: ModelDecl, model_id: str, parents: dict | None = None, limits: Limits | None = None) -> SurfaceModel:
    """Assemble a SurfaceModel from a parsed declaration."""
    ring = decl.ring
    if decl.blowup_parent is not None:
        if not parents or decl.blowup_parent not in parents:
            raise KeyError(f"unknown blow-up parent {decl.blowup_parent!r}")
        return blow_up(
            parents[decl.blowup_parent],
            decl.blowup_chart,
            decl.blowup_center,
            localize=decl.localize,
            model_id=model_id,
            limits=limits,
        )
    if decl.cover_section is not None:
        ambient = AmbientSpace("multiprojective", ring, decl.factors)
        return double_cover(ambient, decl.cover_section, decl.cover_bidegree, model_id)
    kind = "weighted_projective" if decl.ambient == "wproj" else "multiprojective"
    ambient = AmbientSpace(kind, ring, decl.factors)
    extra = tuple(_build_extra_chart(ring, d) for d in decl.extra_chart_decls)
    charts = _standard_charts(ambient, decl.hypersurfaces) + extra
    return SurfaceModel(
        model_id=model_id,
        ambient=ambient,
        presentation="hypersurfaces",
        equations=decl.hypersurfaces,
        charts=charts,
        extra_charts=extra,
    )


# ---------------------------------------------------------------------------
# blow-up and double cover
# ---------------------------------------------------------------------------


def _bare_variable(f: Polynomial) -> str | None:
    if len(f.terms) != 1:
        return None
    (e, c), = f.terms.items()
    if not f.ring.domain.is_one(c) or sum(e) != 1:
        return None
    return f.ring.geom[e.index(1)]


def _blowup_chart(c: Chart, gnum: Polynomial, gden: Polynomial, varbase: str, limits) -> Chart:
    """Chart where gnum = t*gden, exceptional divisor cut by gden."""
    tname = c.ring.fresh_name(varbase)
    ring1 = c.ring.with_extra_geom_vars((tname,))
    bare = _bare_variable(gnum)
    eliminable = (
        bare is not None
        and all(e[gnum.ring.geom_index(bare)] == 0 for e in gden.terms)
        and all(
            e[gnum.ring.geom_index(bare)] == 0
            for g, _ in c.inverted
            for e in g.terms
        )
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
    inv = tuple((g.change_ring(work_ring), nm) for g, nm in c.inverted)
    return Chart(
        name=f"{c.name}|{varbase}",
        ring=work_ring,
        equations=tuple(sat),
        inverted=inv,
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
    c0 = parent.chart(chart_name)
    notes: list[str] = []
    if localize:
        h = parse_poly(c0.ring, localize)
        c0 = c0.with_inversion(h, "h")
        notes.append(
            f"center chart localized by inverting {h} so the center generators cut only the center point"
        )
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
    notes.append(
        "retained parent charts verify the locus where the blow-up is an isomorphism; "
        "blow-up charts verify the exceptional fiber"
    )
    return SurfaceModel(
        model_id=model_id,
        ambient=parent.ambient,
        presentation="blow_up",
        equations=parent.equations,
        charts=(chart_a, chart_b) + retained,
        parent=parent,
        center_degree=degree,
        notes=tuple(notes),
    )


def double_cover(
    ambient: AmbientSpace,
    section: Polynomial,
    bidegree: tuple[int, int],
    model_id: str = "cover",
) -> SurfaceModel:
    """Double cover of a product of projective lines branched over a section
    of the square of the given bidegree; one chart per trivializing product
    chart of the base, with cover variable w."""
    deg = section.weighted_degree()
    expected = tuple(2 * b for b in bidegree)
    if deg != expected:
        raise ValueError(f"section degree {deg} is not twice the bidegree {bidegree}")
    base_charts = _standard_charts(ambient, (section,))
    charts = []
    for bc in base_charts:
        (s_chart,) = bc.equations
        wname = bc.ring.fresh_name("w")
        cring = bc.ring.with_extra_geom_vars((wname,))
        w = Polynomial.variable(cring, wname)
        eq = w * w - s_chart.change_ring(cring)
        charts.append(
            Chart(
                name=bc.name,
                ring=cring,
                equations=(eq,),
                provenance="standard",
                from_vars=bc.from_vars,
            )
        )
    return SurfaceModel(
        model_id=model_id,
        ambient=ambient,
        presentation="double_cover",
        equations=(),
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
    notes: tuple[str, ...] = ()


def ambient_check(model: SurfaceModel, limits: Limits | None = None) -> AmbientReport:
    """Verify the ambient singular strata miss the surface and that weight-1
    standard charts cover it (extra charts downgrade failure to 'asserted')."""
    if model.presentation == "blow_up":
        parent_report = ambient_check(model.parent, limits)
        notes = parent_report.notes + (
            "blow-up center verified zero-dimensional at construction",
        )
        return replace(parent_report, notes=notes)
    ambient = model.ambient
    ring = ambient.ring
    if ambient.kind == "multiprojective":
        return AmbientReport(ok=True, notes=("ambient is smooth; product charts cover",))
    strata: list[tuple[int, bool]] = []
    ok = True
    divisors = sorted({d for w in ring.weights for d in range(2, w + 1) if w % d == 0})
    for d in divisors:
        kept = [v for v, w in zip(ring.geom, ring.weights) if w % d == 0]
        killed = [v for v, w in zip(ring.geom, ring.weights) if w % d != 0]
        if not kept:
            continue
        gens = list(model.equations) + [
            Polynomial.variable(ring, v) for v in killed
        ]
        empty = projective_is_empty(gens, kept, limits)
        strata.append((d, empty))
        ok = ok and empty
    weight1 = [v for v, w in zip(ring.geom, ring.weights) if w == 1]
    heavy = [v for v, w in zip(ring.geom, ring.weights) if w > 1]
    coverage = "covered"
    notes: list[str] = []
    if heavy:
        gens = list(model.equations) + [Polynomial.variable(ring, v) for v in weight1]
        covered = projective_is_empty(gens, heavy, limits)
        if not covered:
            if model.extra_charts:
                coverage = "asserted"
                notes.append(
                    "weight-1 charts do not cover; remaining locus asserted covered by the declared extra charts"
                )
            else:
                coverage = "uncovered"
                ok = False
                notes.append("weight-1 charts do not cover and no extra charts are declared")
    return AmbientReport(ok=ok, strata=tuple(strata), coverage=coverage, notes=tuple(notes))


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


def nonsmooth_ideal(chart: Chart, codim: int | None = None, include_params: bool = False) -> list[Polynomial]:
    """Generators of the locus where the derivation matrix drops below the
    expected rank: chart equations plus all codim x codim minors.

    Each equation is first multiplied by the lcm c of its coefficient
    denominators, so the minors are built without parameter fractions.  The
    ideal does not change (Fitting ideals are invariant under unit row
    scaling, Eisenbud, Commutative Algebra, section 20): c is a unit of
    F_p(params), a geometric derivation of c*f is c times that of f, and a
    parameter derivation adds only f*dc, a multiple of f, which the ideal
    already contains.  geometric_integrality builds its minors from the
    uncleared equations instead, because its report prints the witness
    minor and its index."""
    if codim is None:
        codim = chart.codim
    eqs = tuple(f.clear_denominators() for f in chart.full_equations())
    minors = jacobian_minors(eqs, chart.ring, codim, include_params)
    gens = list(eqs)
    for m in minors:
        if m not in gens:
            gens.append(m)
    return gens


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
            if not g.is_pth_power():
                continue
            r = g.pth_root()
            if not normal_form(r, basis, order).is_zero():
                fresh.append(r)
        if not fresh:
            return basis
        basis = buchberger(basis + fresh, order, limits)


@dataclass
class ChartRegularity:
    name: str
    provenance: str
    verdict: str  # "yes" | "no" | "inconclusive"
    detail: str = ""


def check_regular(model: SurfaceModel, limits: Limits | None = None):
    """Jacobian criterion with parameter derivations, chart by chart.
    Returns (overall verdict, per-chart records)."""
    per_chart = []
    overall = "yes"
    for c in model.charts:
        try:
            gens = nonsmooth_ideal(c, include_params=True)
            unit = is_unit_ideal(gens, limits=limits)
            verdict = "yes" if unit else "no"
            detail = "non-regular locus ideal is the unit ideal" if unit else "non-regular locus is nonempty"
        except Inconclusive as exc:
            verdict = "inconclusive"
            detail = str(exc)
        per_chart.append(ChartRegularity(c.name, c.provenance, verdict, detail))
        if verdict == "no":
            overall = "no"
        elif verdict == "inconclusive" and overall == "yes":
            overall = "inconclusive"
    return overall, per_chart


@dataclass
class ChartSingularity:
    name: str
    provenance: str
    dim: int | None  # None = inconclusive
    certificate: tuple[str, ...] = ()
    detail: str = ""


def chart_singular_data(chart: Chart, limits: Limits | None = None) -> ChartSingularity:
    """Dimension of the geometric nonsmooth locus on one chart, read off the
    p-th root closure basis that is also its certificate: the closure lies
    between the nonsmooth ideal and its radical, so the dimension agrees."""
    try:
        basis = pth_root_closure(nonsmooth_ideal(chart, include_params=False), limits)
    except Inconclusive as exc:
        return ChartSingularity(chart.name, chart.provenance, None, (), str(exc))
    n = chart.ring.ngeom
    dim = dimension_of_basis(basis, n, grevlex(n))
    return ChartSingularity(chart.name, chart.provenance, dim, tuple(str(g) for g in basis))


def is_geometrically_normal(model: SurfaceModel, limits: Limits | None = None):
    """Serre criterion specialised to the catalogue presentations: normal iff
    the geometric singular locus has dimension <= 0 (S2 holds for the
    hypersurface / complete-intersection charts in use).  Returns (verdict,
    per-chart data); the verdict is None when some chart is inconclusive."""
    data = [chart_singular_data(c, limits) for c in model.charts]
    if any(d.dim is None for d in data):
        return None, data
    return max(d.dim for d in data) <= 0, data


def geometric_integrality(model: SurfaceModel, assumptions: tuple[str, ...] = (), limits: Limits | None = None):
    """Reducedness: some chart carries a geometric smooth point, witnessed by
    a Jacobian minor outside the radical of the chart ideal.  Irreducibility
    is 'implied' when regularity, properness and H0 = k are all on record."""
    witness = None
    for c in model.charts:
        eqs = c.full_equations()
        minors = jacobian_minors(eqs, c.ring, c.codim, include_params=False)
        for i, m in enumerate(minors):
            if not radical_membership(m, eqs, limits):
                witness = {"chart": c.name, "minor_index": i, "minor": str(m)}
                break
        if witness:
            break
    reduced = witness is not None
    if "proper" in assumptions and "H0=k" in assumptions:
        irreducible = "implied"
    else:
        irreducible = "unchecked"
    return {
        "reduced": reduced,
        "witness": witness,
        "irreducible": irreducible,
        "integral": bool(reduced and irreducible == "implied"),
    }


def restrict_to_chart(f: Polynomial, chart: Chart) -> Polynomial:
    """Restriction of an ambient polynomial to a standard chart."""
    if not chart.from_vars:
        raise ValueError(f"chart {chart.name!r} has no ambient dehomogenization data")
    g = f
    for v in chart.from_vars:
        g = g.dehomogenize(v)
    return g.change_ring(chart.ring)


@dataclass
class DisjointnessReport:
    disjoint: bool | None
    chart_certificates: tuple[tuple[str, str], ...] = ()
    notes: tuple[str, ...] = ()


def subschemes_disjoint(
    model: SurfaceModel,
    a_gens: list[Polynomial],
    b_gens: list[Polynomial],
    limits: Limits | None = None,
) -> DisjointnessReport:
    """Emptiness of the intersection of two homogeneous subschemes of the
    model, with a unit-ideal certificate on every chart."""
    ring = model.ring
    certs = []
    notes: list[str] = []
    all_unit = True
    for c in model.charts:
        if not c.from_vars:
            notes.append(f"chart {c.name} skipped (no ambient restriction)")
            continue
        gens = list(c.full_equations())
        gens += [restrict_to_chart(f, c) for f in a_gens]
        gens += [restrict_to_chart(f, c) for f in b_gens]
        try:
            unit = is_unit_ideal(gens, limits=limits)
        except Inconclusive as exc:
            certs.append((c.name, "inconclusive"))
            notes.append(f"chart {c.name}: {exc}")
            all_unit = False
            continue
        certs.append((c.name, "unit" if unit else "not-unit"))
        all_unit = all_unit and unit
    ambient_gens = list(model.equations) + list(a_gens) + list(b_gens)
    if model.ambient.kind == "weighted_projective":
        ambient_empty = projective_is_empty(ambient_gens, list(ring.geom), limits)
    else:
        ambient_empty = True
        for block_a, block_b in itertools.combinations(model.ambient.factor_blocks(), 2):
            for va in block_a:
                for vb in block_b:
                    prod = Polynomial.variable(ring, va) * Polynomial.variable(ring, vb)
                    if not radical_membership(prod, ambient_gens, limits):
                        ambient_empty = False
                        break
                if not ambient_empty:
                    break
            if not ambient_empty:
                break
    if any(v == "inconclusive" for _, v in certs):
        return DisjointnessReport(None, tuple(certs), tuple(notes))
    return DisjointnessReport(bool(ambient_empty and all_unit), tuple(certs), tuple(notes))
