"""Charts, Jacobian criteria, blow-ups, covers, and the model pipeline."""

import itertools
import random
import re
from dataclasses import replace

import pytest

from dpv import catalogue, groebner, scheme
from dpv.catalogue import ALL_CHECKS, RECORD_ORDER, RECORDS, _record, load_example, verify_example
from dpv.groebner import Inconclusive, Limits, buchberger, dimension, is_unit_ideal
from dpv.orders import grevlex
from dpv.parsing import parse_ideal_lines, parse_model, parse_poly, parse_ring
from dpv.poly import Polynomial
from dpv.ring import unpack, work_done
from dpv.scheme import (
    AmbientSpace,
    Chart,
    ambient_check,
    blow_up,
    build_model,
    chart_by_chart,
    chart_singular_data,
    check_regular,
    double_cover,
    geometric_integrality,
    is_geometrically_normal,
    jacobian_minors,
    nonsmooth_ideal,
    pth_root_closure,
    subschemes_disjoint,
)

PLANE = """
ring p=2 geom x:1 y:1 z:1 params s t
ambient wproj
"""

QUADRIC = """
ring p=2 geom x:1 y:1 z:1 w:1 params s
ambient wproj
hypersurface x^2+s*y^2+z*w
"""


def build(text, model_id="m"):
    return build_model(parse_model(text), model_id)


def test_standard_charts_weighted():
    m = build(
        """
        ring p=3 geom x0:1 x1:1 y:2 z:3 params s0 s1 s2 s3
        ambient wproj
        hypersurface s0*z^2+s1*y^3+s2*x0^6+s3*x1^6
        """
    )
    names = [c.name for c in m.charts]
    assert names == ["D+(x0)", "D+(x1)"]  # only weight-1 charts dehomogenize
    c = m.chart("D+(x0)")
    assert c.from_vars == ("x0",)
    assert tuple(c.ring.geom) == ("x1", "y", "z")
    assert c.codim == 1
    assert len(c.equations) == 1


def test_standard_charts_product():
    m = build(
        """
        ring p=2 geom x:1 y:1 z:1 u:1 v:1 params s t
        ambient multiproj 2 1
        hypersurface u*(x^2+s*z^2)+v*(y^2+t*z^2)
        """
    )
    names = [c.name for c in m.charts]
    assert len(names) == 6
    assert "D+(x)&D+(u)" in names
    c = m.chart("D+(z)&D+(v)")
    assert set(c.ring.geom) == {"x", "y", "u"}
    assert c.codim == 1


def test_ambient_degree():
    ring = parse_ring("ring p=3 geom x:1 y:2 params s")
    wp = AmbientSpace(ring)
    assert wp.degree(parse_poly(ring, "y^3+x^6")) == (6,)  # y has weight 2
    assert wp.degree(parse_poly(ring, "s*x")) == (1,)
    assert wp.degree(Polynomial.zero(ring)) == (0,)
    with pytest.raises(ValueError, match="not homogeneous"):
        wp.degree(parse_poly(ring, "y+x"))
    # a product of projective spaces: one degree per factor block
    pencil = build(PENCIL).ambient
    assert pencil.degree(parse_poly(pencil.ring, "u*x^2+s*v*y*z")) == (2, 1)
    assert pencil.degree(Polynomial.zero(pencil.ring)) == (0, 0)
    with pytest.raises(ValueError, match="not homogeneous"):
        pencil.degree(parse_poly(pencil.ring, "u*x+v*x^2"))


def test_chart_inversion_bookkeeping():
    m = build(QUADRIC, "q")
    c = m.chart("D+(y)")
    c2 = c.with_inversion(parse_poly(c.ring, "z"), "h")
    assert c2.ring.geom[-1] == "h_inv"
    rels = c2.inversion_relations()
    assert len(rels) == 1
    assert str(rels[0]) in ("z*h_inv + 1", "h_inv*z + 1")  # char 2: -1 = 1
    # one more variable; the inversion relation is counted by full_equations
    assert c2.codim == c.codim + 1
    assert len(c2.full_equations()) == len(c.full_equations()) + 1


def test_jacobian_minors_signs():
    # det with alternating signs: minor of [[fx fy],[gx gy]] is fx*gy - fy*gx
    ring = parse_ring("ring p=3 geom x y")
    f = parse_poly(ring, "x^2")
    g = parse_poly(ring, "y^2")
    minors = jacobian_minors([f, g], ring, 2, include_params=False)
    assert [str(m) for m in minors] == ["x*y"]  # 2x*2y = 4xy = xy mod 3


def test_jacobian_minors_with_parameter_columns():
    ring = parse_ring("ring p=3 geom x params s")
    f = parse_poly(ring, "x^3+s")
    # d/dx kills x^3 in char 3 and zero minors are dropped
    assert jacobian_minors([f], ring, 1, include_params=False) == []
    with_params = jacobian_minors([f], ring, 1, include_params=True)
    assert [str(m) for m in with_params] == ["1"]  # d/ds


def test_nonsmooth_ideal_smooth_chart_is_unit():
    m = build(
        """
        ring p=5 geom x:1 y:1 z:1 w:1
        ambient wproj
        hypersurface x^2+y^2+z^2+w^2
        """
    )
    for c in m.charts:
        assert c.codim == 1
        assert is_unit_ideal(nonsmooth_ideal(c))


def test_pth_root_closure_sharpens():
    ring = parse_ring("ring p=2 geom x y params s")
    closed = pth_root_closure([parse_poly(ring, "x^2+s^2*y^2")], None)
    assert [str(g) for g in closed] == ["x + s*y"]
    # s is not a square in F_2(s): nothing to extract
    fixed = pth_root_closure([parse_poly(ring, "x^2+s*y^2")], None)
    assert [str(g) for g in fixed] == ["x^2 + s*y^2"]


def test_pth_root_closure_budgets_its_normal_forms(monkeypatch):
    # the membership test of each p-th root runs under the closure's limits,
    # like its bases
    seen = []

    def recording(f, basis, order, limits=None):
        seen.append(limits)
        return groebner.reduce(f, basis, order, limits)

    monkeypatch.setattr(scheme, "normal_form", recording)
    ring = parse_ring("ring p=2 geom x y params s")
    limits = Limits(max_steps=10**6)
    closed = pth_root_closure([parse_poly(ring, "x^2+s^2*y^2")], limits)
    assert [str(g) for g in closed] == ["x + s*y"]
    assert seen and all(b is limits for b in seen)


def test_blow_up_point_on_plane():
    plane = build(PLANE, "plane")
    m = blow_up(plane, "D+(z)", ("x", "y"), None, "bl", None)
    assert m.center_degree == 1
    assert m.localizer is None
    names = [c.name for c in m.charts]
    assert names[0] == "D+(z)|v" and names[1] == "D+(z)|u"
    # the eliminable branch drops the substituted coordinate
    cv = m.chart("D+(z)|v")
    assert "x" not in cv.ring.geom or "y" not in cv.ring.geom
    # every parent chart is retained for coverage
    assert {"D+(x)", "D+(y)", "D+(z)"} <= set(names)
    assert all(c.provenance == "parent" for c in m.charts[2:])


def test_blow_up_keeps_relation_when_center_not_eliminable():
    plane = build(PLANE, "plane")
    m = blow_up(plane, "D+(z)", ("x^2+s", "y^2+t"), None, "bl", None)
    assert m.center_degree == 4
    cv = m.chart("D+(z)|v")
    assert set(cv.ring.geom) >= {"x", "y"}
    assert len(cv.equations) == 1
    assert str(cv.equations[0]) in ("y^2*v + x^2 + t*v + s", "v*y^2 + x^2 + t*v + s")


def test_blow_up_rejects_positive_dimensional_center():
    plane = build(PLANE, "plane")
    with pytest.raises(ValueError):
        blow_up(plane, "D+(z)", ("x", "x"), None, "bl", None)


def test_repeated_chart_names_are_rejected():
    # a model keeps each chart's closure basis under the chart's name
    with pytest.raises(ValueError, match="chart names repeat"):
        build(QUADRIC + "extrachart name=D+(x) coords a b eq a^2+b")
    with pytest.raises(ValueError, match="chart names repeat"):
        build(QUADRIC + "extrachart coords a b eq a^2+b\nextrachart coords c d eq c^2+d")


def test_blow_up_is_built_on_its_parents_text():
    # a blow-up text is its parent's text followed by a blowup line, so the
    # blow-up's parent is the parent record's model
    blown = load_example("e2-3")[1]
    parent = load_example("e1-4")[1]
    assert blown.parent.ambient == parent.ambient
    assert blown.parent.equations == parent.equations
    assert blown.parent.charts == parent.charts
    # the blow-up keeps the polynomial inverted on its center chart, and its
    # ambient report is its parent's
    assert str(blown.localizer) == "(s2^2*t1^2 + s1^2*t2^2)*x1^3 + (s1*s2 + t2^2)*x1 + s2"
    assert ambient_check(blown) == ambient_check(parent)


def test_mutated_model_texts_are_rejected_or_built():
    # bad input is a ValueError, a resource limit an Inconclusive, and
    # nothing else escapes parse_model and build_model
    rng = random.Random(17)
    texts = [_record(rid).model_text for rid in RECORD_ORDER]
    alphabet = sorted(set("".join(texts)))
    outcomes = set()
    for _ in range(200):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(text) + 1)
            edit = rng.choice(("delete", "insert", "replace"))
            new = "" if edit == "delete" else rng.choice(alphabet)
            text = text[:i] + new + text[i + (edit != "insert") :]
        try:
            build_model(parse_model(text), "m", Limits(40, 20000))
            outcomes.add("built")
        except (ValueError, Inconclusive) as exc:
            outcomes.add(type(exc))
    assert {"built", ValueError} <= outcomes


# ring/ideal pairs for the mutation test; no parenthesised powers, since a
# mutated exponent on a sum is valid input, only an expensive one
RING_IDEAL_TEXTS = (
    ("ring p=3 geom x y z params s", "x^2+s*y*z\ny^2-x*z\nz^2+s*x"),
    ("ring p=2 geom x y params s t", "x^2+s*y^2\nx*y+t*y+s"),
    ("ring p=7 geom x y z", "3*x^2+y*z+5*x\nx*y+4*z^2+6\n2*y^2+x*z+3*z"),
)


def test_mutated_ring_and_ideal_texts_are_rejected_or_solved():
    # the same contract for the dpv groebner inputs: parse_ring,
    # parse_ideal_lines and buchberger let only ValueError and Inconclusive
    # escape; each case edits either the ring line or the ideal text
    rng = random.Random(17)
    alphabet = sorted(set("".join(ring + ideal for ring, ideal in RING_IDEAL_TEXTS)))
    outcomes = set()
    for _ in range(500):
        texts = list(rng.choice(RING_IDEAL_TEXTS))
        side = rng.randrange(2)
        text = texts[side]
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(text) + 1)
            edit = rng.choice(("delete", "insert", "replace"))
            new = "" if edit == "delete" else rng.choice(alphabet)
            text = text[:i] + new + text[i + (edit != "insert") :]
        texts[side] = text
        try:
            ring = parse_ring(texts[0])
            buchberger(parse_ideal_lines(ring, texts[1]), grevlex(ring.ngeom), Limits(40, 20000))
            outcomes.add("solved")
        except (ValueError, Inconclusive) as exc:
            outcomes.add(type(exc))
    assert {"solved", ValueError} <= outcomes


def test_double_cover_charts_and_validation():
    decl = parse_model(
        """
        ring p=2 geom x:1 y:1 x':1 y':1 params t1 t2 t3 t4
        ambient multiproj 1 1
        doublecover section x*y*x'^2+t1*x^2*x'^2+t2*y^2*x'^2+t3*x^2*y'^2+t4*y^2*y'^2
        """
    )
    m = build_model(decl, "dc")
    assert len(m.charts) == 4
    c = m.chart("D+(y)&D+(y')")
    assert "w" in c.ring.geom
    assert len(c.equations) == 1
    assert c.equations[0].diff("w").is_zero()  # w^2 only: inseparable cover

    # the bidegree is half the section's degree, which must be even in
    # every factor: (4, 2) is a double cover of bidegree (2, 1), (3, 1) is none
    cover = "ring p=2 geom x:1 y:1 x':1 y':1 params t1\nambient multiproj 1 1\ndoublecover section "
    assert len(build(cover + "t1*x^2*x'^2*y^2", "dc2").charts) == 4
    bad = parse_model(cover + "t1*x^2*x'*y")
    with pytest.raises(ValueError, match=r"section degree \(3, 1\) is odd in some factor"):
        build_model(bad, "dc3")
    # the base is a surface that is a product of projective spaces
    for text in ["ring p=2 geom x y z\nambient wproj", "ring p=2 geom x y u v e f\nambient multiproj 1 1 1"]:
        bad = parse_model(text + "\ndoublecover section x^2")
        with pytest.raises(ValueError, match="product of projective spaces of dimension 2"):
            build_model(bad, "dc4")


def test_regularity_pipeline_positive_and_negative():
    # regular: the quadric
    q = build(QUADRIC, "q")
    verdict, per_chart = check_regular(q, None)
    assert verdict is True
    assert all(r.value is True for r in per_chart)
    # non-regular: a cone, singular at a rational point
    cone = build(
        """
        ring p=5 geom x:1 y:1 z:1 w:1
        ambient wproj
        hypersurface x^2+y^2+w^2
        """
    )
    verdict, per_chart = check_regular(cone, None)
    assert verdict is False
    bad = [r for r in per_chart if r.value is False]
    assert bad and bad[0].chart == "D+(z)"


def test_check_regular_decides_no_past_a_tripped_chart(monkeypatch):
    # one chart says no and a limit stops another: a decided failure wins
    cone = build(
        """
        ring p=5 geom x:1 y:1 z:1 w:1
        ambient wproj
        hypersurface x^2+y^2+w^2
        """
    )
    # D+(x) is geometrically smooth, so the trip must stop its closure basis
    # as well as the non-regular locus ideal behind it
    for name in ("is_unit_ideal", "pth_root_closure"):
        real = getattr(scheme, name)

        def trips_on_x_chart(gens, limits=None, real=real):
            if "x" not in gens[0].ring.geom:
                raise Inconclusive("pair limit 1 exceeded")
            return real(gens, limits)

        monkeypatch.setattr(scheme, name, trips_on_x_chart)
    verdict, per_chart = check_regular(cone, None)
    assert verdict is False
    by_name = {r.chart: r for r in per_chart}
    assert by_name["D+(x)"].value is None
    assert by_name["D+(x)"].limit == "pair limit 1 exceeded"
    assert by_name["D+(z)"].value is False
    # without the failing chart the same trip leaves the check undecided
    assert scheme.every_chart([r for r in per_chart if r.value is not False]) is None


def test_limits_never_change_what_regular_decides():
    # the closure shortcut may decide True where the non-regular locus
    # ideal alone trips; every other chart is decided, or stopped, as that
    # ideal decides or stops it
    tripped = 0
    for record_id in RECORD_ORDER:
        _, model = load_example(record_id)
        for n in (1, 2, 3, 5, 8, 13, 21, 40):
            limits = Limits(max_pairs=n)
            _, charts = check_regular(replace(model), limits)  # a fresh closure record
            reference = chart_by_chart(
                model.charts, lambda c: is_unit_ideal(nonsmooth_ideal(c, True), limits=limits)
            )
            for got, want in zip(charts, reference, strict=True):
                if want.value is None and got.value is True:
                    continue
                assert (got.value, got.limit) == (want.value, want.limit), (record_id, n, got.chart)
                tripped += got.value is None
    assert tripped > 0  # the sweep reaches limits that stop a chart


_LIMIT_PROBES = ((2, 2000), (8, 20000), (21, 2000), (40, 2000))


def _decided(report) -> dict:
    # geom_normal's singular_dimension is null under a limit by design, so
    # only its verdict is compared
    out = {}
    for c in report.checks:
        if c.status != "inconclusive":
            computed = c.computed["geom_normal"] if c.name == "geom_normal" else c.computed
            out[c.name] = (c.status, computed)
    return out


def test_limits_never_flip_a_decided_check():
    # a resource limit may leave a check inconclusive, never decide it the
    # other way: at these limits every check trips on some record, yet each
    # decided check agrees with the default run
    undecided = set()
    for record_id in RECORD_ORDER:
        default = verify_example(record_id)
        reference = _decided(default)
        assert len(reference) == len(default.checks)
        for max_pairs, max_steps in _LIMIT_PROBES:
            report = verify_example(record_id, limits=Limits(max_pairs, max_steps))
            got = _decided(report)
            assert got == {name: reference[name] for name in got}, (record_id, max_pairs, max_steps)
            undecided |= {c.name for c in report.checks} - set(got)
    assert undecided == set(ALL_CHECKS)


_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def _negative_controls(model_text: str) -> tuple[str, str]:
    """Two texts of surfaces that are not regular, built from a record's:
    its parameters specialised to 1, which leaves a surface over F_p, and
    the Frobenius twist that puts s^p in place of each parameter s."""
    ring_line, *lines = model_text.strip().splitlines()
    ring = parse_ring(ring_line)

    def substitute(value) -> str:
        def one(m):
            return value(m.group()) if m.group() in ring.params else m.group()

        return "\n".join(_IDENTIFIER.sub(one, line) for line in lines)

    specialised = ring_line.split(" params ")[0] + "\n" + substitute(lambda s: "1")
    twisted = ring_line + "\n" + substitute(lambda s: f"({s}^{ring.p})")
    return specialised, twisted


def test_negative_controls_are_not_regular():
    # the verifier must be able to say "fail".  Over the perfect field F_p
    # a regular surface is smooth, so the specialisation cannot be regular
    # and geometrically non-normal.  The twist is the record base-changed
    # along k -> k^(1/p), so the p-th roots its closure adjoins lie in the
    # base field, and regular is predicted to fail.  That both controls are
    # not regular at all is measured, not proved: 51,189 units in all, the
    # largest e2-2's twist at 26,292
    controls = 0
    for rec in RECORDS:
        for text in _negative_controls(rec.model_text):
            model = build(text, rec.record_id)
            assert check_regular(model, Limits(2000, 2 * 10**6))[0] is False, (rec.record_id, text)
            controls += 1
    assert controls == 2 * len(RECORDS) == 22


def _blocks(model_text: str) -> tuple[str, list[list[str]], str]:
    """A record's ring line cut around its geom declarations: the text
    before them, the declarations in factor blocks (one block for a
    weighted projective space), and the text after them."""
    ring_line, ambient = model_text.strip().splitlines()[:2]
    head, rest = ring_line.split(" geom ")
    decls, sep, params = rest.partition(" params ")
    decls = decls.split()
    kind, *dims = ambient.split()[1:]
    sizes = [int(d) + 1 for d in dims] if kind == "multiproj" else [len(decls)]
    cuts = list(itertools.accumulate([0] + sizes))
    return head + " geom ", [decls[i:j] for i, j in zip(cuts, cuts[1:])], sep + params


def _shift_parameters(model_text: str) -> str:
    ring_line, *lines = model_text.strip().splitlines()
    params = parse_ring(ring_line).params

    def one(m):
        return f"({m.group()}+1)" if m.group() in params else m.group()

    return "\n".join([ring_line] + [_IDENTIFIER.sub(one, line) for line in lines])


def _reorder_variables(model_text: str, rng: random.Random) -> str:
    head, blocks, tail = _blocks(model_text)
    for block in blocks:
        before = list(block)
        while len(block) > 1 and block == before:
            rng.shuffle(block)
    ring_line = head + " ".join(d for block in blocks for d in block) + tail
    return "\n".join([ring_line] + model_text.strip().splitlines()[1:])


def _linear_change(model_text: str, rng: random.Random) -> str:
    """x_a -> x_a + x_b for two weight-1 variables of one factor."""
    _, blocks, _ = _blocks(model_text)
    block = rng.choice([b for b in blocks if sum(d.endswith(":1") for d in b) > 1])
    a, b = rng.sample([d.split(":")[0] for d in block if d.endswith(":1")], 2)
    ring_line, ambient, *lines = model_text.strip().splitlines()

    def one(m):
        return f"({a}+{b})" if m.group() == a else m.group()

    return "\n".join([ring_line, ambient] + [_IDENTIFIER.sub(one, line) for line in lines])


def _verdicts_and_k2(text: str, record_id: str) -> tuple:
    model = build(text, record_id)
    return (check_regular(model)[0], is_geometrically_normal(model)[0],
            geometric_integrality(model)[0], catalogue.compute_k2(model)[0])


def test_isomorphic_presentations_keep_their_verdicts():
    # metamorphic: each transformation is an isomorphism over F_p(params),
    # so regular, geom_normal, geom_integral and K^2 (the lattice is
    # unchanged) must come out as for the record itself: the shift
    # s -> s + 1 of every parameter, a shuffle of the geom declarations
    # (within each factor of a product), both, and on records whose text
    # names no coordinate (no blowup, localize or extrachart line)
    # x_a -> x_a + x_b.  The 39 models spend about 198,000 units (e2-3
    # shifted 59,192 of them) and the 11 records 15,661, in about 0.5 s
    rng = random.Random(20261020)
    models = 0
    for rec in RECORDS:
        text = rec.model_text
        want = _verdicts_and_k2(text, rec.record_id)
        transformed = [_shift_parameters(text), _reorder_variables(text, rng)]
        transformed.append(_reorder_variables(transformed[0], rng))
        if not re.search(r"^(blowup|localize|extrachart) ", text, re.M):
            transformed.append(_linear_change(text, rng))
        for new in transformed:
            assert new != text
            assert _verdicts_and_k2(new, rec.record_id) == want, (rec.record_id, new)
        models += len(transformed)
    assert models == 3 * len(RECORDS) + 6 == 39


def test_squared_equation_is_not_geometrically_integral():
    # the square of an irreducible equation is a double surface: no chart
    # has a smooth point, so geom_integral must say "no".  Measured: e1-3's
    # cubic squared spends 1,086 units and a p = 3 quadric squared 698.  A
    # square over F_2 has only zero minors and decides nothing.  A reducible
    # but reduced model such as (x+s*y)*(z+w) still reports True: the
    # verdict is reducedness, and irreducibility is the stated H0 = k
    # assumption, so such a model is no control
    rec = _record("e1-3")
    ring_line, ambient, hypersurface = rec.model_text.strip().splitlines()
    squares = [
        f"{ring_line}\n{ambient}\nhypersurface ({hypersurface.split(' ', 1)[1]})^2",
        "ring p=3 geom x:1 y:1 z:1 w:1 params s\nambient wproj\nhypersurface (x^2+s*y^2+z*w)^2",
    ]
    spent = 0
    for text in squares:
        model = build(text, rec.record_id)
        before = work_done()
        reduced, charts = geometric_integrality(model, None)
        spent += work_done() - before
        assert reduced is False, text
        assert [v.value for v in charts] == [False] * 4, text
        assert catalogue._check_geom_integral(rec, model, None).status == "fail"
    assert spent < 2_000


def test_regular_alone_spends_less_than_the_parameter_minors():
    # the closure basis first, the parameter minors only where it is not
    # [1]: 12,389 units over the catalogue against 16,806 for the minors
    # alone, and 11,442 since reduce stopped dividing by monic leads
    spent = 0
    for record_id in RECORD_ORDER:
        _, model = load_example(record_id)
        before = work_done()
        assert check_regular(model)[0] is True
        spent += work_done() - before
    assert spent < 11_500


def test_fibre_test_fires_only_outside_the_radical():
    # on every catalogue chart and every geometric minor, a nonempty fibre
    # where the minor does not vanish is found only for a minor that the
    # Rabinowitsch basis also puts outside the radical
    fired = 0
    for record_id in RECORD_ORDER:
        _, model = load_example(record_id)
        for c in model.charts:
            eqs = c.full_equations()
            for m in jacobian_minors(eqs, c.ring, c.codim, include_params=False):
                if scheme._nonzero_on_a_fibre(m, eqs, None):
                    fired += 1
                    assert not groebner.radical_membership(m, eqs), (record_id, c.name, str(m))
    assert fired > 0


def test_fibre_test_never_fires_inside_the_radical():
    # (x + s*y)^2 = 0 is a double plane: both nonzero minors lie in the
    # radical but not in the ideal, and every fibre on which one of them
    # is a nonzero constant is empty
    ring = parse_ring("ring p=3 geom x y z params s")
    f = parse_poly(ring, "(x+s*y)^2")
    chart = Chart(name="U", ring=ring, equations=(f,))
    eqs = chart.full_equations()
    minors = jacobian_minors(eqs, ring, chart.codim, include_params=False)
    assert len(minors) == 2
    order = grevlex(ring.ngeom)
    for m in minors:
        exps = [unpack(k, ring.ngeom) for k in m.terms]
        assert {ring.geom[i] for e in exps for i, x in enumerate(e) if x} == {"x", "y"}
        assert not groebner.reduce(m, [f], order).is_zero()
        assert groebner.reduce(m * m, [f], order).is_zero()
        assert not scheme._nonzero_on_a_fibre(m, eqs, None)
        assert groebner.radical_membership(m, eqs)
    assert scheme._smooth_point_witness(chart, None) is False


def test_geometric_integrality_reads_past_a_tripped_chart(monkeypatch):
    q = build(QUADRIC, "q")
    reduced, charts = geometric_integrality(q, None)
    assert reduced is True
    # the last chart tried carries the witness: a minor index and the minor,
    # a polynomial outside the radical of that chart's ideal
    index, minor = charts[-1].value
    assert index >= 0 and isinstance(minor, Polynomial)
    assert not groebner.radical_membership(minor, q.chart(charts[-1].chart).full_equations())
    first, rest = q.charts[0], q.charts[1:]
    expected = geometric_integrality(replace(q, charts=rest), None)[1][-1]
    assert expected.chart != first.name
    # the trip is injected at the one per-minor decision, which holds both
    # the fibre test and the Rabinowitsch fallback
    real = scheme._outside_radical

    def trips_on_first_chart(m, eqs, limits):
        if m.ring == first.ring:
            raise Inconclusive("pair limit 1 exceeded")
        return real(m, eqs, limits)

    monkeypatch.setattr(scheme, "_outside_radical", trips_on_first_chart)
    reduced, charts = geometric_integrality(q, None)
    assert reduced is True
    assert [v.value for v in charts if v.value] == [expected.value]
    assert [(v.chart, v.limit) for v in charts][0] == (first.name, "pair limit 1 exceeded")
    # the charts are tried only up to the first witness
    assert charts[-1].chart == expected.chart

    def always_trips(m, eqs, limits):
        raise Inconclusive("pair limit 1 exceeded")

    monkeypatch.setattr(scheme, "_outside_radical", always_trips)
    reduced, charts = geometric_integrality(q, None)
    assert reduced is None and not any(v.value for v in charts)
    assert [v.chart for v in charts] == [c.name for c in q.charts]


def test_geometric_singularity_vs_regularity():
    # x^2 + s*y^2 + z*w: regular over F_2(s) but geometrically singular
    q = build(QUADRIC, "q")
    normal, data = is_geometrically_normal(q, None)
    assert normal is True
    assert max(d.value[0] for d in data) == 0
    by_name = {d.chart: d.value for d in data}
    assert by_name["D+(y)"][0] == 0
    assert sorted(str(g) for g in by_name["D+(y)"][1]) == ["w", "x^2 + s", "z"]
    assert by_name["D+(z)"][0] == -1


def test_ambient_check_weighted_strata():
    covered = build(
        """
        ring p=3 geom x0:1 x1:1 y:2 z:3 params s0 s1 s2 s3
        ambient wproj
        hypersurface s0*z^2+s1*y^3+s2*x0^6+s3*x1^6
        extrachart name=U coords x0 x1 u invert u eq s0*u^2+s1*u^3+s2*x0^6+s3*x1^6
        """
    )
    rep = ambient_check(covered, None)
    assert rep.ok
    assert rep.coverage == "asserted"
    assert dict(rep.strata) == {2: True, 3: True}

    uncovered = build(
        """
        ring p=3 geom x0:1 x1:1 y:2 z:3 params s0 s1 s2 s3
        ambient wproj
        hypersurface s0*z^2+s1*y^3+s2*x0^6+s3*x1^6
        """
    )
    rep2 = ambient_check(uncovered, None)
    assert not rep2.ok
    assert rep2.coverage == "uncovered"


P1_CUBED = """
ring p=2 geom a0:1 a1:1 b0:1 b1:1 c0:1 c1:1 params s
ambient multiproj 1 1 1
hypersurface a0*b0*c0+s*a1*b1*c1
"""

PENCIL = """
ring p=2 geom x:1 y:1 z:1 u:1 v:1 params s t
ambient multiproj 2 1
hypersurface u*(x^2+s*z^2)+v*(y^2+t*z^2)
"""


def test_a_parameter_degree_overflow_leaves_its_chart_undecided():
    # the coefficient kernel's degree cap is a resource limit like a tripped
    # budget: that chart is undecided, with the limit's message, and the
    # other charts are still decided
    plane = build(PLANE, "plane")
    big = parse_poly(plane.ring, "s^12000")

    def decide(chart):
        return chart.name != "D+(y)" or (big * big * big).is_zero()

    charts = chart_by_chart(plane.charts, decide)
    assert _units(charts) == [("D+(x)", True), ("D+(y)", None), ("D+(z)", True)]
    assert charts[1].limit == "parameter degree above 32767"
    assert scheme.every_chart(charts) is None


def _units(charts):
    # (chart, whether its ideal is the unit ideal; None when undecided)
    return [(v.chart, v.value) for v in charts]


def _recorded_ambient_probes(monkeypatch):
    # the test of the locus the standard charts miss is the only caller of
    # projective_is_empty in disjointness; each probe is its generators
    probes = []
    real = scheme.projective_is_empty

    def recording(gens, limits=None):
        probes.append({str(g) for g in gens})
        return real(gens, limits)

    monkeypatch.setattr(scheme, "projective_is_empty", recording)
    return probes


def test_subschemes_disjoint_toy_cases(monkeypatch):
    plane = build(PLANE, "plane")
    ring = plane.ring
    point = [parse_poly(ring, "x"), parse_poly(ring, "y")]
    line = [parse_poly(ring, "z")]
    probes = _recorded_ambient_probes(monkeypatch)
    disjoint, charts = subschemes_disjoint(plane, point, line, None)
    assert disjoint is True
    assert all(v.value is True for v in charts)
    # all weights 1: the standard charts cover P^2 and decide alone
    assert probes == []

    disjoint, charts = subschemes_disjoint(plane, [parse_poly(ring, "x")], [parse_poly(ring, "y")], None)
    assert disjoint is False
    assert ("D+(z)", False) in _units(charts)
    assert probes == []


P112 = """
ring p=3 geom x:1 y:1 z:2
ambient wproj
"""


def test_subschemes_disjoint_weighted_tests_only_the_heavy_variable(monkeypatch):
    m = build(P112, "p112")
    ring = m.ring
    probes = _recorded_ambient_probes(monkeypatch)
    # x = 0 and y = 0 meet only at [0:0:1], which no weight-1 chart sees
    disjoint, charts = subschemes_disjoint(m, [parse_poly(ring, "x")], [parse_poly(ring, "y")], None)
    assert _units(charts) == [("D+(x)", True), ("D+(y)", True)]
    assert disjoint is False
    assert len(probes) == 1 and {"x", "y"} <= probes[0]  # one probe, where x = y = 0
    # the point [0:1:0] misses the line y = 0; the probe rules out [0:0:1]
    probes.clear()
    point = [parse_poly(ring, "x"), parse_poly(ring, "z")]
    disjoint, _ = subschemes_disjoint(m, point, [parse_poly(ring, "y")], None)
    assert disjoint is True
    assert len(probes) == 1 and {"x", "y"} <= probes[0]  # one probe, where x = y = 0


def test_subschemes_disjoint_three_factor_product(monkeypatch):
    # a0 = a1 = 0 is empty in P^1, so the two divisors miss each other; the
    # pairwise products b_j*c_k do not lie in the radical of (F, a0, a1),
    # only the products of one variable from each of the three factors do
    m = build(P1_CUBED, "p1cubed")
    probes = _recorded_ambient_probes(monkeypatch)
    disjoint, charts = subschemes_disjoint(m, [parse_poly(m.ring, "a0")], [parse_poly(m.ring, "a1")], None)
    assert len(charts) == 8
    assert all(v.value is True for v in charts)
    assert disjoint is True
    # the product charts cover P^1 x P^1 x P^1: no ambient probe
    assert probes == []


def test_subschemes_disjoint_two_factor_product(monkeypatch):
    m = build(PENCIL, "pencil")
    ring = m.ring
    probes = _recorded_ambient_probes(monkeypatch)
    # u = v = 0 is empty in the P^1 factor
    disjoint, charts = subschemes_disjoint(m, [parse_poly(ring, "u")], [parse_poly(ring, "v")], None)
    assert disjoint is True
    assert all(v.value is True for v in charts)
    assert probes == []
    # x = y = 0 meets the surface at ([0:0:1], [t:s])
    disjoint, charts = subschemes_disjoint(m, [parse_poly(ring, "x")], [parse_poly(ring, "y")], None)
    assert disjoint is False
    assert ("D+(z)&D+(u)", False) in _units(charts)
    assert probes == []


def test_subschemes_disjoint_inconclusive_chart(monkeypatch):
    _, m = load_example("e2-2")
    a_texts, b_texts = _record("e2-2").disjoint_curves
    a_gens = [parse_poly(m.ring, t) for t in a_texts]
    b_gens = [parse_poly(m.ring, t) for t in b_texts]
    real = scheme.is_unit_ideal

    def trips_on_x1_chart(gens, limits=None):
        if "x1" not in gens[0].ring.geom:
            raise Inconclusive("pair limit 1 exceeded")
        return real(gens, limits)

    monkeypatch.setattr(scheme, "is_unit_ideal", trips_on_x1_chart)
    disjoint, charts = subschemes_disjoint(m, a_gens, b_gens, None)
    assert disjoint is None
    assert _units(charts) == [("D+(x0)", True), ("D+(x1)", None), ("D+(x2)", True)]
    assert charts[1].limit == "pair limit 1 exceeded"
    # the report renders the undecided chart as its note
    extras = verify_example("e2-2", ("extras",)).check("extras")
    assert extras.status == "inconclusive"
    assert extras.note == "chart D+(x1): pair limit 1 exceeded"


def test_extra_chart_inverts_non_identifier_texts():
    m = build(
        """
        ring p=2 geom x:1 y:1 z:1 params s
        ambient wproj
        hypersurface x^2+s*y^2+z^2
        extrachart name=U coords u v invert u+1 v+1 eq u^2+s*v^2+1
        """
    )
    c = m.chart("U")
    assert c.provenance == "extra"
    assert c.ring.geom == ("u", "v", "q_inv", "q_inv_")
    assert [(str(g), name) for g, name in c.inverted] == [("u + 1", "q_inv"), ("v + 1", "q_inv_")]
    assert c.codim == 2
    assert len(c.full_equations()) == 3


def test_chart_singular_data_certificate_reduces():
    q = build(QUADRIC, "q")
    dim, basis = chart_singular_data(q.chart("D+(y)"), None)
    assert dim == 0
    # the certificate basis cuts exactly the inseparable point
    assert "x^2 + s" in [str(g) for g in basis]


def _uncleared_nonsmooth_ideal(chart, include_params):
    # reference: equations and minors exactly as the chart states them
    eqs = chart.full_equations()
    gens = list(eqs)
    for m in jacobian_minors(eqs, chart.ring, chart.codim, include_params):
        if m not in gens:
            gens.append(m)
    return gens


def _has_fractions(chart):
    return any(
        not c.is_polynomial() for f in chart.full_equations() for c in f.terms.values()
    )


def test_cleared_nonsmooth_ideal_matches_uncleared_on_catalogue():
    checked = []
    for record_id in RECORD_ORDER:
        _, model = load_example(record_id)
        for c in model.charts:
            if not _has_fractions(c):
                continue
            # buchberger defaults to grevlex
            cleared = buchberger(nonsmooth_ideal(c, include_params=False))
            reference = buchberger(_uncleared_nonsmooth_ideal(c, False))
            assert cleared == reference, (record_id, c.name)
            checked.append((record_id, c.name))
    assert checked  # the e2-3 blow-up charts carry parameter denominators


def _laplace_det(rows, ring):
    """Laplace expansion along the first row that recomputes every smaller
    minor for each column it drops."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    out = Polynomial.zero(ring)
    for j, top in enumerate(rows[0]):
        if top.is_zero():
            continue
        sub = _laplace_det([[r[k] for k in range(n) if k != j] for r in rows[1:]], ring)
        if sub.is_zero():
            continue
        term = top * sub
        out = out + (term if j % 2 == 0 else -term)
    return out


def reference_jacobian_minors(polys, ring, size, include_params):
    """jacobian_minors by one plain expansion per row and column selection."""
    if size == 0:
        return [Polynomial.one(ring)]
    colnames = list(ring.geom) + (list(ring.params) if include_params else [])
    matrix = [[f.diff(nm) for nm in colnames] for f in polys]
    seen = set()
    out = []
    for rsel in itertools.combinations(range(len(polys)), size):
        for csel in itertools.combinations(range(len(colnames)), size):
            det = _laplace_det([[matrix[r][c] for c in csel] for r in rsel], ring)
            key = frozenset(det.terms.items())
            if det.is_zero() or key in seen or frozenset((-det).terms.items()) in seen:
                continue
            seen.add(key)
            out.append(det)
    return out


def test_shared_sub_minors_match_the_plain_expansion_on_catalogue():
    spent = {"shared": 0, "plain": 0}

    def run(fn, *args):
        before = work_done()
        minors = fn(*args)
        return [list(m.terms.items()) for m in minors], work_done() - before

    for record_id in RECORD_ORDER:
        _, model = load_example(record_id)
        for c in model.charts:
            eqs = tuple(f.clear_denominators() for f in c.full_equations())
            for include_params in (False, True):
                args = (eqs, c.ring, c.codim, include_params)
                got, units = run(jacobian_minors, *args)
                want, ref_units = run(reference_jacobian_minors, *args)
                assert got == want, (record_id, c.name, include_params)
                assert units <= ref_units, (record_id, c.name, include_params)
                spent["shared"] += units
                spent["plain"] += ref_units
    assert spent["shared"] < spent["plain"]


@pytest.mark.parametrize(
    "names, equation, verdict",
    [
        # the parameter derivation of s/(s+1) is a unit: regular, not smooth
        ("x z w", "x^2+s/(s+1)+z*w", True),
        # a square in char 2: every derivation vanishes along x=0, y=z
        ("x y z", "x^2/(s+1)+y^2+z^2", False),
    ],
)
def test_cleared_regularity_verdict_matches_uncleared(names, equation, verdict):
    ring = parse_ring(f"ring p=2 geom {names} params s")
    chart = Chart(name="toy", ring=ring, equations=(parse_poly(ring, equation),))
    assert _has_fractions(chart)
    cleared = nonsmooth_ideal(chart, include_params=True)
    reference = _uncleared_nonsmooth_ideal(chart, True)
    assert is_unit_ideal(reference) is verdict
    assert is_unit_ideal(cleared) is verdict
    assert buchberger(cleared) == buchberger(reference)


def test_check_regular_work_on_e2_3_stays_fraction_free():
    # deterministic term-product count; the uncleared minors spent 977,160
    _, model = load_example("e2-3")
    before = work_done()
    verdict, _ = check_regular(model, None)
    spent = work_done() - before
    assert verdict is True
    assert spent < 100_000


def test_singular_dimension_read_off_closure_basis_is_exact():
    # the p-th root closure lies between the nonsmooth ideal and its
    # radical, so its leading monomials give the same dimension
    for record_id in RECORD_ORDER:
        _, model = load_example(record_id)
        for c in model.charts:
            expected = dimension(nonsmooth_ideal(c, include_params=False), c.ring)
            assert chart_singular_data(c)[0] == expected, (record_id, c.name)
