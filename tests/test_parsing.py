"""Text grammar: expressions, ring declarations, model declarations."""

import re

import pytest

from dpv.catalogue import _record
from dpv.parsing import parse_ideal_lines, parse_model, parse_poly, parse_ring
from dpv.poly import Polynomial
from dpv.scheme import build_model


def test_ring_declaration():
    ring = parse_ring("ring p=3 geom x0:1 x1:1 y:2 z:3 params s0 s1")
    assert ring.p == 3
    assert ring.geom == ("x0", "x1", "y", "z")
    assert ring.weights == (1, 1, 2, 3)
    assert ring.params == ("s0", "s1")
    default = parse_ring("ring p=2 geom x y")
    assert default.weights == (1, 1)
    assert default.params == ()
    assert parse_ring(f"ring p={2**31 - 1} geom x").p == 2**31 - 1  # the largest prime below 2^31


@pytest.mark.parametrize(
    "text",
    # 2^61 - 1 is prime, but rejected before a trial division that would not finish
    ["geom x", "ring geom x", "ring p=6 geom x", "ring p=3 bogus x", "ring p=2305843009213693951 geom x",
     # malformed numbers: a missing p, a missing weight, a weight that is a name
     "ring p= geom x", "ring p=3 geom x:", "ring p=3 geom x:a",
     # only ASCII decimal digits: no digit separator, no plus sign, no other script's digits
     "ring p=1_1 geom x", "ring p=3 geom x:+2 y", "ring p=\u0663 geom x", "ring p=3 geom x:\u0662"],
)
def test_ring_declaration_rejects(text):
    with pytest.raises(ValueError):
        parse_ring(text)


def test_expression_grammar():
    ring = parse_ring("ring p=3 geom x y params s")
    f = parse_poly(ring, "(x+y)^2 - 2*s*x*y")
    g = parse_poly(ring, "x^2+2*x*y+y^2+s*x*y")
    assert f == g
    assert parse_poly(ring, "x - x").is_zero()
    assert parse_poly(ring, "-x") == -parse_poly(ring, "x")
    assert parse_poly(ring, "7") == Polynomial.constant(ring, 1)


def test_fraction_coefficients_round_trip():
    # str() on normal forms can emit scalar fractions like (1/s)*x; the
    # grammar must read its own output back
    ring = parse_ring("ring p=3 geom x y params s t")
    f = parse_poly(ring, "x^2 + (1/s)*y + t/s")
    assert f * parse_poly(ring, "s").constant_coefficient() == parse_poly(
        ring, "s*x^2 + y + t"
    )
    assert parse_poly(ring, str(f)) == f
    with pytest.raises(ValueError):
        parse_poly(ring, "x / y")
    with pytest.raises(ValueError):
        parse_poly(ring, "1/0")


def test_expression_errors():
    ring = parse_ring("ring p=3 geom x")
    for bad in ["x +", "(x", "x ** 2", "w", "x^", "x^\u0663", "\u0662*x"]:
        with pytest.raises((ValueError, KeyError, SyntaxError)):
            parse_poly(ring, bad)


def test_parameter_degree_cap():
    # parameter monomials are packed with a degree cap of 2^15 - 1: a larger
    # parameter exponent is rejected before any power is built, and a
    # product past the cap is rejected too
    ring = parse_ring("ring p=3 geom x y params s t")
    for text, reason in (("s^40000*x", "parameter exponent 40000 is above 32767"),
                         ("(x+t)^32768", "parameter exponent 32768 is above 32767"),
                         ("s^12000*s^12000*s^12000", "parameter degree above 32767")):
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            parse_poly(ring, text)
    assert str(parse_poly(ring, "s^12000*t^12000*x^30000")) == "s^12000*t^12000*x^30000"


def test_geometric_degree_cap():
    # geometric monomials take the parameters' packed layout and its cap;
    # a constant base takes any exponent, and a power above half the cap
    # parses, since the square past the exponent's top bit is never taken
    ring = parse_ring("ring p=3 geom x y params s t")
    for text, reason in (("x^40000", "geometric exponent 40000 is above 32767"),
                         ("(x+1)^32768", "geometric exponent 32768 is above 32767"),
                         ("x^20000*y^20000", "geometric degree above 32767")):
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            parse_poly(ring, text)
    assert str(parse_poly(ring, "x^20000")) == "x^20000"
    assert str(parse_poly(ring, "x - s^20000")) == "x + 2*s^20000"
    assert str(parse_poly(ring, "2^40000*x")) == "x"


def test_ideal_lines():
    ring = parse_ring("ring p=3 geom x y")
    text = """
    # a comment
    poly f = x^2+y
    x*y  # trailing comment
    """
    gens = parse_ideal_lines(ring, text)
    assert [str(g) for g in gens] == ["x^2 + y", "x*y"]


def test_model_declaration_hypersurface():
    decl = parse_model(
        """
        ring p=3 geom x0:1 x1:1 y:2 z:3 params s0 s1 s2 s3
        ambient wproj
        hypersurface s0*z^2+s1*y^3+s2*x0^6+s3*x1^6
        extrachart name=U coords x0 x1 u invert u eq s0*u^2+s1*u^3+s2*x0^6+s3*x1^6
        """
    )
    assert decl.factors == ()  # a weighted projective space
    assert len(decl.hypersurfaces) == 1
    assert build_model(decl, "m").ambient.degree(decl.hypersurfaces[0]) == (6,)
    (ec,) = decl.extra_chart_decls
    assert ec.name == "U"
    assert ec.coords == ("x0", "x1", "u")
    assert ec.invert == ("u",)
    assert len(ec.equations) == 1


def test_model_declaration_blowup():
    decl = parse_model(
        """
        ring p=2 geom x:1 y:1 z:1 params s t
        ambient wproj
        blowup chart=D+(z) center x^2+s ; y^2+t
        """
    )
    assert decl.hypersurfaces == ()
    assert decl.blowup_chart == "D+(z)"
    assert decl.blowup_center == ("x^2+s", "y^2+t")
    assert decl.localize is None


def test_model_declaration_doublecover():
    decl = parse_model(
        """
        ring p=2 geom x:1 y:1 x':1 y':1 params t1 t2 t3 t4
        ambient multiproj 1 1
        doublecover section x*y*x'^2+t1*x^2*x'^2+t2*y^2*x'^2+t3*x^2*y'^2+t4*y^2*y'^2
        """
    )
    assert decl.factors == (1, 1)  # a product of projective spaces
    assert decl.cover_section is not None
    assert build_model(decl, "m").ambient.degree(decl.cover_section) == (2, 2)


def test_model_declaration_localize():
    decl = parse_model(
        """
        ring p=2 geom x0 x1 x2 x3 x4 params s1 s2 s3 s4 t1 t2 t3 t4
        ambient wproj
        hypersurface x0*x1+s1*x1^2+s2*x2^2+s3*x3^2+s4*x4^2
        hypersurface x0*x2+t1*x1^2+t2*x2^2+t3*x3^2+t4*x4^2
        blowup chart=D+(x0) center x3 ; x4
        localize (s2*t1+s1*t2)^2*x1^3+(t2^2+s1*s2)*x1+s2
        """
    )
    assert decl.localize is not None
    assert decl.blowup_center == ("x3", "x4")
    assert len(decl.hypersurfaces) == 2


def test_model_rejects_garbage():
    with pytest.raises(ValueError):
        parse_model("ring p=3 geom x\nambient wproj\nfrobnicate x")
    with pytest.raises(ValueError):
        parse_model("ambient wproj")
    # every variable of a product of projective spaces has weight 1: the
    # standard charts set one variable of each factor to 1
    with pytest.raises(ValueError, match="weight-1"):
        parse_model("ring p=2 geom x:1 y:2 u:1 v:1\nambient multiproj 1 1")
    # an ambient is wproj or multiproj with factor dimensions, and required
    for text in [
        "ring p=2 geom x y z\nambient foo\nhypersurface x*y+z^2",
        "ring p=2 geom x y z\nhypersurface x*y+z^2",
        "ring p=2 geom x y z:2\nambient wproj 2\nhypersurface x*y+z",
    ]:
        with pytest.raises(ValueError, match="ambient"):
            parse_model(text)
    # a double cover states its section in full
    for text in [
        "ring p=2 geom x y u v\nambient multiproj 1 1\ndoublecover section",
        "ring p=2 geom x y u v\nambient multiproj 1 1\ndoublecover",
    ]:
        with pytest.raises(ValueError, match="doublecover"):
            parse_model(text)
    # every declaration line is used or rejected: one presentation, at most
    # one blow-up of it, and nothing after the blow-up but its localize
    e2_3 = _record("e2-3").model_text
    quadric = "ring p=2 geom x y z w params s\nambient wproj\nhypersurface x^2+s*y^2+z*w\n"
    cover = "ring p=2 geom x y u v\nambient multiproj 1 1\ndoublecover section x^2*u^2\n"
    for text, reason in [
        (e2_3 + "hypersurface x0*x1", "after blowup"),
        (e2_3 + "extrachart name=U coords a b eq a^2+b", "after blowup"),
        (e2_3 + "ambient multiproj 1 2", "one 'ambient'"),
        (e2_3.replace("ambient wproj", "ambient wproj\nambient multiproj 1 2"), "one 'ambient'"),
        (e2_3.replace("ambient wproj", "ring p=3 geom a:1 b:1\nambient wproj"), "unknown model declaration 'ring'"),
        (e2_3 + "blowup chart=D+(x1) center x3 ; x4", "one 'blowup'"),
        (e2_3 + "localize x1", "one 'localize'"),
        (quadric + "localize x+1", "localize needs a blowup"),
        (quadric + "blowup center z ; w", "chart=NAME"),
        (quadric + "blowup parent=quadric chart=D+(y) center z ; w", "chart=NAME"),
        (quadric + "blowup chart=D+(y) center z", "chart=NAME"),
        (cover + "hypersurface x*u", "doublecover takes no"),
        (cover + "extrachart name=U coords a b eq a^2+b", "doublecover takes no"),
        (cover + "doublecover section y^2*v^2", "one 'doublecover'"),
        (quadric + "extrachart name=A name=B coords a b eq a^2+b", "one name="),
        # a malformed number names its field and its token
        ("ring p=2 geom x y u v\nambient multiproj 1 a", "a factor dimension must be an integer, got 'a'"),
        ("ring p=2 geom x y u v\nambient multiproj 1 +1", r"a factor dimension must be an integer, got '\+1'"),
        # a negative number is read, and then fails its own range check
        ("ring p=2 geom x y u v\nambient multiproj 3 -1", "factor dimensions do not match the ring"),
    ]:
        with pytest.raises(ValueError, match=reason):
            parse_model(text)
    # a hypersurface must be homogeneous for its ambient, or its charts do
    # not glue
    decl = parse_model("ring p=2 geom x y z params s\nambient wproj\nhypersurface x^2+s*y+z")
    with pytest.raises(ValueError, match="homogeneous"):
        build_model(decl, "m")
    # a blow-up names a chart of its base model
    decl = parse_model(quadric + "blowup chart=D+(q) center z ; w")
    with pytest.raises(ValueError, match=r"blowup chart 'D\+\(q\)' is not a chart of the model"):
        build_model(decl, "m")


def test_nesting_depth_is_capped_in_one_line():
    # each level of parentheses is a few parser frames: past the cap the
    # text is rejected before the interpreter's recursion limit is near
    ring = parse_ring("ring p=3 geom x y")
    assert str(parse_poly(ring, "(" * 100 + "x" + ")" * 100)) == "x"
    for depth in (101, 400, 5000):
        with pytest.raises(ValueError, match=r"^expression nested too deeply \(at most 100 "):
            parse_poly(ring, "(" * depth + "x" + ")" * depth)
