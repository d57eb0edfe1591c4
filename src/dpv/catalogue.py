"""Example records, expected classification rows, and the verification runner.

RECORDS is the catalogue, one ordered table.  Each record carries a model
declaration in the small text grammar and the expected row data (Picard
rank, K^2, h^1, normalization type: the last three are expected-only and
never claimed as computed); every record stands on the same ASSUMPTIONS.
Every row expects the same EXPECTED_VERDICTS, the class of surfaces the
paper classifies, and a row's table number is read off p.  Two records of
one row cross-check each other's verdicts (extras).  K^2 is computed
exactly from the model itself (compute_k2).

verify_example runs the chart-by-chart pipeline for one record and diffs the
results against the expected row; verify_all runs every in-scope record.
Scheme returns each check's verdict and per-chart values (booleans,
Polynomial bases, witness minors), the ambient coverage and a blow-up's
localising polynomial; this module alone renders them into report statuses,
notes and certificates, the ambient and blow-up presentation notes included.
Reports serialize to JSON deterministically (schema 1); wall times are kept
out of the JSON unless explicitly requested so consecutive runs are
byte-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

from .groebner import Inconclusive, Limits
from .lattice import (
    blowup_k2,
    cover_lattice,
    hypersurface_lattice,
    k2_weighted_ci,
    product,
)
from .parsing import parse_model, parse_poly
from .scheme import (
    SurfaceModel,
    ambient_check,
    build_model,
    check_regular,
    geometric_integrality,
    is_geometrically_normal,
    subschemes_disjoint,
)


@dataclass(frozen=True)
class ExpectedRow:
    row: str
    p: int
    rho: int
    k2: int
    h1: int
    normalization: str
    extremal_rays: str | None = None

    @property
    def table(self) -> int:
        """The paper's classification table: 1 for p = 3, 2 for p = 2."""
        return 1 if self.p == 3 else 2


# the layout version of a report's JSON and of verify-all's summary.json
SCHEMA = 1

# the class of surfaces the paper classifies: every row expects these verdicts
EXPECTED_VERDICTS = {"regular": True, "geom_integral": True, "geom_normal": False}

# what every record assumes: properness and H0 = k, so regularity implies
# irreducibility (geom_integral), and Cohen-Macaulay charts, so S2 holds
ASSUMPTIONS = ("proper", "H0=k", "Cohen-Macaulay")


@dataclass(frozen=True)
class ExampleRecord:
    record_id: str
    expected: ExpectedRow
    model_text: str
    # generators of two curves whose disjointness witnesses Picard rank >= 2
    disjoint_curves: tuple[tuple[str, ...], tuple[str, ...]] | None = None
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class OutOfScopeRow:
    row: str
    expected: ExpectedRow
    reason: str


# ---------------------------------------------------------------------------
# model declarations
# ---------------------------------------------------------------------------

_SEXTIC = """
ring p={p} geom x0:1 x1:1 y:2 z:3 params s0 s1 s2 s3
ambient wproj
hypersurface s0*z^2+s1*y^3+s2*x0^6+s3*x1^6
extrachart name=U coords x0 x1 u invert u eq s0*u^2+s1*u^3+s2*x0^6+s3*x1^6
"""

_E1_2 = """
ring p=2 geom x0:1 x1:1 x2:1 y:2 params s0 s1 s2 t
ambient wproj
hypersurface y^2+t*x0^2*y+s0*x0^4+s1*x1^4+s2*x2^4
"""

_E1_3 = """
ring p=3 geom x:1 y:1 z:1 w:1 params s t
ambient wproj
hypersurface x^2*y+x*y^2+s*z^3+t*w^3
"""

_E1_4 = """
ring p=2 geom x0:1 x1:1 x2:1 x3:1 x4:1 params s1 s2 s3 s4 t1 t2 t3 t4
ambient wproj
hypersurface x0*x1+s1*x1^2+s2*x2^2+s3*x3^2+s4*x4^2
hypersurface x0*x2+t1*x1^2+t2*x2^2+t3*x3^2+t4*x4^2
"""

_E2_2 = """
ring p=2 geom x0:1 x1:1 x2:1 y:2 params s0 s1 s2 t0 t1 t2 u0 u1 u2
ambient wproj
hypersurface y^2+(s0*x0^2+s1*x1^2+s2*x2^2)*y+(t0*x0^2+t1*x1^2+t2*x2^2)*(u0*x0^2+u1*x1^2+u2*x2^2)
"""

# Blow-up of the two-quadric record at the rational point [1:0:0:0:0].  On
# D+(x0) the coordinates x3, x4 generate the maximal ideal of the center
# locally but cut three extra closed points globally; inverting h removes
# them (h is nonzero at the center and vanishes on all three).
_E2_3 = _E1_4 + """
blowup chart=D+(x0) center x3 ; x4
localize (s2*t1+s1*t2)^2*x1^3+(t2^2+s1*s2)*x1+s2
"""

_E2_4 = """
ring p=2 geom x:1 y:1 x':1 y':1 params t1 t2 t3 t4
ambient multiproj 1 1
doublecover section x*y*x'^2+t1*x^2*x'^2+t2*y^2*x'^2+t3*x^2*y'^2+t4*y^2*y'^2
"""

_E2_5_PENCIL = """
ring p=2 geom x:1 y:1 z:1 u:1 v:1 params s t
ambient multiproj 2 1
hypersurface u*(x^2+s*z^2)+v*(y^2+t*z^2)
"""

_PLANE = """
ring p=2 geom x:1 y:1 z:1 params s t
ambient wproj
"""

_E2_5_BLOWUP = _PLANE + """
blowup chart=D+(z) center x^2+s ; y^2+t
"""

_QUADRIC = """
ring p=2 geom x:1 y:1 z:1 w:1 params s
ambient wproj
hypersurface x^2+s*y^2+z*w
"""

_E2_6 = _QUADRIC + """
blowup chart=D+(y) center z ; w
"""


_SEXTIC_NOTES = (
    "the chart U with y and z inverted covers the locus missed by the weight-1 charts",
)

# the two presentations of row 2-5 verify each other (cross-model extras)
_ROW_2_5 = ExpectedRow("2-5", 2, 2, 5, 0, "P_{P^1}(O + O(1))", "B+C")

# the catalogue, in report order: table 1 (p = 3), then table 2 (p = 2)
RECORDS = (
    ExampleRecord("e1-1-p3", ExpectedRow("1-1", 3, 1, 1, 0, "P^2"), _SEXTIC.format(p=3), notes=_SEXTIC_NOTES),
    ExampleRecord(
        "e1-3",
        ExpectedRow("1-3", 3, 1, 3, 0, "P(1,1,3)"),
        _E1_3,
        notes=(
            "the geometric singular locus is the line x = y with s^(1/3)z + t^(1/3)w = x "
            "over the algebraic closure; the coordinate line x = z = 0 is smooth on D+(w)",
        ),
    ),
    ExampleRecord("e1-1-p2", ExpectedRow("1-1", 2, 1, 1, 0, "P^2"), _SEXTIC.format(p=2), notes=_SEXTIC_NOTES),
    ExampleRecord("e1-2", ExpectedRow("1-2", 2, 1, 2, 0, "P(1,1,2) or P^1 x P^1"), _E1_2),
    ExampleRecord("e1-4", ExpectedRow("1-4", 2, 1, 4, 0, "P^2 or P^1 x P^1"), _E1_4),
    ExampleRecord(
        "e2-2",
        ExpectedRow("2-2", 2, 2, 2, 0, "P^1 x P^1", "C+C"),
        _E2_2,
        disjoint_curves=(
            ("y+s0*x0^2+s1*x1^2+s2*x2^2", "t0*x0^2+t1*x1^2+t2*x2^2"),
            (
                "y+t0*x0^2+t1*x1^2+t2*x2^2",
                "y+(s0+u0)*x0^2+(s1+u1)*x1^2+(s2+u2)*x2^2",
            ),
        ),
    ),
    ExampleRecord(
        "e2-3",
        ExpectedRow("2-3", 2, 2, 3, 0, "P_{P^1}(O + O(1))", "B+C"),
        _E2_3,
        notes=(
            "verified through the blow-up presentation; the cubic-hypersurface "
            "description of this row is expected data only",
        ),
    ),
    ExampleRecord("e2-4", ExpectedRow("2-4", 2, 2, 4, 0, "P^1 x P^1", "C+C"), _E2_4),
    ExampleRecord("e2-5-pencil", _ROW_2_5, _E2_5_PENCIL),
    ExampleRecord("e2-5-blowup", _ROW_2_5, _E2_5_BLOWUP),
    ExampleRecord("e2-6", ExpectedRow("2-6", 2, 2, 6, 0, "P_{P^1}(O + O(2))", "B+C"), _E2_6),
)
_RECORDS = {r.record_id: r for r in RECORDS}
RECORD_ORDER = tuple(_RECORDS)

OUT_OF_SCOPE = (
    OutOfScopeRow(
        "1-1-i",
        ExpectedRow("1-1-i", 2, 1, 1, 1, "P^2"),
        "irregular surface (h^1 = 1); outside the verification pipeline's assumptions",
    ),
    OutOfScopeRow(
        "1-2-i",
        ExpectedRow("1-2-i", 2, 1, 2, 1, "P(1,1,2)"),
        "no known example for this row",
    ),
)


def coverage_selftest() -> list[str]:
    """Every expected row with an in-scope example must be covered by a
    record, record ids must be distinct, and characteristics 2 or 3."""
    problems = []
    ids = [rec.record_id for rec in RECORDS]
    repeated = sorted({rid for rid in ids if ids.count(rid) > 1})
    if repeated:
        problems.append(f"repeated record ids: {repeated}")
    for rec in RECORDS:
        if rec.expected.p not in (2, 3):
            problems.append(f"{rec.record_id}: characteristic {rec.expected.p}")
    seen_rows = {(rec.expected.table, rec.expected.row) for rec in RECORDS}
    expected_rows = {(1, "1-1"), (1, "1-3"), (2, "1-1"), (2, "1-2"), (2, "1-4"),
                     (2, "2-2"), (2, "2-3"), (2, "2-4"), (2, "2-5"), (2, "2-6")}
    missing = expected_rows - seen_rows
    if missing:
        problems.append(f"rows with no record: {sorted(missing)}")
    out_rows = {r.row for r in OUT_OF_SCOPE}
    if out_rows != {"1-1-i", "1-2-i"}:
        problems.append("out-of-scope accounting incomplete")
    return problems


def _record(record_id: str) -> ExampleRecord:
    rec = _RECORDS.get(record_id)
    if rec is None:
        for row in OUT_OF_SCOPE:
            if record_id == row.row or record_id == f"e{row.row}":
                raise KeyError(f"{record_id!r} is out of scope: {row.reason}")
        raise KeyError(f"unknown example id {record_id!r}")
    return rec


def load_example(record_id: str, limits: Limits | None = None) -> tuple[ExampleRecord, SurfaceModel]:
    """Parse and build the model for a record."""
    rec = _record(record_id)
    return rec, build_model(parse_model(rec.model_text), record_id, limits)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "inconclusive"
    computed: object = None
    certificate: object = None
    note: str = ""
    seconds: float = 0.0


@dataclass
class VerificationReport:
    record_id: str
    checks: list[CheckResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    expected: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        if any(c.status == "fail" for c in self.checks):
            return "fail"
        if any(c.status == "inconclusive" for c in self.checks):
            return "inconclusive"
        return "pass"

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(f"no check named {name!r}")

    def to_json(self, include_timings: bool = False) -> dict:
        return {
            "schema": SCHEMA,
            "id": self.record_id,
            "checks": [
                {"name": c.name, "status": c.status, "note": c.note}
                for c in self.checks
            ],
            "certificates": [
                {"check": c.name, "certificate": c.certificate}
                for c in self.checks
                if c.certificate is not None
            ],
            "expected": self.expected,
            "computed": {
                c.name: c.computed for c in self.checks if c.computed is not None
            },
            "notes": list(self.notes),
            "timings": (
                {c.name: round(c.seconds, 3) for c in self.checks}
                if include_timings
                else {}
            ),
        }


_FLAG = {True: "yes", False: "no", None: "inconclusive"}


def _expected_dict(rec: ExampleRecord) -> dict:
    e = rec.expected
    return {
        "table": e.table,
        "row": e.row,
        "p": e.p,
        "k2": e.k2,
        "flags": {name: _FLAG[want] for name, want in EXPECTED_VERDICTS.items()},
        "expected_only": {
            "rho": e.rho,
            "h1": e.h1,
            "normalization": e.normalization,
            "extremal_rays": e.extremal_rays,
        },
    }


def compute_k2(model: SurfaceModel) -> tuple[int, dict]:
    """Exact K^2 read off the model, with a certificate of the arithmetic
    used: the weighted complete-intersection formula (Iano-Fletcher 2000)
    from the ring weights and the equation degrees, adjunction for a
    hypersurface in a product of projective spaces, the cover formula from
    the branch section's degree, and the drop by the center's degree for a
    blow-up.  Raises ValueError when the formula gives no integer."""
    ambient = model.ambient
    if model.presentation == "blow_up":
        parent_val, parent_cert = compute_k2(model.parent)
        val = blowup_k2(parent_val, model.center_degree)
        return val, {
            "method": "blow_up",
            "parent": parent_cert,
            "parent_k2": parent_val,
            "center_degree": model.center_degree,
        }
    degrees = [ambient.degree(f) for f in model.equations]
    factors = list(ambient.factors)
    if model.presentation == "hypersurfaces" and not factors:
        w, d = list(model.ring.weights), [deg for (deg,) in degrees]
        val = k2_weighted_ci(w, d)
        if val.denominator != 1:
            raise ValueError(f"weighted complete-intersection K^2 = {val} is not an integer")
        return int(val), {"method": "weighted_ci", "weights": w, "degrees": d}
    if model.presentation == "hypersurfaces":
        (multidegree,) = degrees
        lat, method = hypersurface_lattice(factors, list(multidegree)), "hypersurface_lattice"
    elif model.presentation == "double_cover":
        (branch,) = degrees
        lat, method = cover_lattice(factors, [d // 2 for d in branch]), "cover_lattice"
    else:
        raise ValueError(f"no K^2 formula for presentation {model.presentation!r}")
    return product(lat, lat.canonical, lat.canonical), {
        "method": method,
        "gram": [list(r) for r in lat.gram],
        "canonical": list(lat.canonical),
    }


ALL_CHECKS = ("ambient", "regular", "geom_normal", "geom_integral", "k2", "extras")
# the verdicts two models of one row must agree on (cross-model extras)
VERDICT_CHECKS = ("regular", "geom_normal", "geom_integral", "k2")


def verify_example(
    record_id: str,
    checks: tuple[str, ...] | None = None,
    limits: Limits | None = None,
) -> VerificationReport:
    """Run the verification pipeline for one record and diff against the
    expected row.  Always returns a report; hard failures are recorded as
    failed checks, and a resource limit hit anywhere (model build included)
    makes the affected checks inconclusive."""
    rec = _record(record_id)
    selected = tuple(checks) if checks is not None else ALL_CHECKS
    for c in selected:
        if c not in ALL_CHECKS:
            raise ValueError(f"unknown check {c!r}")
    has_extras = rec.disjoint_curves is not None or _sibling(rec) is not None
    run = [c for c in ALL_CHECKS if c in selected and (c != "extras" or has_extras)]
    if not run:
        raise ValueError(f"no selected check applies to {record_id}")
    report = VerificationReport(record_id=record_id, expected=_expected_dict(rec))
    report.notes.extend(rec.notes)
    try:
        _, model = load_example(record_id, limits)
    except Inconclusive as exc:
        model, build_note = None, f"model build: {exc}"
    else:
        if model.localizer is not None:
            report.notes.append(
                f"center chart localized by inverting {model.localizer} "
                "so the center generators cut only the center point"
            )
        if model.presentation == "blow_up":
            report.notes.append(
                "retained parent charts verify the locus where the blow-up is an isomorphism; "
                "blow-up charts verify the exceptional fiber"
            )
    report.notes.append(
        "rho, h1, normalization and extremal-ray data are expected values, not computed"
    )

    # built per call, so wrappers installed on these module names (as
    # benchmark/tracer.py does) see every check
    runners = {
        "ambient": _check_ambient,
        "regular": _check_regular,
        "geom_normal": _check_geom_normal,
        "geom_integral": _check_geom_integral,
        "k2": _check_k2,
        "extras": partial(_run_extras, done=report.checks),
    }
    for name in run:
        if model is None:
            report.checks.append(CheckResult(name, "inconclusive", note=build_note))
            continue
        t0 = time.perf_counter()
        try:
            result = runners[name](rec, model, limits)
        except Inconclusive as exc:
            result = CheckResult(name, "inconclusive", note=str(exc))
        result.seconds = time.perf_counter() - t0
        report.checks.append(result)
    return report


_COVERAGE_NOTES = {
    "asserted": "weight-1 charts do not cover; remaining locus asserted covered by the declared extra charts",
    "uncovered": "weight-1 charts do not cover and no extra charts are declared",
}


def _check_ambient(rec: ExampleRecord, model: SurfaceModel, limits) -> CheckResult:
    amb = ambient_check(model, limits)  # a blow-up's is its parent's
    notes = []
    if model.ambient.factors:
        notes.append("ambient is smooth; product charts cover")
    if amb.coverage in _COVERAGE_NOTES:
        notes.append(_COVERAGE_NOTES[amb.coverage])
    if model.presentation == "blow_up":
        notes.append("blow-up center verified zero-dimensional at construction")
    return CheckResult(
        "ambient",
        "pass" if amb.ok else "fail",
        computed={"ok": amb.ok, "coverage": amb.coverage},
        certificate={
            "strata": [[d, bool(ok)] for d, ok in amb.strata],
            "coverage": amb.coverage,
        },
        note="; ".join(notes),
    )


def _status(verdict: bool | None, expected: bool) -> str:
    return "inconclusive" if verdict is None else ("pass" if verdict == expected else "fail")


def _undecided(charts) -> list[str]:
    """'<chart>: <reason>' for every chart a resource limit stopped."""
    return [f"{v.chart}: {v.limit}" for v in charts if v.value is None]


def _chart_certificate(v, detail: str, **fields) -> dict:
    """One chart's entry in a per-chart certificate."""
    return {"chart": v.chart, "provenance": v.provenance, "detail": detail, **fields}


def _check_regular(rec: ExampleRecord, model: SurfaceModel, limits) -> CheckResult:
    verdict, charts = check_regular(model, limits)
    details = {True: "non-regular locus ideal is the unit ideal", False: "non-regular locus is nonempty"}
    cert = [_chart_certificate(v, details.get(v.value, v.limit), verdict=_FLAG[v.value]) for v in charts]
    return CheckResult(
        "regular",
        _status(verdict, EXPECTED_VERDICTS["regular"]),
        computed=_FLAG[verdict],
        certificate=cert,
        note="; ".join(_undecided(charts)),
    )


def _check_geom_normal(rec: ExampleRecord, model: SurfaceModel, limits) -> CheckResult:
    normal, charts = is_geometrically_normal(model, limits)
    data = [v.value or (None, ()) for v in charts]
    # a maximum over some of the charts is only a lower bound
    dim = None if any(v.value is None for v in charts) else max(d for d, _ in data)
    cert = [
        _chart_certificate(v, v.limit, dim=d, basis=[str(g) for g in basis])
        for v, (d, basis) in zip(charts, data)
    ]
    return CheckResult(
        "geom_normal",
        _status(normal, EXPECTED_VERDICTS["geom_normal"]),
        computed={"geom_normal": None if normal is None else _FLAG[normal], "singular_dimension": dim},
        certificate=cert,
        note="; ".join(_undecided(charts)),
    )


def _check_geom_integral(rec: ExampleRecord, model: SurfaceModel, limits) -> CheckResult:
    # irreducibility follows from ASSUMPTIONS, so the verdict is reducedness
    reduced, charts = geometric_integrality(model, limits)
    irreducible = "irreducibility implied by regularity with properness and H0 = k on record"
    note = "; ".join(_undecided(charts) + [irreducible])
    if reduced is None:
        return CheckResult("geom_integral", "inconclusive", note=note)
    witness = None
    if reduced:  # the charts stop at the first one with a witness
        index, minor = charts[-1].value
        witness = {"chart": charts[-1].chart, "minor_index": index, "minor": str(minor)}
    return CheckResult(
        "geom_integral",
        _status(reduced, EXPECTED_VERDICTS["geom_integral"]),
        computed={"geom_integral": _FLAG[reduced], "reduced": reduced, "irreducible": "implied"},
        certificate={"smooth_point_witness": witness},
        note=note,
    )


def _check_k2(rec: ExampleRecord, model: SurfaceModel, limits) -> CheckResult:
    val, cert = compute_k2(model)
    return CheckResult(
        "k2",
        "pass" if val == rec.expected.k2 else "fail",
        computed=val,
        certificate=cert,
    )


def _sibling(rec: ExampleRecord) -> str | None:
    """The other record of rec's row, if any: two presentations of one row
    must reach the same verdicts (cross-model extras)."""
    row = (rec.expected.p, rec.expected.row)
    others = (r.record_id for r in RECORDS if (r.expected.p, r.expected.row) == row)
    return next((rid for rid in others if rid != rec.record_id), None)


def _run_extras(rec: ExampleRecord, model: SurfaceModel, limits, done) -> CheckResult:
    """The disjoint-curves certificate when the record declares curves,
    otherwise agreement with its row's sibling; done holds the checks
    already run for this record, whose verdicts a cross-model check reuses."""
    if rec.disjoint_curves is not None:
        a_texts, b_texts = rec.disjoint_curves
        a_gens = [parse_poly(model.ring, t) for t in a_texts]
        b_gens = [parse_poly(model.ring, t) for t in b_texts]
        disjoint, charts = subschemes_disjoint(model, a_gens, b_gens, limits)
        if disjoint is None:
            skipped = [f"{c.name} skipped (no ambient restriction)" for c in model.charts if not c.from_vars]
            notes = [f"chart {note}" for note in skipped + _undecided(charts)]
            return CheckResult("extras", "inconclusive", note="; ".join(notes))
        unit = {True: "unit", False: "not-unit", None: "inconclusive"}
        return CheckResult(
            "extras",
            _status(disjoint, True),
            computed={"disjoint": disjoint},
            certificate={"kind": "disjointness", "charts": [[v.chart, unit[v.value]] for v in charts]},
            note="two disjoint curves witness Picard rank >= 2",
        )
    sibling_id = _sibling(rec)
    if {c.name for c in done} >= set(VERDICT_CHECKS):
        mine = _verdicts(rec.record_id, done)
    else:
        mine = verdict_tuple(rec.record_id, limits)
    theirs = verdict_tuple(sibling_id, limits)
    return CheckResult(
        "extras",
        "pass" if mine == theirs else "fail",
        computed={"this": list(mine), "sibling": list(theirs)},
        certificate={"kind": "cross_model", "tuple_fields": list(VERDICT_CHECKS)},
        note="independent presentations of the same row must agree",
    )


def verdict_tuple(record_id: str, limits: Limits | None = None):
    """(regular, geom_normal, geom_integral, K^2) for cross-model checks.
    Raises Inconclusive when any of the four checks is undecided."""
    return _verdicts(record_id, verify_example(record_id, VERDICT_CHECKS, limits).checks)


def _verdicts(record_id: str, checks) -> tuple:
    """The VERDICT_CHECKS values computed by the given checks of one record."""
    by_name = {c.name: c for c in checks}
    for name in VERDICT_CHECKS:
        c = by_name[name]
        if c.status == "inconclusive":
            raise Inconclusive(f"{record_id} {name}: {c.note or 'inconclusive'}")
    return (
        by_name["regular"].computed,
        by_name["geom_normal"].computed["geom_normal"],
        by_name["geom_integral"].computed["geom_integral"],
        by_name["k2"].computed,
    )


@dataclass
class Summary:
    reports: list[VerificationReport]
    skipped: list[tuple[str, str]]  # out-of-scope rows with reasons
    seconds: float

    @property
    def mismatches(self) -> int:
        return sum(1 for r in self.reports if r.status == "fail")

    @property
    def inconclusive(self) -> int:
        return sum(1 for r in self.reports if r.status == "inconclusive")

    @property
    def exit_code(self) -> int:
        if self.mismatches:
            return 1
        if self.inconclusive:
            return 2
        return 0


def verify_all(
    p: int | None = None,
    limits: Limits | None = None,
    threads: int = 1,
) -> Summary:
    """Verify every in-scope record (optionally restricted to one
    characteristic), in the fixed catalogue order, on the calling thread.
    A characteristic with no record and no out-of-scope row raises
    ValueError.  threads must be 1: the work is pure Python under the
    interpreter lock, so worker threads would only add overhead."""
    if threads != 1:
        raise ValueError(f"threads={threads}: records run on the calling thread only")
    problems = coverage_selftest()
    if problems:
        raise RuntimeError("catalogue self-test failed: " + "; ".join(problems))
    ids = [rec.record_id for rec in RECORDS if p in (None, rec.expected.p)]
    skipped = [(row.row, row.reason) for row in OUT_OF_SCOPE if p in (None, row.expected.p)]
    if not ids and not skipped:  # nothing verified is not a pass
        raise ValueError(f"no record in characteristic {p}")
    t0 = time.perf_counter()
    reports = [verify_example(rid, None, limits) for rid in ids]
    return Summary(reports=reports, skipped=skipped, seconds=time.perf_counter() - t0)
