"""Catalogue integrity and the verification report plumbing."""

from dataclasses import replace

import pytest

from dpv import catalogue, scheme
from dpv.catalogue import (
    ALL_CHECKS,
    OUT_OF_SCOPE,
    RECORD_ORDER,
    compute_k2,
    coverage_selftest,
    load_example,
    verify_all,
    verify_example,
)
from dpv.groebner import Inconclusive, Limits
from dpv.parsing import parse_model
from dpv.ring import work_done

JSON_KEYS = {"schema", "id", "checks", "certificates", "expected", "computed", "notes", "timings"}


def test_selftest_clean():
    assert coverage_selftest() == []


def test_record_inventory():
    ids = RECORD_ORDER
    assert len(ids) == 11
    assert len(set(ids)) == 11
    assert {r.row for r in OUT_OF_SCOPE} == {"1-1-i", "1-2-i"}


def test_record_states_one_characteristic():
    # p is stated in the expected row and in the model's ring line: a
    # mismatch would print one table number and compute in another field
    for rec in catalogue.RECORDS:
        assert parse_model(rec.model_text).ring.p == rec.expected.p, rec.record_id


def test_selftest_reports_a_repeated_record_id(monkeypatch):
    monkeypatch.setattr(catalogue, "RECORDS", catalogue.RECORDS + catalogue.RECORDS[4:5])
    assert coverage_selftest() == ["repeated record ids: ['e1-4']"]


def test_table_is_read_off_the_characteristic():
    rows = [rec.expected for rec in catalogue.RECORDS] + [row.expected for row in OUT_OF_SCOPE]
    assert {(e.p, e.table) for e in rows} == {(3, 1), (2, 2)}
    assert [e.table for e in rows] == [1, 1] + [2] * 11


def test_extras_run_on_declared_curves_and_on_row_siblings(monkeypatch):
    # e2-2 declares two disjoint curves, and the two records of row 2-5
    # are each other's cross-model sibling; no other record has extras
    siblings = {rid: catalogue._sibling(catalogue._record(rid)) for rid in RECORD_ORDER}
    assert {rid: s for rid, s in siblings.items() if s} == {
        "e2-5-pencil": "e2-5-blowup",
        "e2-5-blowup": "e2-5-pencil",
    }
    assert [rid for rid in RECORD_ORDER if catalogue._record(rid).disjoint_curves] == ["e2-2"]
    ran = []

    def stub(rec, model, limits, done):
        ran.append(rec.record_id)
        return catalogue.CheckResult("extras", "pass")

    monkeypatch.setattr(catalogue, "_run_extras", stub)
    for rid in RECORD_ORDER:
        try:
            verify_example(rid, ("extras",))
        except ValueError as exc:
            assert str(exc) == f"no selected check applies to {rid}"
    assert ran == ["e2-2", "e2-5-pencil", "e2-5-blowup"]


def test_load_example_rejects_unknowns():
    with pytest.raises(KeyError):
        load_example("e9-9")
    with pytest.raises(KeyError, match="irregular"):
        load_example("1-1-i")
    with pytest.raises(KeyError, match="out of scope"):
        load_example("e1-1-i")
    with pytest.raises(KeyError, match="no known example"):
        load_example("1-2-i")


def test_record_shapes():
    # one set of standing assumptions for every record
    assert catalogue.ASSUMPTIONS == ("proper", "H0=k", "Cohen-Macaulay")
    for rid in RECORD_ORDER:
        rec, model = load_example(rid)
        assert rec.expected.p in (2, 3)
        assert model.charts  # something to verify
        assert compute_k2(model)[1]["method"] in (
            "weighted_ci",
            "blow_up",
            "cover_lattice",
            "hypersurface_lattice",
        )


def test_expected_k2_column():
    vals = [verify_example(rid, checks=("k2",)).check("k2") for rid in RECORD_ORDER]
    assert all(c.status == "pass" for c in vals)
    assert [c.computed for c in vals] == [1, 3, 1, 2, 4, 2, 3, 4, 5, 5, 6]


def test_a_wrong_expected_k2_fails(monkeypatch):
    # negative control: the k2 check must be able to say "fail"
    for rid in RECORD_ORDER:
        rec = catalogue._RECORDS[rid]
        for off in (-1, 1):
            wrong = replace(rec, expected=replace(rec.expected, k2=rec.expected.k2 + off))
            monkeypatch.setitem(catalogue._RECORDS, rid, wrong)
            report = verify_example(rid, ("k2",))
            assert (report.check("k2").status, report.status) == ("fail", "fail"), (rid, off)
            assert report.check("k2").computed == rec.expected.k2


def test_a_blow_ups_parent_fails_its_row_by_the_center_degree(monkeypatch):
    # negative control: the parent's text, that is the blow-up's without
    # its blowup and localize lines, under the blow-up's row
    for rid in ("e2-3", "e2-5-blowup", "e2-6"):
        rec, model = load_example(rid)
        lines = rec.model_text.strip().splitlines()
        parent_text = "\n".join(line for line in lines if not line.startswith(("blowup ", "localize ")))
        monkeypatch.setitem(catalogue._RECORDS, rid, replace(rec, model_text=parent_text))
        report = verify_example(rid, ("k2",))
        assert (report.check("k2").status, report.status) == ("fail", "fail"), rid
        assert report.check("k2").computed - rec.expected.k2 == model.center_degree > 0, rid


def test_check_subset_and_unknown_check():
    rep = verify_example("e1-2", checks=("k2",))
    assert [c.name for c in rep.checks] == ["k2"]
    assert rep.status == "pass"
    with pytest.raises(ValueError):
        verify_example("e1-2", checks=("k2", "bogus"))
    # a selection that runs no check is rejected: extras on a record that
    # declares none, or nothing at all
    for nothing in (("extras",), ()):
        with pytest.raises(ValueError, match="^no selected check applies to e1-2$"):
            verify_example("e1-2", checks=nothing)


def test_report_json_shape():
    rep = verify_example("e1-2", checks=("ambient", "k2"))
    doc = rep.to_json()
    assert set(doc) == JSON_KEYS
    assert doc["schema"] == 1
    assert doc["id"] == "e1-2"
    assert doc["timings"] == {}
    assert doc["computed"]["k2"] == 2
    exp = doc["expected"]
    assert exp["expected_only"].keys() == {"rho", "h1", "normalization", "extremal_rays"}
    assert exp["flags"] == {"regular": "yes", "geom_integral": "yes", "geom_normal": "no"}
    timed = rep.to_json(include_timings=True)
    assert set(timed["timings"]) == {"ambient", "k2"}
    assert all(isinstance(v, float) for v in timed["timings"].values())


def test_report_check_lookup():
    rep = verify_example("e1-2", checks=("k2",))
    assert rep.check("k2").name == "k2"
    with pytest.raises(KeyError):
        rep.check("regular")


def test_verify_all_characteristic_filter():
    summary = verify_all(p=3)
    assert [r.record_id for r in summary.reports] == ["e1-1-p3", "e1-3"]
    assert summary.mismatches == 0
    assert summary.inconclusive == 0
    assert summary.exit_code == 0
    assert summary.skipped == []  # both out-of-scope rows live in characteristic 2
    for rep in summary.reports:
        names = [c.name for c in rep.checks]
        assert names == [c for c in ALL_CHECKS if c != "extras"]
    with pytest.raises(ValueError):
        verify_all(p=3, threads=2)
    # a characteristic with nothing to verify is not a pass
    with pytest.raises(ValueError, match="^no record in characteristic 5$"):
        verify_all(p=5)


def test_out_of_scope_rows_reported_in_char2():
    summary = verify_all(p=2)
    skipped = dict(summary.skipped)
    assert set(skipped) == {"1-1-i", "1-2-i"}
    assert "irregular" in skipped["1-1-i"]
    assert "no known example" in skipped["1-2-i"]


def test_compute_k2_rejects_unknown_kind():
    _, model = load_example("e1-2")
    with pytest.raises(ValueError):
        compute_k2(replace(model, presentation="bogus"))


QUINTIC_P1123 = """
ring p=2 geom x0:1 x1:1 y:2 z:3
ambient wproj
hypersurface z*y+x0^5+x1^5+x0*y^2
"""


def test_compute_k2_rejects_a_fractional_formula_value():
    # the formula gives (5 - 7)^2 * 5 / 6 = 10/3, which int() would truncate
    # to 3; the check raises, and is no assert that python -O would strip
    model = scheme.build_model(parse_model(QUINTIC_P1123), "quintic")
    with pytest.raises(ValueError, match="K\\^2 = 10/3 is not an integer"):
        compute_k2(model)


def test_k2_is_read_off_the_model():
    # ring weights and equation degrees, the parent of a blow-up, the
    # factors and the branch section's degree of a cover
    cert = {rid: compute_k2(load_example(rid)[1])[1] for rid in ("e1-1-p3", "e2-3", "e2-4")}
    assert cert["e1-1-p3"] == {"method": "weighted_ci", "weights": [1, 1, 2, 3], "degrees": [6]}
    assert cert["e2-3"] == {
        "method": "blow_up",
        "parent": {"method": "weighted_ci", "weights": [1, 1, 1, 1, 1], "degrees": [2, 2]},
        "parent_k2": 4,
        "center_degree": 1,
    }
    assert cert["e2-4"] == {"method": "cover_lattice", "gram": [[0, 2], [2, 0]], "canonical": [-1, -1]}
    _, pencil = load_example("e2-5-pencil")
    assert compute_k2(pencil) == (
        5,
        {"method": "hypersurface_lattice", "gram": [[1, 2], [2, 0]], "canonical": [-1, -1]},
    )


def test_limit_trip_during_model_build_marks_every_selected_check():
    # e2-3 is built by blowing up e1-4, whose saturation needs more than one pair
    report = verify_example("e2-3", ("regular", "k2"), Limits(max_pairs=1))
    assert [(c.name, c.status) for c in report.checks] == [
        ("regular", "inconclusive"),
        ("k2", "inconclusive"),
    ]
    assert all(c.note.startswith("model build: pair limit") for c in report.checks)
    assert report.status == "inconclusive"
    assert report.expected["row"] == "2-3"


def test_model_build_trip_adds_no_blow_up_notes():
    # the blow-up sentences are read off a built model, so a trip in the
    # build leaves the record's own notes only
    report = verify_example("e2-3", None, Limits(max_pairs=1))
    assert report.notes == [
        *catalogue._record("e2-3").notes,
        "rho, h1, normalization and extremal-ray data are expected values, not computed",
    ]
    built = verify_example("e2-3", ("k2",))
    assert any(note.startswith("center chart localized by inverting ") for note in built.notes)
    assert any(note.startswith("retained parent charts ") for note in built.notes)


def test_uncovered_weighted_model_fails_ambient(monkeypatch):
    # the sextic without its extra chart: the weight-1 charts miss a point
    # of the surface, and no golden record reaches this sentence
    text = "\n".join(
        line for line in catalogue._SEXTIC.format(p=3).splitlines() if not line.startswith("extrachart")
    )
    rec = replace(catalogue._record("e1-1-p3"), record_id="uncovered", model_text=text, notes=())
    monkeypatch.setitem(catalogue._RECORDS, "uncovered", rec)
    check = verify_example("uncovered", ("ambient",)).check("ambient")
    assert check.status == "fail"
    assert check.note == "weight-1 charts do not cover and no extra charts are declared"
    assert check.computed == {"ok": False, "coverage": "uncovered"}


def test_limit_trip_inside_one_check_marks_only_that_check():
    # a one-unit work budget stops every geom_integral basis of e1-4, but
    # neither its model build nor k2
    report = verify_example("e1-4", ("geom_integral", "k2"), Limits(max_steps=1))
    assert report.check("geom_integral").status == "inconclusive"
    assert "work budget exceeded" in report.check("geom_integral").note
    assert report.check("k2").status == "pass"


def test_regular_note_names_the_tripped_limit():
    check = verify_example("e1-1-p3", ("regular",), Limits(max_pairs=1)).check("regular")
    assert check.status == "inconclusive"
    undecided = [c["chart"] for c in check.certificate if c["verdict"] == "inconclusive"]
    assert undecided
    assert check.note == "; ".join(f"{name}: pair limit 1 exceeded" for name in undecided)


def test_geom_normal_is_decided_by_a_decided_chart_under_a_limit():
    # D+(x1) decides a singular curve before the pair limit stops D+(x3)
    # and D+(x4); the dimension over some of the charts is only a lower
    # bound, so it is left out
    check = verify_example("e1-4", ("geom_normal",), Limits(max_pairs=3)).check("geom_normal")
    assert check.status == "pass"
    assert check.computed == {"geom_normal": "no", "singular_dimension": None}
    assert check.note == "D+(x3): pair limit 3 exceeded; D+(x4): pair limit 3 exceeded"
    dims = {c["chart"]: c["dim"] for c in check.certificate}
    assert dims["D+(x1)"] == 1 and dims["D+(x3)"] is None and dims["D+(x4)"] is None


def test_geom_integral_note_names_every_tripped_chart(monkeypatch):
    def always_trips(m, eqs, limits):
        raise Inconclusive("pair limit 1 exceeded")

    monkeypatch.setattr(scheme, "_outside_radical", always_trips)
    _, model = load_example("e2-6")
    check = verify_example("e2-6", ("geom_integral",)).check("geom_integral")
    assert check.status == "inconclusive"
    assert check.computed is None and check.certificate is None
    prefix = "; ".join(f"{c.name}: pair limit 1 exceeded" for c in model.charts)
    assert check.note.startswith(prefix + "; ")


def test_cross_model_check_never_passes_on_undecided_verdicts(monkeypatch):
    monkeypatch.setattr(catalogue, "check_regular", lambda model, limits: (None, []))
    extras = verify_example("e2-5-pencil").check("extras")
    assert extras.status == "inconclusive"
    assert "regular" in extras.note


def test_verify_all_work_stays_below_bound():
    # deterministic term-product units; computing each basis and verdict
    # once brought one pass from 189,227 to 170,154, cross-cancelling
    # coefficient products and quotients to 93,049, ring changes that
    # re-index exponents instead of re-evaluating coefficients to 87,183,
    # computing each Jacobian sub-minor once to 82,615, and testing
    # disjointness in the ambient only where the standard charts miss to
    # 80,800, and deciding a geom_integral witness on a nonempty fibre
    # before any Rabinowitsch basis to 33,157, and deciding regular on a
    # chart whose closure basis is [1] without parameter minors to 19,165,
    # and asking projective emptiness as one cone basis to 18,843, and
    # stopping Polynomial.__pow__ at the exponent's top bit to 18,630,
    # and reducing by monic divisors with no division by their leading
    # coefficients to 16,977, and letting pp_gcd return at once for a
    # constant multiple of its first operand to 16,957
    before = work_done()
    summary = verify_all()
    assert summary.exit_code == 0
    assert work_done() - before < 17_000


def test_regular_and_geom_normal_share_one_closure_per_chart(monkeypatch):
    calls = []
    real = scheme.pth_root_closure

    def counted(gens, limits=None):
        calls.append(gens)
        return real(gens, limits)

    monkeypatch.setattr(scheme, "pth_root_closure", counted)
    report = verify_example("e2-3", ("regular", "geom_normal"))
    assert [c.status for c in report.checks] == ["pass", "pass"]
    _, model = load_example("e2-3")
    assert len(model.charts) == len(calls) == 7


@pytest.mark.parametrize("var, value", [("DPV_STEP_LIMIT", "abc"), ("DPV_PAIR_LIMIT", "1")])
def test_library_calls_read_no_dpv_variable(monkeypatch, var, value):
    # dpv reads no DPV_* variable; a library call without limits runs
    # under the defaults, whatever the environment holds
    monkeypatch.setenv(var, value)
    report = verify_example("e1-2")
    assert [(c.name, c.status) for c in report.checks] == [
        (name, "pass") for name in ("ambient", "regular", "geom_normal", "geom_integral", "k2")
    ]


def test_cross_model_check_reuses_the_records_own_verdicts(monkeypatch):
    calls = []
    real = catalogue.check_regular

    def counted(model, limits):
        calls.append(model.model_id)
        return real(model, limits)

    monkeypatch.setattr(catalogue, "check_regular", counted)
    assert verify_example("e2-5-pencil").status == "pass"
    assert calls == ["e2-5-pencil", "e2-5-blowup"]


def test_cross_model_extras_alone_match_the_full_run(monkeypatch):
    # run alone, the extras check has no verdicts of its own record to reuse,
    # so it computes both records' verdicts through verdict_tuple
    calls = []
    real = catalogue.check_regular

    def counted(model, limits):
        calls.append(model.model_id)
        return real(model, limits)

    full = verify_example("e2-5-pencil").check("extras")
    monkeypatch.setattr(catalogue, "check_regular", counted)
    alone = verify_example("e2-5-pencil", ("extras",))
    assert [c.name for c in alone.checks] == ["extras"]
    assert calls == ["e2-5-pencil", "e2-5-blowup"]
    extras = alone.check("extras")
    assert extras.status == "pass"
    assert extras.computed == full.computed
