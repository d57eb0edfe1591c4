"""Command-line behaviour: exit codes, report text, JSON artifacts."""

import ast
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from dpv import cli
from dpv.catalogue import ALL_CHECKS, RECORD_ORDER, SCHEMA
from dpv.cli import build_parser, main
from dpv.groebner import Limits


def test_check_help_names_every_check_once(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")  # argparse would wrap the list on a narrow terminal
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    listed = capsys.readouterr().out.split("comma-separated subset:", 1)[1].split()[0]
    assert listed == "ambient,regular,normal,integral,k2,extras"
    assert cli._parse_checks(listed) == ALL_CHECKS


def test_verify_single_record(capsys):
    assert main(["verify", "e1-2"]) == 0
    out = capsys.readouterr().out
    assert "e1-2: pass" in out
    for name in ("ambient", "regular", "geom_normal", "geom_integral", "k2"):
        assert name in out


def test_verify_check_aliases(capsys):
    assert main(["verify", "e1-2", "--check", "normal,integral"]) == 0
    out = capsys.readouterr().out
    assert "geom_normal" in out
    assert "geom_integral" in out
    assert "regular " not in out  # not requested


def test_verify_unknown_record(capsys):
    assert main(["verify", "e9-9"]) == 1
    assert "unknown example id" in capsys.readouterr().err


def test_verify_unknown_check(capsys):
    assert main(["verify", "e1-2", "--check", "bogus"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "dpv verify: argument --check: unknown check 'bogus'; "
        "choose from ambient, regular, geom_normal, geom_integral, k2, extras\n"
    )


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["verify", "e1-2", "--limit-pairs", "abc"],
    ["verify-all", "--p", "5"],
    ["frobnicate"],
    ["lattice", "rr-chi", "x", "1", "2"],
])
def test_malformed_command_line_is_rejected_in_one_line(capsys, argv):
    # exit code 2 means inconclusive, so argparse's own usage exit is not used
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("dpv") and out.err.count("\n") == 1 and out.err.endswith("\n")


def test_verify_json_artifact(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["verify", "e1-2", "--check", "k2", "--json", str(target)]) == 0
    capsys.readouterr()
    doc = json.loads(target.read_text())
    assert doc["schema"] == 1
    assert doc["id"] == "e1-2"
    assert doc["computed"]["k2"] == 2
    assert doc["timings"] == {}


def test_verify_all_char3(capsys):
    assert main(["verify-all", "--p", "3"]) == 0
    out = capsys.readouterr().out
    assert "e1-1-p3" in out and "K2=1" in out
    assert "e1-3" in out and "K2=3" in out
    assert "2 records: 2 pass, 0 fail, 0 inconclusive" in out


def test_verify_all_json_directory(tmp_path, capsys):
    outdir = tmp_path / "reports"
    assert main(["verify-all", "--p", "3", "--json", str(outdir)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in outdir.iterdir())
    assert names == ["e1-1-p3.json", "e1-3.json", "summary.json"]
    summary = json.loads((outdir / "summary.json").read_text())
    report = json.loads((outdir / "e1-3.json").read_text())
    assert summary["schema"] == report["schema"] == SCHEMA == 1
    assert summary["mismatches"] == 0
    assert summary["inconclusive"] == 0
    assert [r["id"] for r in summary["records"]] == ["e1-1-p3", "e1-3"]


@pytest.mark.parametrize(
    "argv, want",
    [
        (["lattice", "k2-wci", "--weights", "1,1,2,3", "--degrees", "6"], "1"),
        (["lattice", "rr-chi", "1", "16", "-8"], "13"),
        (["lattice", "index-two", "2", "1"], "non_integral 3/2"),
        (["lattice", "negcurve", "2"], "consistent"),
        (["lattice", "negcurve", "3"], "contradiction"),
        (["lattice", "conic-fibration", "2"], '{"b": 2, "c": 2, "k2": 4}'),
        (["lattice", "conic-fibration", "3"], "non-integral"),
        (["lattice", "conic-bound", "1", "4"], "1,2,3,4"),
        (["lattice", "conic-bound", "5", "100"], "none"),
        (["lattice", "secant", "2", "5", "1", "4"], "1"),
        (["lattice", "blowup-k2", "5", "1"], "4"),
        (["lattice", "ruled-k2", "0"], "8"),
    ],
)
def test_lattice_subcommands(capsys, argv, want):
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == want


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["negcurve", "0"], "dY must be positive"),
        (["k2-wci", "--weights", "1,1,2", "--degrees", "6"], "surface needs exactly three more weights than degrees"),
        (["k2-wci", "--weights", "1,x", "--degrees", "6"], "a weight must be an integer, got 'x'"),
    ],
)
def test_lattice_rejects_bad_input_in_one_line(capsys, argv, reason):
    assert main(["lattice", *argv]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"lattice {argv[0]}: {reason}\n"


def _write_ideal(tmp_path, ring_line, polys):
    ring = tmp_path / "ring.txt"
    ring.write_text(f"# comment line\n{ring_line}\n")
    ideal = tmp_path / "ideal.txt"
    ideal.write_text("\n".join(polys) + "\n")
    return str(ring), str(ideal)


def test_groebner_orders(tmp_path, capsys):
    ring, ideal = _write_ideal(tmp_path, "ring p=3 geom x y", ["x+2*y^2", "x^2+2*y"])
    assert main(["groebner", "--ring", ring, "--ideal", ideal, "--order", "lex"]) == 0
    lex_lines = capsys.readouterr().out.strip().splitlines()
    assert "y^4 + 2*y" in lex_lines
    assert main(["groebner", "--ring", ring, "--ideal", ideal]) == 0
    grevlex_lines = capsys.readouterr().out.strip().splitlines()
    assert grevlex_lines and grevlex_lines != lex_lines


def test_groebner_pair_budget(tmp_path, capsys):
    # four quadrics in five variables need dozens of pairs, not one
    ring, ideal = _write_ideal(
        tmp_path, "ring p=7 geom a b c d e",
        ["3*a^2+b*c+5*d*e+2*a*e", "a*b+4*c^2+6*b*e+d^2", "2*b^2+a*d+3*c*e+5*e^2",
         "c*d+6*a*c+b*d+4*a^2"],
    )
    assert main(["groebner", "--ring", ring, "--ideal", ideal, "--limit-pairs", "1"]) == 2
    err = capsys.readouterr().err
    assert "inconclusive" in err and "pair" in err


def test_groebner_parameter_degree_overflow_is_inconclusive(tmp_path, capsys):
    # each generator parses, but the basis needs s^36000, beyond the
    # coefficient kernel's degree cap: a resource limit, exit 2
    ring, ideal = _write_ideal(
        tmp_path, "ring p=3 geom x y params s", ["s^12000*x - 1", "s^12000*y - 1", "x*y - s^12000"]
    )
    assert main(["groebner", "--ring", ring, "--ideal", ideal]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "inconclusive: parameter degree above 32767\n")


def test_groebner_geometric_degree_overflow_is_inconclusive(tmp_path, capsys):
    # both generators parse, but under lex reducing x*y^20000 by x - y^20000
    # needs y^40000, beyond the packed monomial's degree cap: exit 2
    ring, ideal = _write_ideal(tmp_path, "ring p=3 geom x y", ["x^2", "x - y^20000"])
    assert main(["groebner", "--ring", ring, "--ideal", ideal, "--order", "lex"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "inconclusive: geometric degree above 32767\n")
    # under grevlex y^20000 leads, and the basis needs no larger degree
    assert main(["groebner", "--ring", ring, "--ideal", ideal]) == 0


def test_groebner_missing_ring(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    ideal = tmp_path / "ideal.txt"
    ideal.write_text("x\n")
    assert main(["groebner", "--ring", str(empty), "--ideal", str(ideal)]) == 1
    assert "no declaration" in capsys.readouterr().err


def test_groebner_reads_ring_and_ideal_from_one_file(tmp_path, capsys):
    both = tmp_path / "both.txt"
    both.write_text("ring p=3 geom x y\nx+y\nx-y\n")
    assert main(["groebner", "--ring", str(both), "--ideal", str(both)]) == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == ("x\ny\n", "")


# exact output over a ring without parameters, whose coefficients are ints
# mod 7; these are also the bytes that Coefficient arithmetic prints
F7_IDEAL = ["3*x^2+y*z+5*x", "x*y+4*z^2+6", "2*y^2+x*z+3*z"]
F7_GREVLEX = """\
z^4 + 3*x*z + 6*y + 3
x*z^2 + 2*z^2 + 2*x + 1
y*z^2 + 6*x*z + 2*y
x^2 + 5*y*z + 4*x
x*y + 4*z^2 + 6
y^2 + 4*x*z + 5*z
"""
F7_LEX = """\
4*z^7 + z^5 + 4*z^4 + 5*z^3 + 3*z^2 + x + 3*z + 4
4*z^6 + 4*z^3 + 5*z^2 + y + 2*z
z^8 + 4*z^6 + z^5 + z^3 + 5*z^2 + 2*z + 5
"""


@pytest.mark.parametrize("order, want", [("grevlex", F7_GREVLEX), ("lex", F7_LEX)])
def test_groebner_exact_output_over_f7(tmp_path, capsys, order, want):
    ring, ideal = _write_ideal(tmp_path, "ring p=7 geom x y z", F7_IDEAL)
    assert main(["groebner", "--ring", ring, "--ideal", ideal, "--order", order]) == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == (want, "")


# each rejected input: exit 1, and one stderr line that names the file
@pytest.mark.parametrize("ring_line, polys, bad, reason", [
    (None, ["x"], "ring", "No such file or directory"),
    ("ring p=3 geom x y", None, "ideal", "No such file or directory"),
    ("ring p=4 geom x y", ["x"], "ring", "characteristic 4 is not prime"),
    ("ring p=3 geom x y", ["x^2+y$"], "ideal", "bad character in expression: '$'"),
    ("ring p=3 geom x y", ["x/0"], "ideal", "cannot divide by 0"),
    ("ring p=2305843009213693951 geom x y", ["x"], "ring",
     "characteristic 2305843009213693951 is too large (must be below 2^31)"),
    ("ring p=3 geom x:a y", ["x"], "ring", "the weight of x must be an integer, got 'a'"),
    ("ring p=3 geom x params " + " ".join(f"s{i}" for i in range(17)), ["x"], "ring",
     "17 parameters are too many (at most 16)"),
    ("ring p=3 geom x y params s", ["s^40000*x"], "ideal", "parameter exponent 40000 is above 32767"),
    ("ring p=3 geom " + " ".join(f"x{i}" for i in range(17)), ["x0"], "ring",
     "17 geometric variables are too many (at most 16)"),
    ("ring p=3 geom x y", ["x^40000"], "ideal", "geometric exponent 40000 is above 32767"),
    ("ring p=3 geom x y", ["x^20000*y^20000"], "ideal", "geometric degree above 32767"),
    ("ring p=3 geom x y", ["(" * 400 + "x" + ")" * 400], "ideal",
     "expression nested too deeply (at most 100 levels)"),
    ("ring p=2 geom x y", ["ring p=3 geom x y", "x+y", "x-y"], "ideal",
     "declares another ring: 'ring p=3 geom x y'"),
])
def test_groebner_rejects_bad_input_in_one_line(tmp_path, capsys, ring_line, polys, bad, reason):
    ring, ideal = _write_ideal(tmp_path, ring_line or "ring p=3 geom x y", polys or ["x"])
    paths = {"ring": ring, "ideal": ideal}
    if ring_line is None or polys is None:
        paths[bad] = str(tmp_path / "missing.txt")
    argv = ["groebner", "--ring", paths["ring"], "--ideal", paths["ideal"]]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"{paths[bad]}: {reason}\n"


@pytest.mark.parametrize("command, value, argv", [
    ("verify", "abc", ["verify", "e1-2", "--limit-steps", "abc"]),
    ("verify-all", "x", ["verify-all", "--p", "3", "--limit-pairs", "x"]),
    ("groebner", "1.5", ["groebner", "--ring", "RING", "--ideal", "IDEAL", "--limit-pairs", "1.5"]),
])
def test_malformed_limit_flag_is_rejected_up_front(tmp_path, capsys, command, value, argv):
    ring, ideal = _write_ideal(tmp_path, "ring p=3 geom x y", ["x"])
    argv = [{"RING": ring, "IDEAL": ideal}.get(a, a) for a in argv]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"dpv {command}: argument {argv[-2]}: invalid int value: '{value}'\n"


def test_limit_flags_reach_limits():
    parser = build_parser()
    for argv in (["verify", "e1-2"], ["verify-all"], ["groebner", "--ring", "r", "--ideal", "i"]):
        args = parser.parse_args(argv)
        assert Limits(args.limit_pairs, args.limit_steps) == Limits()
        args = parser.parse_args(argv + ["--limit-pairs", "3", "--limit-steps", "900"])
        assert Limits(args.limit_pairs, args.limit_steps) == Limits(max_pairs=3, max_steps=900)


def test_verify_reads_no_limit_variable(monkeypatch, capsys):
    # limits come from the command line alone, so zero limits in DPV_*
    # leave e1-2 passing
    monkeypatch.setenv("DPV_STEP_LIMIT", "0")
    monkeypatch.setenv("DPV_PAIR_LIMIT", "0")
    assert main(["verify", "e1-2"]) == 0
    assert "e1-2: pass" in capsys.readouterr().out


@pytest.mark.parametrize("record_id", RECORD_ORDER)
def test_verify_under_tiny_pair_limit_never_raises(record_id, capsys):
    # a limit trip anywhere (model build, integrality, extras) is an
    # inconclusive check and exit code 2, never a traceback
    assert main(["verify", record_id, "--limit-pairs", "1"]) in (0, 2)
    assert f"{record_id}: " in capsys.readouterr().out


def test_geom_normal_note_names_the_tripped_limit(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["verify", "e1-4", "--limit-pairs", "2", "--json", str(target)]) == 2
    capsys.readouterr()
    checks = {c["name"]: c for c in json.loads(target.read_text())["checks"]}
    assert checks["geom_normal"]["status"] == "inconclusive"
    assert "pair limit" in checks["geom_normal"]["note"]


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [ln.split("#", 1)[0].strip() for ln in block.splitlines()]
    commands = [shlex.split(ln)[1:] for ln in lines if ln.startswith("dpv ")]
    assert len(commands) >= 5
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_module_form_runs_the_command():
    # python -m dpv runs dpv/__main__.py in a fresh interpreter
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-m", "dpv", "lattice", "ruled-k2", "0"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "8\n", "")


def test_readme_library_block_prints_its_comments(capsys):
    # each '# value' comment in the README's Library block is the literal
    # that the print beside or above it shows
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    comments = [ln.split("#", 1)[1] for ln in block.splitlines() if "#" in ln]
    want = [str(ast.literal_eval(c.strip())) for c in comments]
    assert len(want) == 3
    exec(block, {})
    assert capsys.readouterr().out.splitlines() == want


@pytest.mark.parametrize("check", ["", ",", "extras"])
def test_verify_rejects_a_selection_that_runs_nothing(capsys, check):
    # "" and "," select no check, and e1-2 declares no extras
    assert main(["verify", "e1-2", "--check", check]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "no selected check applies to e1-2\n"


def test_verify_rejects_an_unwritable_json_path(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert main(["verify", "e1-2", "--check", "k2", "--json", str(target)]) == 1
    assert capsys.readouterr().err == f"{target}: No such file or directory\n"
    assert not target.parent.exists()


@pytest.mark.parametrize("where, reason", [
    ("missing/report.json", "No such file or directory"),
    ("kept/report.json", "Not a directory"),
    (".", "Is a directory"),
])
def test_verify_rejects_an_unusable_json_path_before_verifying(tmp_path, monkeypatch, capsys, where, reason):
    def refuse(*args):
        raise AssertionError("verified before the --json path was checked")

    monkeypatch.setattr(cli, "verify_example", refuse)
    (tmp_path / "kept").write_text("kept\n")
    target = tmp_path / where
    assert main(["verify", "e2-3", "--json", str(target)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"{target}: {reason}\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["kept"]
    assert (tmp_path / "kept").read_text() == "kept\n"


def test_verify_all_rejects_a_json_path_that_is_a_file(tmp_path, capsys):
    target = tmp_path / "reports"
    target.write_text("kept\n")
    assert main(["verify-all", "--p", "3", "--json", str(target)]) == 1
    out = capsys.readouterr()
    assert out.out == ""  # rejected before any record is verified
    assert out.err == f"{target}: File exists\n"
    assert target.read_text() == "kept\n"


@pytest.mark.parametrize("argv, message", [
    (["verify", "e2-3", "--limit-pairs", "-1"], "pair limit must not be negative, got -1"),
    (["verify-all", "--limit-pairs", "-3"], "pair limit must not be negative, got -3"),
    (["verify-all", "--limit-steps", "-5"], "step limit must not be negative, got -5"),
], ids=["verify-pairs", "verify-all-pairs", "verify-all-steps"])
def test_negative_limit_flag_is_rejected_up_front(capsys, argv, message):
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == message + "\n"


def test_limits_reject_negative_values_and_keep_zero():
    for bad in ({"max_pairs": -1}, {"max_steps": -1}):
        with pytest.raises(ValueError, match="must not be negative, got -1$"):
            Limits(**bad)
    # max_steps=None means no work budget, but every basis needs a pair limit
    with pytest.raises(ValueError, match="pair limit must be an integer, got None$"):
        Limits(max_pairs=None)
    # a bool, a float or a string is refused here, not deep inside the engine
    for bad, message in (({"max_pairs": True}, "pair limit must be an integer, got True"),
                         ({"max_steps": 1.5}, "step limit must be an integer, got 1.5"),
                         ({"max_pairs": "5"}, "pair limit must be an integer, got '5'")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Limits(**bad)
    Limits(max_pairs=0, max_steps=0)  # zero is a limit, tripped by any work
