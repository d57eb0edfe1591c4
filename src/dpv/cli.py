"""Command-line front end.

    dpv verify e2-3 --check regular,normal --json report.json
    dpv verify-all --p 2 --json reports/
    dpv lattice k2-wci --weights 1,1,2,3 --degrees 6
    dpv groebner --ring ring.txt --ideal ideal.txt --order lex

Exit codes: 0 all checks passed, 1 a check failed or the input was rejected,
2 a computation hit its resource limit before deciding.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import tempfile
from pathlib import Path

from . import lattice
from .catalogue import ALL_CHECKS, OUT_OF_SCOPE, SCHEMA, verify_all, verify_example
from .groebner import DEFAULT_PAIR_LIMIT, Inconclusive, Limits, buchberger
from .orders import grevlex, lex
from .parsing import _integer, parse_ideal_lines, parse_ring

_CHECK_ALIASES = {"normal": "geom_normal", "integral": "geom_integral"}


class _Rejected(Exception):
    """A malformed command line: one stderr line and exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse's own exit code 2 would read as inconclusive; subparsers share the class
    def error(self, message):
        raise _Rejected(f"{self.prog}: {message}")


def _parse_checks(raw: str) -> tuple[str, ...]:
    out = []
    for name in raw.split(","):
        name = name.strip()
        if not name:
            continue
        name = _CHECK_ALIASES.get(name, name)
        if name not in ALL_CHECKS:
            raise argparse.ArgumentTypeError(f"unknown check {name!r}; choose from {', '.join(ALL_CHECKS)}")
        out.append(name)
    return tuple(out)


def _dump(payload: dict, path: Path):
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _print_report(report, timings: bool):
    for c in report.checks:
        suffix = f"  [{c.seconds:.2f}s]" if timings else ""
        note = f"  ({c.note})" if c.note and c.status != "pass" else ""
        print(f"  {c.name:14s} {c.status}{note}{suffix}")
    for note in report.notes:
        print(f"  note: {note}")
    print(f"{report.record_id}: {report.status}")


def _cmd_verify(args) -> int:
    target = Path(args.json) if args.json else None
    if target is not None:
        try:  # an unusable --json path is rejected input, before any work
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            tempfile.TemporaryFile(dir=target.parent).close()  # its directory takes a file
        except OSError as exc:
            return _reject(args.json, exc)
    try:
        report = verify_example(args.record_id, args.check, args.limits)
    except (KeyError, ValueError) as exc:
        # an unknown record, or a selection that runs no check
        print(exc.args[0], file=sys.stderr)
        return 1
    _print_report(report, args.timings)
    if target is not None:
        try:
            _dump(report.to_json(include_timings=args.timings), target)
        except OSError as exc:  # an unusable --json path is rejected input
            return _reject(args.json, exc)
    return {"pass": 0, "fail": 1, "inconclusive": 2}[report.status]


def _cmd_verify_all(args) -> int:
    # an unusable --json path (OSError) is rejected input
    try:
        return _verify_all(args, Path(args.json) if args.json else None)
    except OSError as exc:
        return _reject(args.json, exc)


def _verify_all(args, outdir: Path | None) -> int:
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)  # before any work
    summary = verify_all(p=args.p, limits=args.limits)
    rows = []
    for report in summary.reports:
        exp = report.expected
        row = f"{exp['row']} (p={exp['p']})"
        k2 = next((c.computed for c in report.checks if c.name == "k2" and c.computed is not None), "?")
        print(f"{row:12s} {report.record_id:14s} {report.status:12s} K2={k2}")
        rows.append({"row": row, "id": report.record_id, "status": report.status})
        if outdir is not None:
            _dump(report.to_json(include_timings=args.timings), outdir / f"{report.record_id}.json")
    for row, reason in summary.skipped:
        print(f"{row:12s} {'-':14s} {'skipped':12s} {reason}")
    n = len(summary.reports)
    print(
        f"{n} records: {n - summary.mismatches - summary.inconclusive} pass, "
        f"{summary.mismatches} fail, {summary.inconclusive} inconclusive"
    )
    if outdir is not None:
        _dump(
            {
                "schema": SCHEMA,
                "records": rows,
                "skipped": [{"row": r, "reason": why} for r, why in summary.skipped],
                "mismatches": summary.mismatches,
                "inconclusive": summary.inconclusive,
            },
            outdir / "summary.json",
        )
    return summary.exit_code


def _ints(raw: str, what: str) -> list[int]:
    return [_integer(tok.strip(), what) for tok in raw.split(",") if tok.strip()]


def _k2_wci(weights: str, degrees: str):
    return lattice.k2_weighted_ci(_ints(weights, "a weight"), _ints(degrees, "a degree"))


# the positional-argument lemmas of `dpv lattice`, in help order after k2-wci:
# subcommand, lemma, help, integer arguments
_LEMMAS = (
    ("rr-chi", lattice.rr_chi, "chi(L) = chi(O) + (L.L - L.K)/2", ("chi0", "l2", "lk")),
    ("index-two", lattice.index_two_check, "integrality of H^2 (1+r)/2", ("r", "h2")),
    ("negcurve", lattice.negcurve_divisibility, "divisibility constraint from a negative curve", ("dy",)),
    ("conic-fibration", lattice.conic_fibration, "fibration data forced on K^2 = 8/a", ("a",)),
    ("conic-bound", lattice.conic_bundle_bound, "multiplicities a with a*K^2 <= 4", ("k2", "amax")),
    ("secant", lattice.secant_selfint, "self-intersection after a secant construction",
     ("m", "degc", "genus", "n")),
    ("blowup-k2", lattice.blowup_k2, "K^2 drop under a point blow-up", ("k2", "degree")),
    ("ruled-k2", lattice.ruled_k2, "K^2 = 8(1 - h^1) for a ruled surface", ("h1",)),
)


def _show(value) -> str:
    """A lemma's answer on one line: a tuple space-joined, a list
    comma-joined (none when empty), a dict as sorted JSON."""
    if isinstance(value, tuple):
        return " ".join(map(str, value))
    if isinstance(value, list):
        return ",".join(map(str, value)) or "none"
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _cmd_lattice(args) -> int:
    # a value outside a formula's domain or a non-integer list item
    # (ValueError) is rejected input
    try:
        print(_show(args.lemma(*(getattr(args, name) for name in args.params))))
    except ValueError as exc:
        print(f"lattice {args.subcommand}: {exc}", file=sys.stderr)
        return 1
    return 0


def _read_ring(path: str):
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            return parse_ring(line)
    raise ValueError("ring file contains no declaration")


def _reject(path: str, exc: Exception) -> int:
    """One stderr line naming the input file; exit code 1."""
    reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
    print(f"{path}: {reason}", file=sys.stderr)
    return 1


def _cmd_groebner(args) -> int:
    # an unreadable file (OSError) or malformed text (ValueError: a bad
    # token, a non-prime p, a division by zero) is rejected input
    try:
        ring = _read_ring(args.ring)
    except (OSError, ValueError) as exc:
        return _reject(args.ring, exc)
    try:
        gens = parse_ideal_lines(ring, Path(args.ideal).read_text())
    except (OSError, ValueError) as exc:
        return _reject(args.ideal, exc)
    order = lex(ring.ngeom) if args.order == "lex" else grevlex(ring.ngeom)
    try:
        basis = buchberger(gens, order, args.limits)
    except Inconclusive as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 2
    if not basis:
        print("0")
    for g in basis:
        print(g)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dpv", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    # the resource limits of verify, verify-all and groebner (see groebner.Limits)
    limits = _Parser(add_help=False)
    limits.add_argument("--limit-pairs", type=int, default=DEFAULT_PAIR_LIMIT, metavar="N",
                        help="Groebner pair budget (default %(default)s)")
    limits.add_argument("--limit-steps", type=int, metavar="N",
                        help="work budget in ring.work_done units (default: none)")

    pv = subs.add_parser("verify", parents=[limits], help="verify one catalogued example")
    pv.add_argument("record_id")
    short = {check: alias for alias, check in _CHECK_ALIASES.items()}
    pv.add_argument("--check", type=_parse_checks, help="comma-separated subset: " + ",".join(
        short.get(check, check) for check in ALL_CHECKS))
    pv.add_argument("--json", help="write the report to this file")
    pv.add_argument("--timings", action="store_true", help="include wall times")
    pv.set_defaults(func=_cmd_verify)

    pa = subs.add_parser("verify-all", parents=[limits], help="verify every in-scope example")
    pa.add_argument("--p", type=int, choices=(2, 3), help="restrict to one characteristic")
    pa.add_argument("--json", help="write per-record reports into this directory")
    pa.add_argument("--timings", action="store_true")
    pa.set_defaults(func=_cmd_verify_all)

    pl = subs.add_parser("lattice", help="exact intersection-number arithmetic")
    lsubs = pl.add_subparsers(dest="subcommand", required=True)
    w = lsubs.add_parser("k2-wci", help="K^2 of a weighted complete intersection")
    w.add_argument("--weights", required=True)
    w.add_argument("--degrees", required=True, help="comma-separated (may be empty)")
    w.set_defaults(lemma=_k2_wci, params=("weights", "degrees"))
    for name, lemma, text, params in _LEMMAS:
        sp = lsubs.add_parser(name, help=text)
        for param in params:
            sp.add_argument(param, type=int)
        sp.set_defaults(lemma=lemma, params=params)
    pl.set_defaults(func=_cmd_lattice)

    pg = subs.add_parser("groebner", parents=[limits], help="reduced Groebner basis of an ideal file")
    pg.add_argument("--ring", required=True, help="file whose first line declares the ring")
    pg.add_argument("--ideal", required=True, help="file with one polynomial per line")
    pg.add_argument("--order", choices=("grevlex", "lex"), default="grevlex")
    pg.set_defaults(func=_cmd_groebner)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if hasattr(args, "limit_pairs"):
            # built once, before any work, so a negative limit is rejected input
            args.limits = Limits(args.limit_pairs, args.limit_steps)
    except (_Rejected, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 1
    return args.func(args)
