"""One pass of a workload, in a fresh interpreter.

The harness (run.py) starts this script once per pass and writes the pass
request to its standard input as JSON.  The script imports dpv and runs the
catalogue self-test (the set-up every `dpv` invocation pays), notes the
moment it is ready, builds the ops from the request's text, runs the timed
pass, then checks the outputs outside the timed region and writes one JSON
object to standard output.
"""

import hashlib
import json
import os
import resource
import sys
import time

# dpv is reached through module attributes, so a traced pass sees the
# tracer's wrappers.
from dpv import catalogue, groebner
from dpv.groebner import Inconclusive, Limits
from dpv.orders import grevlex, lex
from dpv.parsing import parse_poly, parse_ring
from dpv.ring import work_done

SELFTEST = catalogue.coverage_selftest()
READY = time.clock_gettime(time.CLOCK_MONOTONIC)

SWEEP_LIMITS = Limits(max_pairs=5000, max_steps=10**6)
FP_LIMITS = Limits()


def digest(polys) -> str:
    text = "\n".join(str(g) for g in polys)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Op:
    """One ideal with its normal-form queries, parsed from text."""

    def __init__(self, spec: dict):
        self.index = spec["pool_index"]
        self.ring = parse_ring(spec["ring"])
        self.gens = [parse_poly(self.ring, g) for g in spec["gens"]]
        self.queries = [parse_poly(self.ring, q) for q in spec["queries"]]
        self.order = grevlex(self.ring.ngeom)


def sweep_op(op: Op, clock):
    """One op: a grevlex basis, one normal form, and the dimension under
    grevlex and under lex, all under the sweep's work budget."""
    basis = groebner.buchberger(op.gens, op.order, SWEEP_LIMITS)
    nfs = [groebner.reduce(q, basis, op.order, SWEEP_LIMITS) for q in op.queries]
    dims = [
        groebner.dimension(op.gens, op.ring, op.order, SWEEP_LIMITS),
        groebner.dimension(op.gens, op.ring, lex(op.ring.ngeom), SWEEP_LIMITS),
    ]
    return basis, nfs, dims, None


def fp_op(op: Op, clock):
    """A basis build (a write) and then its normal-form queries (reads); each
    is timed as an op of its own."""
    t0 = clock()
    basis = groebner.buchberger(op.gens, op.order, FP_LIMITS)
    t1 = clock()
    lats = [("build", t1 - t0)]
    nfs = []
    for k, q in enumerate(op.queries):
        nfs.append(groebner.reduce(q, basis, op.order))
        t2 = clock()
        lats.append((f"q{k}", t2 - t1))
        t1 = t2
    return basis, nfs, [], lats


OP_FUNCS = {"sweep": sweep_op, "fp-ideals": fp_op}


def check_ideal_op(op: Op, basis, nfs, dims, full: bool) -> str:
    """Invariants of a decided op, checked without a work budget: normal
    forms are idempotent and differ from their query by an ideal member, and
    the two orders agree on dimension.  With full, also that generators and
    S-pairs reduce to zero; run.py asks for that when it holds no golden
    basis for the ideal (golden bases passed it when they were made)."""
    o = op.order
    reduce = groebner.reduce
    if full:
        if any(not reduce(g, basis, o).is_zero() for g in op.gens):
            return "a generator does not reduce to zero"
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                if not reduce(groebner.s_polynomial(basis[i], basis[j], o), basis, o).is_zero():
                    return f"S-pair ({i}, {j}) does not reduce to zero"
    for q, r in zip(op.queries, nfs):
        if reduce(r, basis, o) != r:
            return "normal form is not idempotent"
        if not reduce(q - r, basis, o).is_zero():
            return "query minus its normal form is not in the ideal"
    if len(set(dims)) > 1:
        return f"grevlex and lex dimensions differ: {dims}"
    return ""


def ideal_pass(workload: str, ops: list, clock, tracer) -> tuple[float, list]:
    func = OP_FUNCS[workload]
    results = []
    t_pass = clock()
    for op in ops:
        if tracer is not None:
            tracer.set_op(op.index)
        t0 = clock()
        try:
            out = func(op, clock)
            status, error = "ok", ""
        except Inconclusive as exc:
            out, status, error = None, "inconclusive", str(exc)
        except Exception as exc:  # the pass goes on; the op counts as failed
            out, status, error = None, "failed", f"{type(exc).__name__}: {exc}"
        results.append((op, clock() - t0, out, status, error))
    return clock() - t_pass, results


def ideal_records(results: list, check: bool, full: set) -> dict:
    """One record per timed op.  The record of an ideal's first op carries
    its basis digest and dimensions, every record its normal forms'."""
    records = []
    for op, lat, out, status, error in results:
        if out is None:
            records.append({"i": op.index, "ideal": op.index, "lat": lat,
                            "status": status, "error": error})
            continue
        basis, nfs, dims, lats = out
        if check:
            error = check_ideal_op(op, basis, nfs, dims, op.index in full)
            status = "failed" if error else status
        if lats is None:
            records.append({"i": op.index, "ideal": op.index, "lat": lat, "status": status,
                            "error": error, "basis": digest(basis), "dims": dims,
                            "nf": digest(nfs)})
            continue
        for k, (label, part) in enumerate(lats):
            rec = {"i": f"{op.index}/{label}", "ideal": op.index, "lat": part,
                   "status": status, "error": error}
            if k == 0:
                rec.update(basis=digest(basis), dims=dims)
            else:
                rec["nf"] = digest(nfs[k - 1:k])
            records.append(rec)
    return {"ops": records}


def catalogue_pass(clock) -> tuple[float, object]:
    t_pass = clock()
    summary = catalogue.verify_all(limits=Limits(), threads=1)
    return clock() - t_pass, summary


def catalogue_records(summary) -> dict:
    """One op per check; a report's bytes are what `dpv verify-all --json`
    writes for it."""
    records = []
    reports = {}
    for report in summary.reports:
        reports[report.record_id] = json.dumps(report.to_json(), sort_keys=True, indent=1) + "\n"
        for c in report.checks:
            status = {"pass": "ok", "inconclusive": "inconclusive"}.get(c.status, "failed")
            error = "" if status == "ok" else f"{report.record_id}/{c.name}: {c.status}"
            records.append({"i": f"{report.record_id}/{c.name}", "lat": c.seconds,
                            "status": status, "error": error})
    return {"ops": records, "reports": reports}


def run(request: dict) -> dict:
    out = {
        "ready": READY,
        "selftest": SELFTEST,
        "env_dpv": sorted(k for k in os.environ if k.startswith("DPV_")),
        "pid": os.getpid(),
    }
    workload = request["workload"]
    if workload is None:
        return out
    ops = [Op(spec) for spec in request["ops"]]
    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    clock = time.perf_counter
    units = work_done()
    try:
        if workload == "catalogue":
            wall, raw = catalogue_pass(clock)
        else:
            wall, raw = ideal_pass(workload, ops, clock, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["wall"] = wall
    out["work_units"] = work_done() - units
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = tracer.metrics(wall)
        if request.get("trace_file"):
            tracer.write_spans(request["trace_file"])
    if workload == "catalogue":
        out.update(catalogue_records(raw))
    else:
        out.update(ideal_records(raw, request["check"], set(request["full_check"])))
    return out


if __name__ == "__main__":
    json.dump(run(json.load(sys.stdin)), sys.stdout)
    sys.stdout.write("\n")
