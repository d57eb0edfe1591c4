"""The dpv benchmark harness.

    python3 benchmark/run.py                        # all workloads, seed 0
    python3 benchmark/run.py --workload sweep --seed 3 --seconds 30 --trace 1

Run from the repository root.  Each pass runs in a fresh interpreter
(passrun.py), one at a time, so every pass pays model build and every cold
cache the way each `dpv verify-all` does.  Children get the environment
without any DPV_* variable, so limits and threads set in the shell cannot
change what is measured; each workload sets its limits explicitly.

A run first starts SETUP_PROBES interpreters that only set up, then runs
passes, each followed by one more set-up-only interpreter: at least
MIN_PASSES, and more while the next would end within --seconds.  Times are
means over passes; set-up time is the median over all children.  With
--trace 1 the passes alternate untraced and traced, and the per-layer
numbers come from the fastest traced pass.

Every output is checked.  The catalogue's reports must match the golden
bytes; every ideal's basis digest and dimensions must match the golden ones
where the golden run decided the ideal, and its normal forms must pass the
invariant checks; every pass must give the first pass's outputs.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is 1 when an output is wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PASSRUN = os.path.join(HERE, "passrun.py")
GOLDEN = os.path.join(HERE, "golden")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import inputs  # noqa: E402

WORKLOADS = ("catalogue", "sweep", "fp-ideals")
MIN_PASSES = 3
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170
TAIL_BEYOND = 10  # samples beyond the reported tail percentile


def clock() -> float:
    # CLOCK_MONOTONIC is one clock for every process, so a child's ready
    # time can be set against the moment this process started it.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DPV_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(request: dict) -> dict:
    """Run one child to completion and return its result, with its set-up
    time and its start and end on this process's clock."""
    start = clock()
    proc = subprocess.run(
        [sys.executable, PASSRUN],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=child_env(),
        timeout=CHILD_TIMEOUT_S,
    )
    end = clock()
    if proc.returncode != 0:
        raise RuntimeError(f"pass process exited with {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result.update(setup=result["ready"] - start, start=start, end=end)
    return result


def ideal_key(spec: dict) -> str:
    text = spec["ring"] + "\n" + "\n".join(spec["gens"])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_golden(workload: str) -> dict:
    if workload == "catalogue":
        folder = os.path.join(GOLDEN, "catalogue")
        out = {}
        for rid in os.listdir(folder):
            with open(os.path.join(folder, rid)) as fh:
                out[rid[: -len(".json")]] = fh.read()
        return out
    with open(os.path.join(GOLDEN, f"{workload}.json")) as fh:
        return json.load(fh)


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least TAIL_BEYOND of n samples
    above its nearest-rank value."""
    q = 100 * (n - TAIL_BEYOND) // n if n > TAIL_BEYOND else 0
    while q > 0 and n - math.ceil(q * n / 100) < TAIL_BEYOND:
        q -= 1
    return q


def nearest_rank(sorted_values: list, q: int) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values) / 100) - 1)]


class Run:
    """One run of one workload: its passes, checks and metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.request = inputs.make_inputs(workload, seed)
        self.golden = load_golden(workload)
        specs = self.request["ops"]
        self.keys = {spec["pool_index"]: ideal_key(spec) for spec in specs}
        self.request["full_check"] = [i for i, k in self.keys.items() if k not in self.golden]
        self.setups: list[float] = []
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.problems: list[str] = []
        self.reference: dict | None = None
        self.children: list[tuple[float, float]] = []

    # -- passes ---------------------------------------------------------------------

    def _child(self, **fields) -> dict:
        result = spawn({**self.request, **fields})
        self.children.append((result["start"], result["end"]))
        self.setups.append(result["setup"])
        if result["selftest"]:
            self.problems.append(f"catalogue self-test: {result['selftest']}")
        if result["env_dpv"]:
            self.problems.append(f"child saw {result['env_dpv']}")
        return result

    def execute(self):
        """Set-up probes spread over the run sample the machine at more
        moments than the passes alone."""
        t0 = clock()
        kinds = (False, True) if self.trace else (False,)
        min_rounds = 1 if self.trace else MIN_PASSES
        for _ in range(SETUP_PROBES):
            self._child(workload=None)
        while True:
            for traced in kinds:
                trace_file = None
                if traced:
                    os.makedirs(OUT, exist_ok=True)
                    trace_file = os.path.join(OUT, f"trace-{self.workload}-{self.seed}.jsonl")
                first = not self.untraced and not traced
                res = self._child(trace=traced, check=first, trace_file=trace_file)
                self._check(res)
                (self.traced if traced else self.untraced).append(res)
                self._child(workload=None)
            rounds = len(self.untraced)
            spent = clock() - t0
            if rounds >= min_rounds and spent * (rounds + 1) / rounds > self.seconds:
                break

    # -- correctness --------------------------------------------------------------------

    def _check(self, res: dict):
        outputs = {}
        for rec in res["ops"]:
            if rec["status"] == "failed":
                self.problems.append(f"op {rec['i']}: {rec['error']}")
            outputs[rec["i"]] = (rec["status"], rec.get("basis"), rec.get("nf"), rec.get("dims"))
            golden = self.golden.get(self.keys.get(rec.get("ideal")))
            if golden and rec["status"] == "ok" and "basis" in rec:
                if (rec["basis"], rec["dims"]) != (golden["basis"], golden["dims"]):
                    rec["status"] = "failed"
                    self.problems.append(f"op {rec['i']}: basis or dimensions differ from golden")
        if self.workload == "catalogue":
            for rid, text in res["reports"].items():
                if text != self.golden.get(rid):
                    self.problems.append(f"report {rid} differs from golden")
                    for rec in res["ops"]:
                        if rec["i"].startswith(rid + "/"):
                            rec["status"] = "failed"
            missing = set(self.golden) - set(res["reports"])
            if missing:
                self.problems.append(f"reports missing: {sorted(missing)}")
            outputs["reports"] = res["reports"]
        if self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            self.problems.append("a pass gave other outputs than the first pass")

    # -- metrics --------------------------------------------------------------------------

    def counts(self) -> tuple[int, int, int]:
        recs = [rec for res in self.untraced + self.traced for rec in res["ops"]]
        failed = sum(rec["status"] == "failed" for rec in recs)
        inconclusive = sum(rec["status"] == "inconclusive" for rec in recs)
        return len(recs), failed, inconclusive

    def end_to_end(self) -> tuple[dict, dict]:
        passes = self.untraced
        per_op: dict = {}
        for res in passes:
            for rec in res["ops"]:
                per_op.setdefault(rec["i"], []).append(rec["lat"])
        lat = sorted(statistics.mean(v) for v in per_op.values())
        q = tail_percentile(len(lat))
        attempted, failed, inconclusive = self.counts()
        metrics = {
            "setup_s": statistics.median(self.setups),
            "wall_s": statistics.mean(res["wall"] for res in passes),
            "ops_per_s": statistics.mean(
                sum(rec["status"] == "ok" for rec in res["ops"]) / res["wall"] for res in passes
            ),
            "op_p50_s": statistics.median(lat),
            "op_tail_s": nearest_rank(lat, q),
            "peak_rss_mb": statistics.median(res["rss_mb"] for res in passes),
        }
        info = {
            "passes": len(passes),
            "set-ups": len(self.setups),
            "ops per pass": len(lat),
            "op_tail_s percentile": f"p{q} of {len(lat)} per-op mean times",
            "pass walls": [round(res["wall"], 4) for res in passes],
            "inconclusive_frac": inconclusive / attempted,
            "failed_frac": failed / attempted,
        }
        return metrics, info

    def per_layer(self) -> tuple[dict, dict]:
        chosen = min(self.traced, key=lambda res: res["wall"])
        metrics = dict(chosen["layers"])
        metrics["ring.work_units"] = chosen["work_units"]
        metrics["trace.overhead_s"] = statistics.mean(
            res["wall"] for res in self.traced
        ) - statistics.mean(res["wall"] for res in self.untraced)
        layer_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        info = {
            "traced passes": len(self.traced),
            "self-time sum": f"layers {layer_sum:.6f} s + harness {metrics['trace.harness_s']:.6f} s"
                             f" = traced pass {metrics['trace.pass_s']:.6f} s",
            "untraced work units": self.untraced[0]["work_units"],
        }
        if abs(layer_sum + metrics["trace.harness_s"] - metrics["trace.pass_s"]) > 1e-6:
            self.problems.append("layer self times do not add up to the traced pass")
        return metrics, info


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def report(run: Run, spec: dict) -> dict:
    """Print one workload's metrics by name with unit; return them as
    {name: {"value", "unit"}} in BENCHMARK.json's order."""
    values, info = run.per_layer() if run.trace else run.end_to_end()
    wanted = spec["per_layer"] if run.trace else spec["end_to_end"]
    mode = "traced" if run.trace else "untraced"
    print(f"== {run.workload}  seed {run.seed}  ({mode})")
    out = {}
    for m in wanted:
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:40s} {values[m['name']]:>16.6g} {m['unit']}")
    for k, v in info.items():
        print(f"  {k}: {v}")
    for p in run.problems[:20]:
        print(f"  PROBLEM: {p}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dpv", "__init__.py")):
        print(f"benchmark: no dpv sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    metrics = {}
    attempted = failed = 0
    correct = True
    for name in names:
        run = Run(name, args.seed, seconds, bool(args.trace))
        run.execute()
        got = report(run, spec)
        n, f, _ = run.counts()
        attempted += n
        failed += f
        correct = correct and not run.problems
        if args.workload:
            metrics = got
        else:
            metrics.update({f"{name}.{k}": v for k, v in got.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
