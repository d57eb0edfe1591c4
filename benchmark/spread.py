"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmark/spread.py --seeds 1-10 [--workload sweep] [--trace 1] [--json out.json]

For every workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread: the distance
between the quartiles as a share of the median.  With --json it also writes
that summary and every run's result line.  Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json")
    args = ap.parse_args()
    runs = []
    summary = {}
    ok = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        rows = []
        for seed in seed_list(args.seeds):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and proc.returncode == 0 and result["correct"]
            rows.append({"workload": workload, "seed": seed, "exit": proc.returncode,
                         "run_s": time.monotonic() - t0, **result})
            print(f"{workload} seed {seed}: exit {proc.returncode}, {rows[-1]['run_s']:.1f} s",
                  flush=True)
        runs += rows
        print(f"== {workload}")
        summary[workload] = {}
        for name, first in rows[0]["metrics"].items():
            s = summarise([r["metrics"][name]["value"] for r in rows])
            summary[workload][name] = {**s, "unit": first["unit"]}
            print(f"  {name:40s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {first['unit']}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"trace": args.trace, "summary": summary, "runs": runs}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
