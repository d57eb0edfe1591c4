"""Write the golden outputs the benchmark checks against.

    python3 benchmark/make_golden.py

Run it at the commit whose outputs are to be trusted.  It runs one untraced
pass of each workload with every invariant check on (S-pair closure included)
and stores the catalogue's report bytes, and the basis digest and
dimensions of every ideal the pass decided, keyed by a hash of the ideal's
text.  It refuses to write anything if a check fails.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import inputs  # noqa: E402
from run import GOLDEN, ideal_key, spawn  # noqa: E402


def main() -> int:
    os.makedirs(os.path.join(GOLDEN, "catalogue"), exist_ok=True)
    res = spawn({"workload": "catalogue", "ops": [], "trace": False, "check": True, "full_check": []})
    bad = [rec["error"] for rec in res["ops"] if rec["status"] != "ok"]
    if bad:
        print("catalogue checks did not all pass:", bad, file=sys.stderr)
        return 1
    for rid, text in res["reports"].items():
        with open(os.path.join(GOLDEN, "catalogue", f"{rid}.json"), "w") as fh:
            fh.write(text)
    for workload in ("sweep", "fp-ideals"):
        request = inputs.make_inputs(workload, 0)
        specs = {spec["pool_index"]: spec for spec in request["ops"]}
        request.update(trace=False, check=True, full_check=sorted(specs))
        res = spawn(request)
        failed = [rec for rec in res["ops"] if rec["status"] == "failed"]
        if failed:
            print(f"{workload}: checks failed:", failed[:5], file=sys.stderr)
            return 1
        golden = {
            ideal_key(specs[rec["i"]]): {"basis": rec["basis"], "dims": rec["dims"]}
            for rec in res["ops"]
            if rec["status"] == "ok"
        }
        with open(os.path.join(GOLDEN, f"{workload}.json"), "w") as fh:
            json.dump(dict(sorted(golden.items())), fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(golden)} of {len(specs)} ideals decided")
    return 0


if __name__ == "__main__":
    sys.exit(main())
