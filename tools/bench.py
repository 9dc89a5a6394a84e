"""Record the benchmark of one checkout in BENCH_<pr>.json.

Usage: python3 tools/bench.py --pr N [--root DIR] [--label TEXT]

For each workload of BENCHMARK.json, runs the perfbench/run.py of the
checkout at DIR (default: this repository) twice, untraced and then traced,
with seed 0 and the run length BENCHMARK.json sets.  One run record is
appended to BENCH_<N>.json at the root of this repository: the label, the
machine as perfbench reports it, and per workload the correctness counts,
the end-to-end medians and the per-layer metrics.  perfbench is run as it
is, in its own checkout; nothing in it is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 0


def run_perfbench(root, workload, seconds, trace):
    """The result line and the machine line of one perfbench run, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit("perfbench %s --trace %d exited %d: %s"
                         % (workload, trace, proc.returncode, proc.stderr[-400:]))
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), None)
    return json.loads(lines[-1]), machine


def values(result):
    return {name: m["value"] for name, m in sorted(result["metrics"].items())}


def bench(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    machine = None
    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        plain, machine = run_perfbench(root, name, seconds, 0)
        traced, _ = run_perfbench(root, name, seconds, 1)
        workloads[name] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "end_to_end": values(plain),
            "per_layer": values(traced),
        }
    return {"seed": SEED, "seconds": seconds, "machine": machine, "workloads": workloads}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="number of the BENCH file")
    ap.add_argument("--root", default=REPO, help="checkout to benchmark (default: this one)")
    ap.add_argument("--label", default="", help="what the checkout is, e.g. parent or change")
    args = ap.parse_args(argv)
    record = dict(label=args.label, **bench(os.path.abspath(args.root)))
    path = os.path.join(REPO, "BENCH_%d.json" % args.pr)
    data = {"pr": args.pr, "runs": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    data["runs"].append(record)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    bad = [name for name, w in record["workloads"].items() if not w["correct"]]
    print("%s: %d workloads recorded%s" % (path, len(record["workloads"]),
                                            ", incorrect: " + " ".join(bad) if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
