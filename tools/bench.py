"""Record the benchmark of one checkout in BENCH_<pr>.json.

Usage: python3 tools/bench.py --pr N [--root DIR] [--label TEXT]
       python3 tools/bench.py --pr N [--root DIR] --ab PARENT_DIR --workload W
                              [--workload W2 ...] [--pairs K]
       python3 tools/bench.py --inproc W --ab PARENT_DIR [--root DIR] [--pairs K]
                              [--reps R]

For each workload of BENCHMARK.json, runs the perfbench/run.py of the
checkout at DIR (default: this repository) twice, untraced and then traced,
with seed 0 and the run length BENCHMARK.json sets, and then runs the
checkout's Tier-1 tests once (TIER1).  One run record is appended to
BENCH_<N>.json at the root of this repository: the label, the machine as
perfbench reports it, per workload the correctness counts, the end-to-end
medians and the per-layer metrics, and under "tier1" the passed and failed
test counts with the wall time of the test run.  perfbench is run as it is,
in its own checkout; nothing in it is changed.

With --ab, K pairs of untraced runs of each workload W compare the checkout
at PARENT_DIR with the one at DIR; --workload may be given more than once,
and pair k then runs every workload in turn.  Each pair runs both sides with
one seed (pair k uses seed k), and the side that runs first alternates, so a
drift of the machine over minutes falls on both sides alike.  The one A/B
record under "ab" in BENCH_<N>.json is rewritten after every pair: per
workload, each pair's end-to-end medians per side, and per metric the median
of the K ratios change/parent with the number of pairs the change won and a
verdict: gain, worse or unresolved (see verdict).

With --inproc W, K pairs of child processes compare the checkouts at
PARENT_DIR and DIR on workload W in process, pair k with seed k and the side
that runs first alternating.  Each child imports its checkout's src and
perfbench/workloads.py and times the workload's run R times, each after
clear_caches and with a fresh working directory; set-up, start-up and
outputs stay outside the clock.  Per pair and side it prints the min and the
median of the R times, the child's peak RSS (ru_maxrss in MB) after its
first run and before any outputs are built, as perfbench's peak_rss_mb reads
a cold repetition (the outputs of `macdonald` alone triple it), and the
digest of the outputs, then
the median over the pairs of the ratio of the mins, change/parent, with the
pairs the change won, and the median peak RSS of each side.  Nothing is
written.  The min of R reads changes smaller than the spread of perfbench's
cold runs.  The exit code is 1 when the two sides of a pair, or two runs of
one side, give different outputs digests.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 0
# the Tier-1 command of ROADMAP.md, run in the checkout with its src first on PYTHONPATH
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def run_perfbench(root, workload, seconds, trace, seed=SEED):
    """The result line and the machine line of one perfbench run, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit("perfbench %s --trace %d exited %d: %s"
                         % (workload, trace, proc.returncode, proc.stderr[-400:]))
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), None)
    return json.loads(lines[-1]), machine


def tier1(root):
    """passed, failed (errors included) and wall_s of one Tier-1 run of the checkout at root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    counts = {"passed": 0, "failed": 0}
    # pytest's last line, e.g. "1 failed, 250 passed, 1 error in 61.20s"
    for count, word in re.findall(r"(\d+) (passed|failed|error)", lines[-1] if lines else ""):
        counts["passed" if word == "passed" else "failed"] += int(count)
    return dict(counts, wall_s=round(wall, 3))


def values(result):
    return {name: m["value"] for name, m in sorted(result["metrics"].items())}


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(root):
    spec = load_spec(root)
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
    return {"seed": SEED, "seconds": seconds, "machine": machine, "workloads": workloads,
            "tier1": tier1(root)}


def quartiles(xs):
    """Lower quartile, median and upper quartile of xs."""
    if len(xs) < 2:
        return [xs[0]] * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [q1, q2, q3]


def verdict(parent_q, change_q, wins, pairs, lower, bound):
    """gain, worse or unresolved for one metric of an A/B comparison.

    gain: at least ten pairs ran, the change won at least 9/10 of them, and
    its median is better than the parent's by more than the parent's
    interquartile range.
    worse: the change's median is worse than the parent's by more than the
    bound of BENCHMARK.json, as a fraction of the parent's median.
    unresolved: anything else.
    """
    better = parent_q[1] - change_q[1] if lower else change_q[1] - parent_q[1]
    if pairs >= 10 and 10 * wins >= 9 * pairs and better > parent_q[2] - parent_q[0]:
        return "gain"
    if bound is not None and -better > bound * parent_q[1]:
        return "worse"
    return "unresolved"


def ab_summary(pairs, metrics):
    """Per metric: each side's quartiles, the median ratio change/parent,
    the pairs the change won (a tie wins for neither side) and the verdict."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        both = [(p["parent"]["end_to_end"][name], p["change"]["end_to_end"][name])
                for p in pairs if p["parent"]["end_to_end"].get(name)]
        if not both:
            continue
        ratios = [c / a for a, c in both]
        parent_q = quartiles([a for a, _ in both])
        change_q = quartiles([c for _, c in both])
        wins = sum(1 for r in ratios if (r < 1 if lower else r > 1))
        out[name] = {
            "parent_quartiles": parent_q,
            "change_quartiles": change_q,
            "median_ratio": round(statistics.median(ratios), 4),
            "wins": wins,
            "pairs": len(ratios),
            "verdict": verdict(parent_q, change_q, wins, len(ratios), lower, m.get("bound")),
        }
    return out


def ab(parent, change, workloads, pairs, label):
    """Alternate untraced runs of each of workloads on parent and change.

    Yields the A/B record, summaries included, after each pair.
    """
    spec = load_spec(change)
    roots = {"parent": parent, "change": change}
    # the machine line carries each side's src/ digest, which names the checkout
    record = {"label": label, "workloads": list(workloads), "seconds": spec["run_seconds"],
              "machine": {}, "pairs": {w: [] for w in workloads},
              "summary": {w: {} for w in workloads}}
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for workload in workloads:
            pair = {"seed": k, "order": list(order)}
            for side in order:
                result, record["machine"][side] = run_perfbench(roots[side], workload,
                                                                spec["run_seconds"], 0, seed=k)
                pair[side] = {"correct": result["correct"], "attempted": result["attempted"],
                              "failed": result["failed"], "end_to_end": values(result)}
            record["pairs"][workload].append(pair)
            record["summary"][workload] = ab_summary(record["pairs"][workload],
                                                     spec["end_to_end"])
        yield record


# one child of --inproc: argv is root, workload, reps and seed; prints one JSON line
INPROC_CHILD = """
import json, os, resource, sys, tempfile, time
root, workload, reps, seed = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
import qtkostka as Q
import workloads
prepare, run, outputs = workloads.WORKLOADS[workload]
times, digests, rss = [], set(), None
for _ in range(reps):
    with tempfile.TemporaryDirectory() as work:
        spec = {"size": "full", "seed": seed, "workdir": work,
                "cache_dir": os.path.join(work, "cache")}
        inputs = prepare(Q, spec)
        Q.clear_caches()
        t0 = time.perf_counter()
        produced = run(Q, inputs, {})
        times.append(time.perf_counter() - t0)
        if rss is None:
            # the first run's peak, before any outputs are built, as perfbench's child reads it
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        digests.add(workloads.canonical_digest(outputs(Q, inputs, produced)))
print(json.dumps({"times": times, "digests": sorted(digests), "peak_rss_mb": rss}))
"""


def inproc_side(root, workload, reps, seed):
    """min, median, outputs digests and first-run peak RSS (MB) of reps in-process runs at root."""
    cmd = [sys.executable, "-c", INPROC_CHILD, root, workload, str(reps), str(seed)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit("in-process %s at %s exited %d: %s"
                         % (workload, root, proc.returncode, proc.stderr[-400:]))
    out = json.loads(lines[-1])
    return {"min": min(out["times"]), "median": statistics.median(out["times"]),
            "digests": out["digests"], "peak_rss_mb": out["peak_rss_mb"]}


def inproc(parent, change, workload, pairs, reps):
    """Yield one pair {"seed", "order", "parent", "change"} of in-process runs at a time.

    Pair k runs both sides with seed k, the side that runs first alternating.
    """
    roots = {"parent": parent, "change": change}
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {"seed": k, "order": list(order)}
        for side in order:
            pair[side] = inproc_side(roots[side], workload, reps, k)
        yield pair


def main_inproc(args):
    ratios = []
    peaks = {"parent": [], "change": []}
    differ = 0
    for k, pair in enumerate(inproc(os.path.abspath(args.ab), os.path.abspath(args.root),
                                    args.inproc, args.pairs, args.reps), start=1):
        a, c = pair["parent"], pair["change"]
        ratios.append(c["min"] / a["min"])
        peaks["parent"].append(a["peak_rss_mb"])
        peaks["change"].append(c["peak_rss_mb"])
        same = len(a["digests"]) == 1 and a["digests"] == c["digests"]
        differ += not same
        print("pair %d/%d %s: parent min %.4f median %.4f peak %.2f MB, change min %.4f "
              "median %.4f peak %.2f MB, ratio %.3f, outputs %s" % (
                  k, args.pairs, args.inproc, a["min"], a["median"], a["peak_rss_mb"],
                  c["min"], c["median"], c["peak_rss_mb"], ratios[-1],
                  a["digests"][0][:16] if same else "DIFFER"), flush=True)
    wins = sum(1 for r in ratios if r < 1)
    print("%s: %d pairs of %d runs, min ratio change/parent median %.3f, change won %d/%d, "
          "peak RSS median parent %.2f MB change %.2f MB, %s"
          % (args.inproc, len(ratios), args.reps, statistics.median(ratios), wins, len(ratios),
             statistics.median(peaks["parent"]), statistics.median(peaks["change"]),
             "outputs differ in %d pairs" % differ if differ else "same outputs"))
    return 1 if differ else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, help="number of the BENCH file; not used by --inproc")
    ap.add_argument("--root", default=REPO, help="checkout to benchmark (default: this one)")
    ap.add_argument("--label", default="", help="what the checkout is, e.g. parent or change")
    ap.add_argument("--ab", metavar="PARENT_DIR", help="compare against this checkout")
    ap.add_argument("--workload", action="append",
                    help="a workload of an --ab comparison; give it once per workload")
    ap.add_argument("--pairs", type=int, default=10,
                    help="pairs of an --ab or --inproc comparison")
    ap.add_argument("--inproc", metavar="W",
                    help="compare --ab PARENT_DIR with --root in process on workload W")
    ap.add_argument("--reps", type=int, default=7, help="timed runs per side of an --inproc pair")
    args = ap.parse_args(argv)
    if args.inproc:
        if not args.ab or args.pairs < 1 or args.reps < 1:
            ap.error("--inproc needs --ab and at least one pair and one run")
        return main_inproc(args)
    if args.pr is None:
        ap.error("--pr is required")
    if args.ab and (not args.workload or args.pairs < 1):
        ap.error("--ab needs --workload and at least one pair")
    path = os.path.join(REPO, "BENCH_%d.json" % args.pr)
    data = {"pr": args.pr, "runs": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)

    def save():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")

    if args.ab:
        # the record is rewritten after every pair, so a cut run keeps its pairs
        data.setdefault("ab", []).append(None)
        for k, record in enumerate(ab(os.path.abspath(args.ab), os.path.abspath(args.root),
                                      args.workload, args.pairs, args.label), start=1):
            data["ab"][-1] = record
            save()
            for workload, summary in record["summary"].items():
                print("pair %d/%d %s: %s" % (k, args.pairs, workload, " ".join(
                    "%s %.3f (%d/%d, %s)" % (name, s["median_ratio"], s["wins"], s["pairs"],
                                             s["verdict"])
                    for name, s in summary.items())), flush=True)
        bad = sorted({side for runs in record["pairs"].values() for p in runs
                      for side in ("parent", "change")
                      if not p[side]["correct"] or p[side]["failed"]})
        print("%s: %d pairs of %s recorded%s" % (path, k, " ".join(args.workload),
                                                ", incorrect: " + " ".join(bad) if bad else ""))
        return 1 if bad else 0
    record = dict(label=args.label, **bench(os.path.abspath(args.root)))
    data["runs"].append(record)
    save()
    bad = [name for name, w in record["workloads"].items() if not w["correct"]]
    print("%s: %d workloads recorded%s; tier1 %d passed, %d failed in %.1f s"
          % (path, len(record["workloads"]), ", incorrect: " + " ".join(bad) if bad else "",
             record["tier1"]["passed"], record["tier1"]["failed"], record["tier1"]["wall_s"]))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
