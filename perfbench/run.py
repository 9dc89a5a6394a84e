"""qtkostka benchmark: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition of a workload runs cold
in a fresh single-threaded child process (perfbench/child.py) that imports
qtkostka from ./src; nothing is installed or built.  The parent times the
set-up, collects the child's figures, checks every output exactly against
perfbench/refs.json and prints, as the last line of standard output, one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics, taken from one extra traced repetition.

Workloads (README.md gives the reasons):
  kl         K(31;22), then K(31;211) with its marked refinements, cold
  scan       scan(3) against a fresh empty cache directory
  macdonald  E~, marked E~ and m-symmetric expansions of weight 4; no KL

Temporary cache directories live under ./.perfbench and are removed after
each repetition; a record of each run, with machine information, is kept in
./.perfbench/results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")

MIN_SETUPS = 3  # set-up samples per run; probes top up workloads with fewer reps
DEADLINE_S = 170.0  # a run must end within 180 s


class MissingProgram(Exception):
    """qtkostka cannot be imported from this checkout."""


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def median(values):
    return statistics.median(values) if values else 0.0


class Run:
    def __init__(self, workload, seed, seconds, size="full", refs=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.refs = refs
        self.start = time.monotonic()
        self.measured = []  # child results of timed untraced repetitions
        self.setups = []
        self.traced = None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    # -- children ---------------------------------------------------------------

    def spawn(self, role, workdir, trace=False):
        spec = {
            "root": ROOT,
            "workload": self.workload,
            "role": role,
            "seed": self.seed,
            "size": self.size,
            "trace": trace,
            "workdir": workdir,
            "cache_dir": os.path.join(workdir, "cache"),
            "spans_path": os.path.join(WORK, "spans", "%s.jsonl" % self.workload),
        }
        env = dict(os.environ, PYTHONHASHSEED="0")
        timeout = max(5.0, DEADLINE_S - (time.monotonic() - self.start))
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, json.dumps(spec)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.errors.append("%s child timed out after %.0f s" % (role, timeout))
            return None, t_spawn
        if proc.returncode == 3:
            raise MissingProgram(proc.stderr.strip().splitlines()[-1:])
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.errors.append("%s child exited %d: %s" % (role, proc.returncode, proc.stderr[-400:]))
            return None, t_spawn
        return json.loads(lines[-1]), t_spawn

    def _check(self, role, result):
        """Count the child's operations and whether its outputs match refs.json."""
        ref = self.refs[self.workload]
        self.attempted += ref["ops"]
        ok = (
            result is not None
            and "error" not in result
            and result.get("ops") == ref["ops"]
            and result.get("outputs") == ref["outputs"]
        )
        if not ok:
            self.failed += ref["ops"]
            reason = "outputs differ from refs.json"
            if result is None:
                reason = "no result"
            elif "error" in result:
                reason = result["error"]
            self.errors.append("%s: %s" % (role, reason))
        return ok

    def _repetition(self, role, trace=False):
        """One child in a fresh working directory, removed afterwards."""
        os.makedirs(WORK, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="rep-", dir=WORK)
        try:
            result, t_spawn = self.spawn(role, workdir, trace)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if result is not None:
            self.setups.append(result["ready"] - t_spawn)
        if role == "probe":
            return
        ok = self._check("traced" if trace else role, result)
        if trace:
            self.traced = result
        elif ok:
            self.measured.append(result)

    def measure(self, trace):
        # stop before a repetition that would likely overrun the budget
        while not self.failed and (
            not self.measured
            or time.monotonic() - self.start + self.end_to_end()["wall_s"] < self.seconds
        ):
            self._repetition("measure")
        for _ in range(MIN_SETUPS - len(self.setups)):
            self._repetition("probe")
        if trace:
            self._repetition("measure", trace=True)

    # -- metrics ----------------------------------------------------------------

    def end_to_end(self):
        ms = self.measured
        return {
            "wall_s": median([r["wall_s"] for r in ms]),
            "cpu_s": median([r["cpu_s"] for r in ms]),
            "setup_s": median(self.setups),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in ms]),
        }

    def per_layer(self, names):
        traced = self.traced or {}
        out = dict.fromkeys(names, 0)
        for source in (traced.get("layers", {}), traced.get("parts", {})):
            out.update((k, v) for k, v in source.items() if k in out)
        if "wall_s" in traced:
            out["trace.overhead_s"] = traced["wall_s"] - self.end_to_end()["wall_s"]
        return out


# -- machine information ------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    """HEAD's commit from .git, following a loose or a packed ref; None if unknown."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def _src_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def machine_info():
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# -- entry point ----------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["kl", "scan", "macdonald"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def execute(args, size="full"):
    """Run one benchmark invocation and return (result line dict, record dict)."""
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if not os.path.isfile(os.path.join(ROOT, "src", "qtkostka", "__init__.py")):
        raise MissingProgram("no src/qtkostka in %s" % ROOT)
    refs = load_json(os.path.join(HERE, "refs.json"))[size]
    run = Run(args.workload, args.seed, args.seconds, size, refs)
    run.measure(bool(args.trace))
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = (
        run.per_layer([m["name"] for m in group]) if args.trace else run.end_to_end()
    )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group}
    line = {
        "correct": run.failed == 0 and not run.errors,
        "attempted": run.attempted,
        # a failed operation fails every operation of the run
        "failed": run.attempted if run.failed else 0,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "samples": {
            "wall_s": [r["wall_s"] for r in run.measured],
            "cpu_s": [r["cpu_s"] for r in run.measured],
            "peak_rss_mb": [r["peak_rss_mb"] for r in run.measured],
            "setup_s": run.setups,
            "parts": [r.get("parts", {}) for r in run.measured],
        },
        "errors": run.errors,
        "result": line,
    }
    return line, record


def main(argv=None):
    args = parse_args(argv)
    try:
        line, record = execute(args)
    except MissingProgram as exc:
        print("perfbench: qtkostka is not available here: %s" % (exc,), file=sys.stderr)
        return 2
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for err in record["errors"]:
        print("error: %s" % err.strip().replace("\n", " | "))
    samples = record["samples"]
    print("workload=%s seed=%d reps=%d setups=%d ops_failed_frac=%d/%d"
          % (args.workload, args.seed, len(samples["wall_s"]), len(samples["setup_s"]),
             line["failed"], line["attempted"]))
    for parts in samples["parts"]:
        if parts:
            print("parts " + " ".join("%s=%.4f" % kv for kv in sorted(parts.items())))
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
