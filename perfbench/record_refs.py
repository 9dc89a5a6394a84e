"""Record perfbench/refs.json from the code in ./src.

Usage, from the root of a checkout: python3 perfbench/record_refs.py

Runs each workload once, cold, at the full and the smoke size and
stores its operation count and outputs.  The stored references were recorded
at the commit that introduced the benchmark; re-record only when a change is
meant to alter outputs, and say so in CHANGES.md.  A scan with violations is
refused, so a reference never certifies a broken sweep.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from run import HERE, WORK, Run
from workloads import WORKLOADS


def main():
    refs = {}
    os.makedirs(WORK, exist_ok=True)
    for size in ("full", "smoke"):
        refs[size] = {}
        for workload in WORKLOADS:
            workdir = tempfile.mkdtemp(prefix="refs-", dir=WORK)
            try:
                result, _ = Run(workload, 0, 0, size).spawn("measure", workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if result is None or "error" in result:
                print("%s/%s failed: %r" % (size, workload, result), file=sys.stderr)
                return 1
            if workload == "scan" and result["outputs"]["report"]["violations"]:
                print("%s scan has violations; not recorded" % size, file=sys.stderr)
                return 1
            refs[size][workload] = {"ops": result["ops"], "outputs": result["outputs"]}
            print("%s/%s: %d ops, %.2f s" % (size, workload, result["ops"], result["wall_s"]))
    with open(os.path.join(HERE, "refs.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
