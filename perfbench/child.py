"""One cold repetition of a workload, in its own process.

Usage: python3 perfbench/child.py '<json spec>'

The spec names the checkout root, the workload, the role ("measure" or
"probe"), the seed, the size, the working directories and whether to
trace.  The child imports qtkostka from <root>/src, runs the workload's
set-up, then (unless it is a probe) the timed region, and prints one JSON
line as the last line of its standard output.  It exits with code 3 when
qtkostka cannot be imported, so the parent can tell a missing program from
a failing one.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main():
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    try:
        import qtkostka as Q
    except ImportError:
        traceback.print_exc()
        return 3
    if not os.path.abspath(Q.__file__).startswith(src + os.sep):
        print("qtkostka imported from %s, not from this checkout" % Q.__file__, file=sys.stderr)
        return 3
    import workloads

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    prepare, run, outputs = workloads.WORKLOADS[spec["workload"]]
    inputs = prepare(Q, spec)
    result = {"ready": time.monotonic()}
    if spec["role"] != "probe":
        parts = {}
        try:
            cpu0 = _cpu()
            t0 = time.perf_counter()
            produced = run(Q, inputs, parts)
            result["wall_s"] = time.perf_counter() - t0
            result["cpu_s"] = _cpu() - cpu0
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["ops"], result["outputs"] = outputs(Q, inputs, produced)
        except Exception as exc:  # reported as a failed repetition, not a crash
            traceback.print_exc()
            result["error"] = "%s: %s" % (type(exc).__name__, exc)
        result["parts"] = parts
        if tracer is not None:
            layers = tracer.metrics()
            layers["cache.disk_bytes"] = workloads.dir_bytes(spec["cache_dir"])
            result["layers"] = layers
            tracer.write_spans(spec["spans_path"])
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
