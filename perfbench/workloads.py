"""The benchmark workloads, as run inside one fresh child process each.

Every workload has a `prepare` step (input generation, counted as set-up) and
a `run` step (the timed region).  `run` returns the objects it produced;
`outputs` turns them into the JSON that the parent checks against refs.json,
outside the timed region.

Sizes are chosen so that a repetition takes a few seconds and one run holds
ten or more of them (see README.md): the KL values and the scan use weight 3
to 4, and the Macdonald sweep uses weight 4 with length <= 3.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time

SIZES = {
    # "smoke" sizes are for test_smoke.py only
    "full": {
        "kl": (((3, 1), (2, 2)), ((3, 1), (2, 1, 1))),
        "scan": (3, 3),
        "mac_weight": 4,
        "mac_len": 3,
        "mono_weight": 3,
    },
    "smoke": {
        "kl": (((1, 1), (1, 1)), ((2, 1), (2, 1))),
        "scan": (2, 2),
        "mac_weight": 2,
        "mac_len": 2,
        "mono_weight": 1,
    },
}


def canonical_digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def dir_bytes(path):
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


# -- kl: two weight-4 values and the marked refinements of the second, cold ---


def prepare_kl(Q, spec):
    small, large = SIZES[spec["size"]]["kl"]
    return {"small": small, "large": large, "markings": list(Q.all_markings(large[1]))}


def run_kl(Q, inputs, parts):
    lam, mu = inputs["small"]
    Q.clear_caches()
    t0 = time.perf_counter()
    small = Q.kostka(lam, mu).value
    parts["small_s"] = time.perf_counter() - t0
    lam, mu = inputs["large"]
    Q.clear_caches()
    t0 = time.perf_counter()
    large = Q.kostka(lam, mu).value
    rows = [(d, Q.marked_kostka(lam, d)) for d in inputs["markings"]]
    parts["large_s"] = time.perf_counter() - t0
    return small, large, rows


def outputs_kl(Q, inputs, produced):
    small, large, rows = produced
    return 2 + len(rows), {
        "small": small.to_json(),
        "large": large.to_json(),
        "marked": {Q.format_marked(d): v.to_json() for d, v in rows},
    }


# -- scan: the user-facing sweep into a fresh disk cache ------------------------


def prepare_scan(Q, spec):
    return {"args": SIZES[spec["size"]]["scan"], "cache_dir": spec["cache_dir"],
            "csv": os.path.join(spec["workdir"], "pairs.csv")}


def run_scan(Q, inputs, parts):
    max_weight, max_len = inputs["args"]
    report = Q.scan(max_weight, max_len=max_len, cache_dir=inputs["cache_dir"],
                    csv_path=inputs["csv"])
    for phase, secs in report.get("timings", {}).items():
        if phase != "total":
            parts["kostka.scan.%s_s" % phase] = secs
    return report


def cache_entries(cache_dir):
    """Every (kind, key, payload) stored under cache_dir, sorted.

    Read back from the files the scan wrote, so a skipped or wrong write
    shows; file names and format fields are left out of the comparison.
    """
    entries = []
    for dirpath, _, files in os.walk(cache_dir):
        for name in files:
            with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                data = json.load(fh)
            entries.append([data["kind"], data["key"], data["payload"]])
    return sorted(entries, key=lambda e: json.dumps(e, sort_keys=True))


def outputs_scan(Q, inputs, report):
    summary = {k: v for k, v in report.items() if k != "timings"}
    entries = cache_entries(inputs["cache_dir"])
    return report["pairs"], {
        "report": summary,
        "csv_sha256": file_digest(inputs["csv"]),
        "cache_entries": len(entries),
        "cache_sha256": canonical_digest(entries),
    }


# -- macdonald: E~, marked E~ and m-symmetric expansions, no KL at all ---------


def prepare_macdonald(Q, spec):
    size = SIZES[spec["size"]]
    items = []
    for mu in Q.compositions_of(size["mac_weight"], size["mac_len"]):
        items.append(("e", mu, None))
        items.extend(("marked", mu, d) for d in Q.all_markings(mu))
    mono_rank = size["mono_weight"] + 1
    items.extend(("mono", mu, None) for mu in Q.compositions_of(size["mono_weight"], mono_rank))
    random.Random(spec["seed"]).shuffle(items)
    return {"items": items, "extra_rank": size["mac_weight"] + 1, "mono_rank": mono_rank}


def run_macdonald(Q, inputs, parts):
    produced = []
    for kind, mu, d in inputs["items"]:
        if kind == "mono":
            produced.append((kind, mu, d, Q.e_monomial(mu, inputs["mono_rank"]), None))
            continue
        m = len(mu)
        n = m + inputs["extra_rank"]
        el = Q.e_tilde(mu, n).element if kind == "e" else Q.marked_e(d, n)
        produced.append((kind, mu, d, el, Q.msym_expand(el, m)))
    return produced


def outputs_macdonald(Q, inputs, produced):
    table = {}
    ops = 0
    for kind, mu, d, el, exp in produced:
        key = "%s %s" % (kind, Q.format_marked(d) if d is not None else Q.format_composition(mu))
        entry = {"element": el.to_json()}
        ops += 1
        if exp is not None:
            entry["expansion"] = sorted(
                [Q.format_composition(rep), c.to_json()] for rep, c in exp.terms.items()
            )
            ops += 1
        table[key] = entry
    return ops, {"items": len(table), "sha256": canonical_digest(table)}


WORKLOADS = {
    "kl": (prepare_kl, run_kl, outputs_kl),
    "scan": (prepare_scan, run_scan, outputs_scan),
    "macdonald": (prepare_macdonald, run_macdonald, outputs_macdonald),
}
