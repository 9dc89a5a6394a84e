"""Smoke test of the benchmark's plumbing on tiny inputs, in seconds.

Run from the root of a checkout: python3 -m pytest -q perfbench/test_smoke.py

Uses the "smoke" sizes of workloads.py (scan(2), weight-2 Macdonald sweep,
tiny KL values) and their references in refs.json.  It checks metric
names and units against BENCHMARK.json, that a wrong reference is counted as
failed operations, and that a directory without the program exits non-zero
without a result line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

SPEC = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _execute(workload, trace):
    args = run.parse_args(
        ["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
    )
    line, record = run.execute(args, size="smoke")
    return line, record


def _units(group):
    return {m["name"]: m["unit"] for m in SPEC[group]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    line, record = _execute(workload, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, record["errors"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert len(record["samples"]["setup_s"]) >= run.MIN_SETUPS
    assert set(record["machine"]) >= {"python", "nproc", "cpu_model", "mem_total_mb", "git_commit"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    line, record = _execute(workload, 1)
    assert line["correct"], record["errors"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _units("per_layer")
    values = {k: v["value"] for k, v in line["metrics"].items()}
    if workload == "macdonald":
        assert values["kl.kl_element.calls"] == 0
        assert values["macdonald.marked_e.calls"] > 0
    else:
        assert values["kl.kl_element.calls"] > 0
    if workload == "scan":
        assert values["cache.put.written"] == values["cache.put.calls"] > 0


def test_wrong_reference_counts_every_operation_as_failed():
    refs = run.load_json(os.path.join(run.HERE, "refs.json"))["smoke"]
    refs["scan"]["outputs"]["csv_sha256"] = "0" * 64
    bench = run.Run("scan", 1, 0.1, "smoke", refs)
    bench.measure(trace=False)
    assert bench.attempted > 0 and bench.failed == bench.attempted
    assert not os.listdir(run.WORK) or all(
        not name.startswith("rep-") for name in os.listdir(run.WORK)
    )


def test_scan_outputs_catch_a_skipped_or_wrong_cache_write(tmp_path):
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import qtkostka as Q
    import workloads

    ref = run.load_json(os.path.join(run.HERE, "refs.json"))["smoke"]["scan"]["outputs"]
    spec = {"size": "smoke", "seed": 1, "workdir": str(tmp_path),
            "cache_dir": str(tmp_path / "cache")}
    prepare, scan, outputs = workloads.WORKLOADS["scan"]
    Q.clear_caches()
    inputs = prepare(Q, spec)
    report = scan(Q, inputs, {})
    assert outputs(Q, inputs, report)[1] == ref
    files = sorted(str(p) for p in (tmp_path / "cache").rglob("*.json"))
    with open(files[0], encoding="utf-8") as fh:
        entry = json.load(fh)
    entry["payload"]["value"] = []
    with open(files[0], "w", encoding="utf-8") as fh:
        json.dump(entry, fh)
    assert outputs(Q, inputs, report)[1]["cache_sha256"] != ref["cache_sha256"]
    os.unlink(files[1])
    assert outputs(Q, inputs, report)[1]["cache_entries"] != ref["cache_entries"]


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for text in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(text)
