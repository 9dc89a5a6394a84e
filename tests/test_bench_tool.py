"""The A/B summary of tools/bench.py."""

import importlib.util
import pathlib

PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench.py"
spec = importlib.util.spec_from_file_location("bench_tool", PATH)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def _pair(parent, change):
    return {"parent": {"end_to_end": parent}, "change": {"end_to_end": change}}


def test_ab_summary_counts_wins_by_direction_and_ties_for_neither():
    metrics = [{"name": "wall_s", "better": "lower"}, {"name": "hits", "better": "higher"}]
    pairs = [
        _pair({"wall_s": 1.0, "hits": 4}, {"wall_s": 0.8, "hits": 4}),
        _pair({"wall_s": 2.0, "hits": 4}, {"wall_s": 2.0, "hits": 5}),
        _pair({"wall_s": 1.0, "hits": 4}, {"wall_s": 1.2, "hits": 2}),
    ]
    out = bench.ab_summary(pairs, metrics)
    assert out["wall_s"] == {"parent_quartiles": [1.0, 1.0, 1.5],
                             "change_quartiles": [1.0, 1.2, 1.6],
                             "median_ratio": 1.0, "wins": 1, "pairs": 3,
                             "verdict": "unresolved"}
    assert out["hits"]["wins"] == 1 and out["hits"]["median_ratio"] == 1.0


def test_ab_runs_every_workload_in_each_pair_and_alternates_the_sides(monkeypatch):
    runs = []

    def fake_run(root, workload, seconds, trace, seed=0):
        runs.append((root, workload, seed))
        wall = 1.0 if root == "parent" else 0.9
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"wall_s": {"value": wall}}}
        return result, {"root": root}

    monkeypatch.setattr(bench, "run_perfbench", fake_run)
    monkeypatch.setattr(bench, "load_spec", lambda root: {
        "run_seconds": 1, "end_to_end": [{"name": "wall_s", "better": "lower"}]})
    records = list(bench.ab("parent", "change", ["macdonald", "kl"], 2, "x"))
    assert len(records) == 2
    record = records[-1]
    assert runs == [("parent", "macdonald", 0), ("change", "macdonald", 0),
                    ("parent", "kl", 0), ("change", "kl", 0),
                    ("change", "macdonald", 1), ("parent", "macdonald", 1),
                    ("change", "kl", 1), ("parent", "kl", 1)]
    assert record["workloads"] == ["macdonald", "kl"]
    for workload in ("macdonald", "kl"):
        assert [p["order"] for p in record["pairs"][workload]] == [
            ["parent", "change"], ["change", "parent"]]
        summary = record["summary"][workload]["wall_s"]
        assert summary["wins"] == 2 and summary["median_ratio"] == 0.9


def _pairs(parent, change):
    return [_pair({"x": a}, {"x": c}) for a, c in zip(parent, change)]


def test_ab_summary_verdicts():
    lower = [{"name": "x", "better": "lower", "bound": 0.25}]
    higher = [{"name": "x", "better": "higher", "bound": 0.25}]
    parent = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0]

    def verdict(change, metrics=lower, base=parent):
        return bench.ab_summary(_pairs(base, change), metrics)["x"]["verdict"]

    # 10/10 won, medians 0.3 apart against a parent IQR of 0.05
    assert verdict([0.7] * 10) == "gain"
    # 9/10 won is enough; 8/10 is not
    assert verdict([0.7] * 9 + [1.2]) == "gain"
    assert verdict([0.7] * 8 + [1.2] * 2) == "unresolved"
    # fewer than ten pairs never make a gain
    assert bench.ab_summary(_pairs(parent[:5], [0.7] * 5), lower)["x"]["verdict"] == "unresolved"
    # every pair won, but by less than the parent's own spread
    assert verdict([x - 0.01 for x in parent]) == "unresolved"
    # worse beyond the bound, and within it
    assert verdict([1.3] * 10) == "worse"
    assert verdict([1.2] * 10) == "unresolved"
    # the direction follows the metric
    assert verdict([1.3] * 10, higher) == "gain"
    assert verdict([0.7] * 10, higher) == "worse"
    # no bound: never worse
    assert verdict([2.0] * 10, [{"name": "x", "better": "lower"}]) == "unresolved"


def test_tier1_runs_the_tier1_command_in_the_checkout_and_reads_its_counts(monkeypatch):
    calls = []

    def fake_run(cmd, cwd, env, **kwargs):
        calls.append((cmd, cwd, env["PYTHONPATH"]))
        out = "....F.E\n=== short test summary info ===\n2 failed, 250 passed, 1 error in 61.20s\n"
        return bench.subprocess.CompletedProcess(cmd, 1, stdout=out, stderr="")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONPATH", "extra")
    out = bench.tier1("checkout")
    assert calls == [(bench.TIER1, "checkout", "src" + bench.os.pathsep + "extra")]
    assert bench.TIER1[1:] == ["-m", "pytest", "-q", "--continue-on-collection-errors"]
    assert out["passed"] == 250 and out["failed"] == 3 and out["wall_s"] >= 0


def test_bench_stores_one_tier1_run_in_its_record(monkeypatch):
    tier1_runs = []

    def fake_perfbench(root, workload, seconds, trace, seed=0):
        result = {"correct": True, "attempted": 2, "failed": 0,
                  "metrics": {"wall_s": {"value": 1.0}}}
        return result, {"cpu": "x"}

    def fake_run(cmd, cwd, env, **kwargs):
        tier1_runs.append(cwd)
        return bench.subprocess.CompletedProcess(cmd, 0, stdout="....\n4 passed in 0.50s\n")

    monkeypatch.setattr(bench, "run_perfbench", fake_perfbench)
    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    monkeypatch.setattr(bench, "load_spec", lambda root: {
        "run_seconds": 1, "workloads": [{"name": "kl"}, {"name": "scan"}]})
    record = bench.bench("checkout")
    assert tier1_runs == ["checkout"]
    assert record["tier1"]["passed"] == 4 and record["tier1"]["failed"] == 0
    assert sorted(record["workloads"]) == ["kl", "scan"]


def test_inproc_alternates_child_processes_and_reads_min_median_and_digest(monkeypatch, capsys):
    calls = []

    def fake_run(cmd, cwd, **kwargs):
        calls.append((cwd, cmd[-3:]))
        assert cmd[:3] == [bench.sys.executable, "-c", bench.INPROC_CHILD] and cmd[3] == cwd
        times = [0.2, 0.1, 0.3] if cwd == "/parent" else [0.09, 0.08, 0.1]
        out = 'noise\n{"times": %s, "digests": ["abc"]}\n' % times
        return bench.subprocess.CompletedProcess(cmd, 0, stdout=out, stderr="")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    pairs = list(bench.inproc("/parent", "/change", "macdonald", 2, 3))
    assert [p["order"] for p in pairs] == [["parent", "change"], ["change", "parent"]]
    assert pairs[0]["parent"] == {"min": 0.1, "median": 0.2, "digests": ["abc"]}
    assert pairs[1]["change"] == {"min": 0.08, "median": 0.09, "digests": ["abc"]}
    assert calls == [("/parent", ["macdonald", "3", "0"]), ("/change", ["macdonald", "3", "0"]),
                     ("/change", ["macdonald", "3", "1"]), ("/parent", ["macdonald", "3", "1"])]
    calls.clear()
    assert bench.main(["--inproc", "macdonald", "--ab", "/parent", "--root", "/change",
                       "--pairs", "2", "--reps", "3"]) == 0
    assert len(calls) == 4
    out = capsys.readouterr().out
    assert "ratio 0.800, outputs abc" in out
    assert "median 0.800, change won 2/2, same outputs" in out


def test_inproc_fails_when_the_outputs_differ(monkeypatch, capsys):
    def fake_run(cmd, cwd, **kwargs):
        out = '{"times": [0.1], "digests": ["%s"]}\n' % ("a" if cwd == "/parent" else "b")
        return bench.subprocess.CompletedProcess(cmd, 0, stdout=out, stderr="")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    assert bench.main(["--inproc", "kl", "--ab", "/parent", "--root", "/change",
                       "--pairs", "1", "--reps", "1"]) == 1
    assert "outputs DIFFER" in capsys.readouterr().out
