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
                             "median_ratio": 1.0, "wins": 1, "pairs": 3}
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
