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
