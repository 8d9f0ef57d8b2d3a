"""The comparison rule of tools/bench_pairs.py, on made-up runs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _runs(values):
    return [{"metrics": {"wall_s": {"value": v}, "ops_per_s": {"value": 1 / v}}} for v in values]


def test_pair_wins_follow_the_metric_direction_and_ties_count_for_neither():
    spec = {"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ]}
    base, head = [1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 2.0, 5.0, 1.0]
    out = bench_pairs.compare({"base": _runs(base), "head": _runs(head)}, spec)
    assert out["wall_s"]["head_wins"] == 3 and out["ops_per_s"]["head_wins"] == 3
    assert out["wall_s"]["pairs"] == 5
    assert (out["wall_s"]["base"]["q1"], out["wall_s"]["base"]["median"], out["wall_s"]["base"]["q3"]) == (2, 3, 4)
    assert out["wall_s"]["base_iqr"] == 2
    assert out["wall_s"]["median_change"] == (2.0 - 3.0) / 3.0
