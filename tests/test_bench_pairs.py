"""The comparison rule of tools/bench_pairs.py, on made-up runs."""

import importlib.util
import math
from pathlib import Path

import pytest

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


def test_order_balanced_ratio_cancels_a_second_run_penalty():
    """A true change of x0.9 and a x1.14 penalty on whichever side runs
    second: pair i runs the base first when i is even."""
    base = [1.0, 2.0, 1.5, 1.0, 3.0, 2.5]
    head = [b * 0.9 * (1.14 if i % 2 == 0 else 1 / 1.14) for i, b in enumerate(base)]
    ratio = bench_pairs.log_ratios(base, head)
    assert ratio["base_first"] == pytest.approx(math.log(0.9 * 1.14))
    assert ratio["head_first"] == pytest.approx(math.log(0.9 / 1.14))
    assert ratio["balanced"] == pytest.approx(math.log(0.9))
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    assert bench_pairs.compare({"base": _runs(base), "head": _runs(head)}, spec)["wall_s"]["log_ratio"] == ratio


def test_order_balanced_ratio_is_null_on_a_zero_or_a_single_pair():
    empty = {"base_first": None, "head_first": None, "balanced": None}
    assert bench_pairs.log_ratios([1.0, 0.0], [1.0, 1.0]) == empty
    assert bench_pairs.log_ratios([1.0], [0.5]) == empty


def test_tier1_parser_reads_counts_wall_time_and_acceptance_calls():
    output = """\
..........F......
============================= slowest durations ==============================
9.45s call     tests/test_acceptance.py::test_04_example2_certificates
7.77s call     tests/test_acceptance.py::test_03_example1_certificates
0.50s setup    tests/test_acceptance.py::test_03_example1_certificates
2.79s call     tests/test_golden.py::test_report_matches_snapshot[certify_example2]
=========================== short test summary info ============================
FAILED tests/test_cli.py::TestDeterminism::test_entry_point_installed - FileN...
1 failed, 217 passed in 75.12s (0:01:15)
"""
    assert bench_pairs.parse_tier1(output) == {
        "passed": 217, "failed": 1, "wall_s": 75.12,
        "acceptance_03_s": 7.77, "acceptance_04_s": 9.45,
    }


def test_tier1_parser_without_failures_or_acceptance_tests():
    assert bench_pairs.parse_tier1("....\n4 passed in 0.31s\n") == {
        "passed": 4, "failed": 0, "wall_s": 0.31,
        "acceptance_03_s": None, "acceptance_04_s": None,
    }


def test_counts_are_null_without_the_counter(tmp_path):
    package = tmp_path / "src" / "lipfree"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "lp.py").write_text("")
    assert bench_pairs.run_counts(tmp_path) == {"acceptance_03": None, "acceptance_04": None}
