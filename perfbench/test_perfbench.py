"""Tests of the benchmark itself: python -m pytest perfbench"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_emitted_metric_names_match_spec(trace, key):
    proc = _run_bench(ROOT, "--workload", "norms", "--seed", "3", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == spec


def test_spec_names_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


def _inputs(workload: str, seed: int, workdir: Path):
    workdir.mkdir(parents=True)
    inputs = workloads.make_inputs(workload, seed, 2, str(workdir))
    argv = [tuple(a.replace(str(workdir), "<dir>") for a in op.argv) for op in inputs.ops]
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return argv, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_inputs(workload, tmp_path):
    first = _inputs(workload, 7, tmp_path / "a")
    assert first == _inputs(workload, 7, tmp_path / "b")
    assert first != _inputs(workload, 8, tmp_path / "c")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_input_repeats_within_a_pass(workload, tmp_path):
    argv, _ = _inputs(workload, 5, tmp_path / "a")
    assert len(set(argv)) == len(argv)


def test_norms_mix_is_fixed(tmp_path):
    (tmp_path / "a").mkdir()
    ops = workloads.make_inputs("norms", 11, 3, str(tmp_path / "a")).ops
    assert sum(not op.small for op in ops) * 4 == len(ops)
    assert sum(op.kind == "dist" for op in ops) * 4 == len(ops)


def _attributes() -> dict:
    seen = {}
    for name in ("lipfree", *(f"lipfree.{layer}" for layer in LAYERS)):
        mod = importlib.import_module(name)
        for key, value in vars(mod).items():
            seen[(name, key)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for attr, raw in vars(value).items():
                    seen[(name, key, attr)] = raw
    return seen


def test_tracer_restores_every_attribute(tmp_path):
    import lipfree.cli as cli
    import lipfree.free as free

    original = free.free_norm
    before = _attributes()
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"labels": ["a", "b", "c"], "base": 0, "d": [["0", "1", "2"], ["1", "0", "2"], ["2", "2", "0"]]}))
    element = tmp_path / "mu.json"
    element.write_text(json.dumps({"weights": {"b": "1", "c": "-1/2"}}))
    with Tracer() as tracer:
        assert cli.free_norm is not original  # rebound where it was imported
        assert cli.free_norm.__wrapped__ is original
        assert cli.main(["freenorm", str(element), "--space", str(space), "--out", str(tmp_path / "o.json")]) == 0
    after = _attributes()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    names = {s[3] for s in tracer.spans}
    assert {"cli.main", "free.free_norm", "lp.simplex_standard", "metric.FiniteMetricSpace.from_json"} <= names
    assert tracer.counts["scalars.rat"] > 0
    assert all(s[1] < s[0] for s in tracer.spans)  # parents open before their children


def test_norm_oracle_agrees_with_exact_value():
    d = workloads.example1_matrix(6)
    net = {1: 1, 4: -2}
    from lipfree.free import FreeElement, free_norm
    from lipfree.metric import FiniteMetricSpace

    exact = free_norm(FreeElement.make(FiniteMetricSpace.from_matrix(d), net)).value
    assert checks.norm_matches(str(exact), d, net)
    assert not checks.norm_matches(str(exact * (1 + 10**-6)), d, net)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "norms", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
