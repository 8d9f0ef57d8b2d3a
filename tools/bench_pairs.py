"""Paired benchmark of two commits: the end-to-end metrics of every workload
and one traced run per side, written to one BENCH_*.json file.

    python3 tools/bench_pairs.py BENCH_7.json --base HEAD~1 --first-seed 21

Each side is exported with ``git archive`` into its own temporary directory
and ``perfbench/run.py`` runs there, from the committed files alone: the
base (``--base``, default ``HEAD~1``) and the head (``HEAD``). The workloads
and the run length are those ``BENCHMARK.json`` fixes. On every workload,
pair i of ten runs both sides on seed ``first_seed + i`` with ``--trace 0``,
the base first when i is even and the head first when i is odd; then each
side makes one ``--trace 1`` run on ``first_seed``. Per workload and
metric the file holds each side's runs, median and quartiles, the number of
pairs the head wins (strictly better in the direction ``BENCHMARK.json``
gives; ties count for neither side) and the order-balanced change: the mean
log ratio head/base over the base-first pairs, the same over the head-first
pairs, and their average, which cancels a constant penalty for running
second. Per side it holds the traced per-layer figures.

Before the workloads, the sides run their tier-1 suites twice in ABBA order
(base, head, head, base), so that neither side always runs first; the file
holds both runs of each side, each with its passed and failed counts, its
wall time and the call times of acceptance 03 and 04. It also holds the
exact-solve counts (``lipfree.lp.COUNTS``: simplex solves, their pivots and
Bland fallbacks, and the pair programs answered as shortest paths) of one
in-process run at the parameters of acceptance 03, 04, 05, 06 and 09, of
``certify two-anchor --N 12`` and of two norms on a seeded 20-point closure
loaded from JSON; a side whose ``lp`` has no counts records null. Each of
these runs but 03 and 04 also records ``calls`` (Python and builtin calls
under ``sys.setprofile``) and ``fractions`` (``Fraction`` constructions),
counts that, unlike times, do not depend on the machine.
The stamp names the machine, Python, the scalar backend and both commits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")
PAIRS = 10
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=0", "-p", "no:cacheprovider"]
ACCEPTANCE = {
    "acceptance_03_s": "tests/test_acceptance.py::test_03_example1_certificates",
    "acceptance_04_s": "tests/test_acceptance.py::test_04_example2_certificates",
}

# the runs of tests/test_acceptance.py's acceptance 03, 04, 05, 06 and 09
# (its separated-annuli battery), of certify two-anchor --N 12 and of a norms
# query pair (norms_20: load and validate the JSON of a seeded 20-point
# shortest-path closure, then read the norms of a full-support element and
# of a 3-point one, as a bare freenorm does); prints one JSON object of the
# COUNTS each run adds, or null per run. Every run but 03 and 04,
# which the hook would slow too much, also counts under sys.setprofile its
# Python and builtin calls ("call" and "c_call" events) and its Fraction
# constructions ("call" events of Fraction.__new__)
COUNTS_SCRIPT = """
import json
import random
import sys
from fractions import Fraction
from lipfree import lp
counts = getattr(lp, "COUNTS", None)
out = dict.fromkeys(
    ("acceptance_03", "acceptance_04", "acceptance_05", "acceptance_06", "acceptance_09", "two_anchor_12",
     "norms_20")
)
PROFILED = {"acceptance_05", "acceptance_06", "acceptance_09", "two_anchor_12", "norms_20"}
FRACTION_NEW = Fraction.__new__.__code__


def profiled(run):
    seen = {"calls": 0, "fractions": 0}

    def hook(frame, event, arg):
        if event == "call":
            seen["calls"] += 1
            if frame.f_code is FRACTION_NEW:
                seen["fractions"] += 1
        elif event == "c_call":
            seen["calls"] += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def closure_json(n, seed):
    # the JSON texts of a shortest-path closure of random weights on n points,
    # of an element on every non-base point and of one on three
    rng = random.Random(seed)
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, 20)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    labels = [f"p{i}" for i in range(n)]
    space = {"labels": labels, "base": 0, "d": [[str(x) for x in row] for row in d]}
    elements = [
        {"weights": {lbl: f"{rng.randint(-5, 5) or 1}/{rng.randint(1, 4)}" for lbl in support}}
        for support in (labels[1:], rng.sample(labels[1:], 3))
    ]
    return json.dumps(space), [json.dumps(e) for e in elements]


def norms(text, elements):
    from lipfree import free, metric
    space = metric.FiniteMetricSpace.from_json(json.loads(text))
    if not metric.validate(space).ok:
        raise RuntimeError("the norms_20 space is not a metric")
    return [free.free_norm(free.FreeElement.from_json(json.loads(e), space)).value for e in elements]


if counts is not None:
    from lipfree import diametral, metric, reproduce
    asp = metric.build_annuli_space(3)
    norms_input = closure_json(20, 20)
    runs = {
        "acceptance_03": lambda: [reproduce.verify_example1(N=24, n=n, samples=50, seed=0) for n in range(2, 7)],
        "acceptance_04": lambda: reproduce.verify_example2(
            N=7, n=6, alpha=["1/4", "1/2"], eps=["1/10", "1/5", "2/5"], samples=20, seed=0
        ),
        "acceptance_05": lambda: reproduce.verify_delta_existence(k=16),
        "acceptance_06": lambda: reproduce.verify_daugavet_recursion(stages=10, samples=5, seed=0),
        "acceptance_09": lambda: diametral.verify_separated_annuli(
            asp.space, asp.pairs, asp.annuli, list(asp.eps), samples=50, seed=0
        ),
        "two_anchor_12": lambda: reproduce.verify_two_anchor_daugavet(N=12),
        "norms_20": lambda: norms(*norms_input),
    }
    for name, run in runs.items():
        before = counts.as_dict()
        seen = {}
        if name in PROFILED:
            seen = profiled(run)
        else:
            run()
        out[name] = {key: value - before[key] for key, value in counts.as_dict().items()}
        out[name].update(seen)
print(json.dumps(out))
"""


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(commit: str, target: Path) -> None:
    """Write the committed tree of commit into target."""
    archive = target.with_suffix(".tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(target, filter="data")
    archive.unlink()


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in tree; its result line plus the stamp line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    stamp = next((json.loads(line[len("# stamp "):]) for line in lines if line.startswith("# stamp ")), {})
    return {"stamp": stamp, **result}


def parse_tier1(output: str) -> dict:
    """Passed and failed counts and wall time from pytest's summary line, and
    the call times of the acceptance tests from its --durations=0 table."""
    summary = output.strip().rsplit("\n", 1)[-1]
    counts = {kind: int(num) for num, kind in re.findall(r"(\d+) (passed|failed)", summary)}
    wall = re.search(r" in ([\d.]+)s", summary)
    calls = {test: float(sec) for sec, test in re.findall(r"^([\d.]+)s call\s+(\S+)$", output, re.M)}
    return {
        "passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
        "wall_s": float(wall.group(1)) if wall else None,
        **{name: calls.get(test) for name, test in ACCEPTANCE.items()},
    }


def run_tier1(tree: Path) -> dict:
    """One run of the tier-1 suite of tree on its own sources."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True, text=True)
    return parse_tier1(proc.stdout)


def run_counts(tree: Path) -> dict:
    """The counts of COUNTS_SCRIPT's runs on the sources of tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", COUNTS_SCRIPT], cwd=tree, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def summarize(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def head_wins(base: list, head: list, better: str) -> int:
    if better == "lower":
        return sum(h < b for b, h in zip(base, head))
    return sum(h > b for b, h in zip(base, head))


def log_ratios(base: list, head: list) -> dict:
    """Mean log(head/base) over the base-first pairs (even i), over the
    head-first pairs (odd i), and their average; all None with fewer than two
    pairs or a value that is not positive."""
    if len(base) < 2 or min(base + head) <= 0:
        return dict.fromkeys(("base_first", "head_first", "balanced"))
    ratios = [math.log(h / b) for b, h in zip(base, head)]
    base_first, head_first = statistics.fmean(ratios[0::2]), statistics.fmean(ratios[1::2])
    return {"base_first": base_first, "head_first": head_first, "balanced": (base_first + head_first) / 2}


def compare(results: dict, spec: dict) -> dict:
    """Per end-to-end metric: each side's summary, the head's pair wins, the
    order-balanced log ratios and the parent's quartile spread against the
    distance between medians."""
    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base = [r["metrics"][name]["value"] for r in results["base"]]
        head = [r["metrics"][name]["value"] for r in results["head"]]
        b, h = summarize(base), summarize(head)
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "base": b, "head": h,
            "head_wins": head_wins(base, head, metric["better"]), "pairs": len(base),
            "median_change": (h["median"] - b["median"]) / b["median"] if b["median"] else None,
            "log_ratio": log_ratios(base, head),
            "base_iqr": b["q3"] - b["q1"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", type=Path, help="the BENCH_*.json file to write")
    parser.add_argument("--base", default="HEAD~1", help="commit to compare against (default HEAD~1)")
    parser.add_argument("--first-seed", type=int, default=21,
                        help="seed of the first pair (default 21)")
    args = parser.parse_args(argv)

    commits = {"base": git("rev-parse", args.base), "head": git("rev-parse", "HEAD")}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = [args.first_seed + i for i in range(PAIRS)]
    workloads, stamp = {}, {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(commits[side], trees[side])
        tier1 = {side: [] for side in SIDES}
        for side in (*SIDES, *SIDES[::-1]):
            tier1[side].append(run_tier1(trees[side]))
        print(f"tier-1: {tier1}", file=sys.stderr)
        counts = {side: run_counts(trees[side]) for side in SIDES}
        print(f"simplex counts: {counts}", file=sys.stderr)
        for workload in (w["name"] for w in spec["workloads"]):
            results = {side: [] for side in SIDES}
            for i, seed in enumerate(seeds):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    results[side].append(run_bench(trees[side], workload, seed, seconds, 0))
                    print(f"{workload} seed {seed} {side}: wall_s "
                          f"{results[side][-1]['metrics']['wall_s']['value']:.3f}", file=sys.stderr)
            traced = {side: run_bench(trees[side], workload, seeds[0], seconds, 1) for side in SIDES}
            stamp = traced["head"]["stamp"]
            workloads[workload] = {
                "seeds": seeds,
                "failed": {side: [r["failed"] for r in results[side]] for side in SIDES},
                "attempted": {side: [r["attempted"] for r in results[side]] for side in SIDES},
                "end_to_end": compare(results, spec),
                "traced": {side: {name: m["value"] for name, m in traced[side]["metrics"].items()}
                           for side in SIDES},
            }
    report = {
        "stamp": {
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "nproc": stamp.get("nproc"), "cpu": stamp.get("cpu"),
            "python": platform.python_version(), "scalar_backend": stamp.get("scalar_backend"),
            "base_commit": commits["base"], "head_commit": commits["head"],
            "seconds": seconds, "pairs": PAIRS,
        },
        "tier1": tier1,
        "simplex_counts": counts,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["workloads"].items():
        for name, m in entry["end_to_end"].items():
            balanced = m["log_ratio"]["balanced"]
            print(f"{workload:13} {name:13} base {m['base']['median']:.6g} [{m['base']['q1']:.6g}, "
                  f"{m['base']['q3']:.6g}]  head {m['head']['median']:.6g} [{m['head']['q1']:.6g}, "
                  f"{m['head']['q3']:.6g}]  head wins {m['head_wins']}/{m['pairs']}  balanced "
                  + (f"{math.expm1(balanced):+.1%}" if balanced is not None else "n/a"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
