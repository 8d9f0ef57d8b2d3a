"""lipfree benchmark: one seeded workload per run, one op at a time.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The timed phase runs a fixed list of ops made from the seed (see
``workloads.py``) ``workloads.PASSES`` times, each pass in a fresh
interpreter (``oppass.py``) started after the previous one ended; inside a
pass every op is one in-process ``lipfree.cli.main(argv)`` call, closed
loop, and no input repeats. An op's latency is the mean of its passes,
which averages out the swings in host speed that other processes cause; the
list is sized so that all passes take about ``--seconds``. Outputs are
checked after the timed phase, and every pass of an op must print the same
bytes. The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer ones of one more,
traced pass, plus the layer probes. Lines before it are for people;
``.perfbench_out/`` keeps the per-op times and the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 9


@dataclass
class Pass:
    results: list  # per op: {"rc", "out", "seconds"}
    wall: float
    rss_mb: float
    layers: dict  # per-layer figures of a traced pass, else empty


def run_pass(inputs, workdir: Path, tag: str, spans: Path = None) -> Pass:
    """Run the op list once in a fresh interpreter and wait for it."""
    ops_path = workdir / "ops.json"
    if not ops_path.exists():
        ops_path.write_text(json.dumps({"argv": [op.argv for op in inputs.ops],
                                        "small": [i for i, op in enumerate(inputs.ops) if op.small]}))
    result_path = workdir / f"pass-{tag}.json"
    cmd = [sys.executable, str(HERE / "oppass.py"), str(ops_path), str(result_path)]
    subprocess.run(cmd + ([str(spans)] if spans else []), cwd=ROOT, check=True)
    record = json.loads(result_path.read_text())
    return Pass(record["ops"], record["wall"], record["rss_mb"], record.get("layers", {}))


# ---------------------------------------------------------------------------
# set-up


def measure_setup(workload: str, seed: int, blocks: int, workdir: Path) -> tuple:
    """Interpreter start-up with ``import lipfree.cli``, plus making the
    inputs, each repeated; returns (sum of the two medians, inputs)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    starts = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import lipfree.cli"], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        starts.append(time.perf_counter() - t0)
    makes = []
    inputs = None
    for rep in range(SETUP_REPS):
        target = workdir / f"inputs{rep}"
        target.mkdir(parents=True)
        t0 = time.perf_counter()
        inputs = workloads.make_inputs(workload, seed, blocks, str(target))
        makes.append(time.perf_counter() - t0)
    return statistics.median(starts) + statistics.median(makes), inputs


# ---------------------------------------------------------------------------
# checks


def check_outputs(inputs, passes) -> set:
    """Indices of failed ops over every pass of the op list."""
    failed = set()
    for i, op in enumerate(inputs.ops):
        first, *others = [p.results[i] for p in passes]
        if any(r["rc"] != 0 or r["out"] != first["out"] for r in (first, *others)):
            failed.add(i)
        elif op.kind == "certify":
            if not checks.certificate_passes(first["out"]):
                failed.add(i)
        elif not checks.norm_matches(first["out"], inputs.spaces[op.check["space"]], op.check["net"]):
            failed.add(i)
    return failed


# ---------------------------------------------------------------------------
# stamp


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp() -> dict:
    from lipfree.scalars import rat

    backend = type(rat(1))
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "scalar_backend": f"{backend.__module__}.{backend.__qualname__}",
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# metrics


def end_to_end(setup_s, latencies, failed, rss_mb) -> dict:
    wall = sum(latencies)
    lat_ms = [t * 1e3 for t in latencies]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (len(latencies) / wall, "1/s"),
        "p50_ms": (statistics.median(lat_ms), "ms"),
        "p95_ms": (statistics.quantiles(lat_ms, n=100, method="inclusive")[94], "ms"),
        "success_ratio": ((len(latencies) - len(failed)) / len(latencies), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_ns", "ns"), ("_s", "s")):
        if name.endswith(suffix) or suffix + "_" in name:
            return unit
    if name.endswith("_share"):
        return "ratio"
    return "count"


def traced(inputs, workdir: Path, untraced_walls) -> tuple:
    """One more pass under the tracer; returns (metrics, pass, spans file,
    probe table)."""
    from probes import run_probes

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{inputs.workload}-{inputs.seed}.jsonl"
    traced_pass = run_pass(inputs, workdir, "traced", spans_path)
    figures = dict(traced_pass.layers)
    figures["trace.wall_s"] = traced_pass.wall
    figures["trace.overhead_s"] = traced_pass.wall - statistics.mean(untraced_walls)
    figures["lp.simplex_share"] = figures["lp.simplex_s"] / traced_pass.wall
    probe_figures, table = run_probes()
    figures.update(probe_figures)
    return {k: (v, _unit(k)) for k, v in figures.items()}, traced_pass, spans_path, table


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lipfree" / "__init__.py").is_file():
        print(f"error: no lipfree package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lipfree.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "lipfree":
        print(f"error: lipfree imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    blocks = workloads.blocks_for(args.workload, args.seconds)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s, inputs = measure_setup(args.workload, args.seed, blocks, workdir)
        passes = [run_pass(inputs, workdir, str(k)) for k in range(workloads.PASSES)]
        walls = [p.wall for p in passes]
        latencies = [statistics.mean(p.results[i]["seconds"] for p in passes) for i in range(len(inputs.ops))]
        rss_mb = max(p.rss_mb for p in passes)
        if args.trace:
            metrics, traced_pass, spans_path, table = traced(inputs, workdir, walls)
            passes.append(traced_pass)
        failed = check_outputs(inputs, passes)
        if not args.trace:
            metrics = end_to_end(setup_s, latencies, failed, rss_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    info = stamp()
    print(f"# lipfree benchmark: workload={args.workload} seed={args.seed} blocks={blocks} "
          f"ops={len(inputs.ops)} trace={args.trace}")
    print("# stamp " + json.dumps(info, sort_keys=True))
    print(f"# {len(inputs.ops)} ops attempted, {len(failed)} failed; {len(walls)} passes over the list took "
          + ", ".join(f"{w:.3f} s" for w in walls) + f"; percentiles over {len(inputs.ops)} per-op means")
    if args.trace:
        print(f"# spans written to {spans_path.relative_to(ROOT)}")
        print("#")
        for line in table:
            print("# " + line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(inputs.ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        **result,
        "workload": args.workload, "seed": args.seed, "blocks": blocks, "stamp": info,
        "ops": [{"argv": list(op.argv), "seconds": [p.results[i]["seconds"] for p in passes],
                 "failed": i in failed} for i, op in enumerate(inputs.ops)],
    }, indent=1))
    print(f"# result and per-op times written to {record.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
