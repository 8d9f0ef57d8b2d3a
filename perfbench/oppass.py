"""One pass over a benchmark op list, in a fresh interpreter.

    python3 perfbench/oppass.py OPS.json RESULT.json [SPANS.jsonl]

``run.py`` starts one of these per pass, one after another, so no process
sees an identical input twice and a cache kept inside the package cannot
turn a later pass into hits. Each op is one ``lipfree.cli.main(argv)``
call, closed loop in one thread. With SPANS.jsonl the pass runs under the
tracer, writes its spans there and adds the per-layer figures to the result.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# one untimed call first, so one-time costs (lazy imports, regex compiles) miss the first op
WARMUP_ARGV = ("certify", "two-anchor", "--N", "5")


def run_op(cli, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # an op that raises is a failed op, not a crash
        rc = repr(exc)
    return {"rc": rc, "out": out.getvalue(), "seconds": time.perf_counter() - t0}


def main(argv) -> int:
    ops_path, result_path, *spans_path = argv
    spec = json.loads(Path(ops_path).read_text())
    sys.path.insert(0, str(SRC))
    import lipfree.cli as cli

    run_op(cli, WARMUP_ARGV)
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    t0 = time.perf_counter()
    try:
        for i, op_argv in enumerate(spec["argv"]):
            if tracer is not None:
                tracer.op = i
            results.append(run_op(cli, op_argv))
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    record = {"wall": wall, "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "ops": results}
    if tracer is not None:
        from tracer import layer_metrics

        record["layers"] = layer_metrics(tracer, frozenset(spec["small"]))
        tracer.write(spans_path[0])
    Path(result_path).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
