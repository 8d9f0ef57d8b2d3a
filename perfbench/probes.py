"""Layer probes: the per-layer baseline table, regenerated in the traced run.

Each probe runs once under the tracer, to read the simplex calls and the
program size from the spans, and then several times untraced; the median
untraced time is reported. The inputs are fixed, not seeded, so the table
compares across commits.
"""

from __future__ import annotations

import statistics
import time

from tracer import Tracer

OP_NS_LOOPS = 20000


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _simplex_shape(fn) -> tuple:
    """(simplex calls, rows x cols of the largest program) of one traced call."""
    with Tracer() as tracer:
        fn()
    shapes = [s[6] for s in tracer.spans if s[3] == "lp.simplex_standard"]
    rows, cols = max(shapes, key=lambda rc: rc[0] * rc[1]) if shapes else (0, 0)
    return len(shapes), rows, cols


def scalar_op_ns() -> float:
    """Median cost of ``c - a*b`` on the active scalar backend, loop included."""
    from lipfree.scalars import rat

    a, b, c = rat("355/113"), rat("-22/7"), rat("5/3")

    def loop():
        for _ in range(OP_NS_LOOPS):
            c - a * b

    return _median_time(loop, 3) / OP_NS_LOOPS * 1e9


def run_probes() -> tuple:
    """Returns (metrics, table lines)."""
    from lipfree import lp
    from lipfree.free import FreeElement, Molecule, free_norm
    from lipfree.functions import example2_function
    from lipfree.metric import build_example1_space, build_example2_space, example2_point
    from lipfree.scalars import rat

    # one side-row ball program of the example2 sweep, N = 7, core 6, eps = 1/5
    space2 = build_example2_space(7)
    f2 = example2_function(space2)
    core = [p for p in space2.points() if int(space2.labels[p][1:]) <= 6]
    p, q = next((p, q) for p in core for q in core if p != q and f2.molecule_value(p, q) > 0)
    target = lp.molecule_weights(space2, example2_point(space2, "u", 7), example2_point(space2, "v", 7))
    program = lp.LipBallProgram(
        space=space2,
        objective=target,
        side_constraints=(lp.SideConstraint(weights=lp.molecule_weights(space2, p, q), relation="<=",
                                            bound=f2.molecule_value(p, q) - (2 - 2 * rat("1/5"))),),
    )

    def side_row():
        return lp.solve_lip_ball(program)

    # full-support norm on example1(24) and a single molecule
    space1 = build_example1_space(24)
    full = FreeElement.make(space1, {i: rat(f"{(-1) ** i * (i % 5 + 1)}/{i % 3 + 1}") for i in range(1, 24)})
    molecule = Molecule(space1, 3, 17).element()

    def full_norm():
        return free_norm(full)

    def molecule_norm():
        return free_norm(molecule)

    rows = []
    metrics = {}
    for key, label, fn, reps in (
        ("probe.solve_lip_ball_side", "`solve_lip_ball`, example2(7), one side row", side_row, 3),
        ("probe.free_norm_full", "`free_norm`, full support, example1(24)", full_norm, 3),
        ("probe.free_norm_molecule", "`free_norm`, one molecule, example1(24)", molecule_norm, 21),
    ):
        calls, r, c = _simplex_shape(fn)
        seconds = _median_time(fn, reps)
        metrics[f"{key}_ms"] = seconds * 1e3
        metrics[f"{key}.simplex_calls"] = calls
        rows.append(f"| {label} | {seconds * 1e3:.1f} ms | {calls} | {r} x {c} |")
    metrics["scalars.op_ns"] = scalar_op_ns()
    table = [
        "| Operation | Time (median) | Simplex calls | Largest LP (rows x cols) |",
        "|---|---|---|---|",
        *rows,
        f"| `c - a*b` on the scalar backend | {metrics['scalars.op_ns']:.0f} ns | - | - |",
    ]
    return metrics, table
