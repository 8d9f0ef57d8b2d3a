"""Seeded workloads of the lipfree benchmark.

Every input is made here from the benchmark's ``--seed`` with the standard
library alone: nothing is imported from ``lipfree``, so a change to the
package (its samplers or its builders included) cannot change what is
measured. A workload is a list of :class:`Op`; each op is one
``lipfree.cli.main(argv)`` call, and the workload is cut into *blocks* whose
mix of input sizes is the same for every seed, so that two seeds cost about
the same.

Why each workload exists (the layers it stresses and the changes that
should move it):

* ``sweep`` -- ``certify example1 --N 24`` for n = 2..6 (the acceptance-03
  parameters with fewer samples) plus ``certify example2`` on a reduced core.
  Nearly all of its time is per-pair ``lp.solve_lip_ball`` solves with one
  side row (23 x 553 and 15 x 241 programs), so warm-started and
  fraction-free pivoting shows here; it almost never calls ``free_norm``.
* ``norms`` -- ``freenorm`` and ``dist`` queries on JSON files of random
  shortest-path closures (n = 8..20) and of builder spaces (``example1``,
  ``hat``, ``recursion``) where no arc is implied by a path. One query in four
  has full support, the rest support <= 3 (<= 6 for ``dist``). The
  load/parse/render path of ``cli`` and ``metric`` sets the median, the full
  transport and ball programs set the tail; there are no sweeps.
* ``constructions`` -- ``certify delta-exist``, ``daug-rec``, ``two-anchor``
  and ``annuli`` with a different parameter or seed on every call:
  McShane surgeries, O(n^2) norms, hypothesis checks, exhaustive search and
  report rendering around hundreds of tiny LPs, so per-solve overhead shows.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

WORKLOADS = ("sweep", "norms", "constructions")

# Seconds one block takes untraced at the commit that defined the benchmark
# (2-core x86-64, Python 3.11, Fraction scalars). Every op runs PASSES
# times, so ``--seconds`` asks for round(seconds / (PASSES * block_s))
# blocks, at least one.
NOMINAL_BLOCK_S = {"sweep": 9.0, "norms": 2.5, "constructions": 10.0}
PASSES = 3


@dataclass(frozen=True)
class Op:
    """One CLI call and what its output is checked against."""

    argv: tuple
    kind: str  # certify | freenorm | dist
    small: bool = False  # a norms query with support <= 6
    check: Optional[dict] = None  # norms: space index and net weights


@dataclass
class Inputs:
    workload: str
    seed: int
    ops: list
    spaces: list = field(default_factory=list)  # norms: distance matrix per space file


def _rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"lipfree-bench/{workload}/{seed}/{block}")


def blocks_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / (PASSES * NOMINAL_BLOCK_S[workload])))


# ---------------------------------------------------------------------------
# spaces (distance matrices of Fractions, base point 0)


def random_closure(rng: random.Random, n: int, max_edge: int = 20) -> list:
    """Shortest-path closure of random integer weights on the complete graph."""
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, max_edge)
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            for j in range(n):
                if i != j and dik + d[k][j] < d[i][j]:
                    d[i][j] = dik + d[k][j]
    return [[Fraction(x) for x in row] for row in d]


def example1_matrix(N: int) -> list:
    """Integers 1..N with d(n, k) = 3 - |1/n - 1/k|."""
    return [
        [Fraction(0) if i == j else 3 - abs(Fraction(1, i + 1) - Fraction(1, j + 1)) for j in range(N)]
        for i in range(N)
    ]


def hat_matrix(k: int, a: int = 2) -> list:
    """u_1..u_k, v_1..v_k at distance a, with d(u_i, v_i) shrunk for i >= 2."""
    n = 2 * k
    d = [[Fraction(0) if i == j else Fraction(a) for j in range(n)] for i in range(n)]
    for i in range(2, k + 1):
        duv = Fraction(a, 2) if i == 2 else Fraction(a * (i - 2), i)
        d[i - 1][k + i - 1] = d[k + i - 1][i - 1] = duv
    return d


def recursion_matrix(k: int) -> list:
    """Half-line points of the nested-annuli construction with k stages."""
    scales = [1]
    for i in range(1, k):
        scales.append(scales[-1] * 2 ** (2 * i + 9))
    coords = [0]
    for i, a in enumerate(scales, start=1):
        if i > 1:
            coords.append(5 * a)
        coords.append(8 * a)
    coords.append(128 * scales[-1] * 2**k)
    return [[Fraction(abs(s - t)) for t in coords] for s in coords]


def space_json(d: list, labels: list) -> dict:
    return {"labels": labels, "base": 0, "d": [[str(x) for x in row] for row in d]}


# ---------------------------------------------------------------------------
# norms


def _weight(rng: random.Random) -> Fraction:
    num = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
    return Fraction(num, rng.randint(1, 4))


def _element(rng: random.Random, n: int, size: Optional[int]) -> dict:
    """Weights on non-base points; size None means every non-base point."""
    pts = list(range(1, n))
    support = pts if size is None else sorted(rng.sample(pts, min(size, len(pts))))
    return {p: _weight(rng) for p in support}


def _norms_block_spaces(rng: random.Random) -> list:
    """Fourteen spaces: random closures, one per size stratum from 8 to 19 and
    five of 20 points, and one each of the example1, hat and recursion
    builders. The full-support queries on 20 points are 9% of all queries,
    so p95 falls in the middle of them, not on the edge between two sizes."""
    out = []
    for n in (*(rng.randint(lo, lo + 1) for lo in (8, 10, 12, 14, 16, 18)), 20, 20, 20, 20, 20):
        out.append((random_closure(rng, n), [f"p{i}" for i in range(n)]))
    N = rng.randint(10, 16)
    out.append((example1_matrix(N), [str(i + 1) for i in range(N)]))
    k = rng.randint(5, 8)
    out.append((hat_matrix(k), [f"u{i}" for i in range(1, k + 1)] + [f"v{i}" for i in range(1, k + 1)]))
    # k <= 4 keeps distances below 2^53, where the float oracle still holds 1e-9
    d = recursion_matrix(rng.randint(3, 4))
    out.append((d, [f"r{i}" for i in range(len(d))]))
    return out


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)


def _norms(seed: int, blocks: int, workdir: str) -> Inputs:
    inputs = Inputs("norms", seed, ops=[])
    for b in range(blocks):
        rng = _rng("norms", seed, b)
        block_ops = []
        for d, labels in _norms_block_spaces(rng):
            s = len(inputs.spaces)
            inputs.spaces.append(d)
            space_path = os.path.join(workdir, f"space{s}.json")
            _write_json(space_path, space_json(d, labels))
            n = len(d)

            def element_file(weights: dict, tag: str) -> str:
                path = os.path.join(workdir, f"space{s}-{tag}.json")
                _write_json(path, {"weights": {labels[p]: str(w) for p, w in weights.items()}})
                return path

            # one full-support query and three small ones per space
            full = _element(rng, n, None)
            block_ops.append(Op(("freenorm", element_file(full, "full"), "--space", space_path),
                                "freenorm", small=False, check={"space": s, "net": full}))
            for t in range(2):
                mu = _element(rng, n, rng.randint(1, 3))
                block_ops.append(Op(("freenorm", element_file(mu, f"small{t}"), "--space", space_path),
                                    "freenorm", small=True, check={"space": s, "net": mu}))
            mu = _element(rng, n, rng.randint(1, 3))
            nu = _element(rng, n, rng.randint(1, 3))
            net = dict(mu)
            for p, w in nu.items():
                net[p] = net.get(p, 0) - w
            block_ops.append(Op(("dist", element_file(mu, "a"), element_file(nu, "b"), "--space", space_path),
                                "dist", small=True, check={"space": s, "net": net}))
        rng.shuffle(block_ops)
        inputs.ops.extend(block_ops)
    return inputs


# ---------------------------------------------------------------------------
# certificate workloads


def _sweep(seed: int, blocks: int) -> Inputs:
    """The example1 ops of block b sample their functions with seed b, so the
    first block uses the acceptance seed 0: one sampled function costs 1 to
    9 ball LPs, so drawing them from the benchmark seed would move a run's
    time by +-20% from seed to seed. The benchmark seed sets the example2
    sample and the order of the ops."""
    ops = []
    for b in range(blocks):
        rng = _rng("sweep", seed, b)
        block_ops = [
            Op(("certify", "example1", "--N", "24", "--n", str(n), "--samples", "1", "--seed", str(b)), "certify")
            for n in range(2, 7)
        ]
        block_ops.append(Op(("certify", "example2", "--N", "4", "--n", "3", "--alpha", "1/2", "--eps", "1/5",
                             "--samples", "2", "--seed", str(rng.randrange(10**6))), "certify"))
        rng.shuffle(block_ops)
        ops.extend(block_ops)
    return Inputs("sweep", seed, ops)


_DELTA_GRIDS = ("1/2,1/4,1/8", "1/3,1/6,1/12", "1/2,1/5", "1/4,1/8,1/16")
_CYCLES_PER_BLOCK = 9


def _constructions(seed: int, blocks: int) -> Inputs:
    """Each block runs nine cycles of the four certificates.

    Within a block the parameters rotate through fixed ranges from seeded
    offsets, so every block holds the same parameter multiset (delta-exist
    covers k = 12..20 once) and no call repeats an identical input; odd
    blocks render in float mode, so two blocks repeat none either.
    daug-rec runs with ``--samples 0``: its sampled annuli battery fails on
    rare seeds (the dual witness of an annulus holding the base point), and
    ``certify annuli`` measures that battery on spaces where it holds."""
    ops = []
    for b in range(blocks):
        rng = _rng("constructions", seed, b)
        mode = ("--mode", "float" if b % 2 else "exact")
        off = [rng.randrange(9), rng.randrange(7), rng.randrange(7), rng.randrange(3)]
        grid_off = rng.randrange(len(_DELTA_GRIDS))
        for c in range(_CYCLES_PER_BLOCK):
            cycle = [
                Op(("certify", "delta-exist", "--pairs", str(12 + (c + off[0]) % 9), *mode), "certify"),
                Op(("certify", "daug-rec", "--stages", str(8 + (c + off[1]) % 7), "--samples", "0",
                    "--seed", str(rng.randrange(10**6)), *mode), "certify"),
                Op(("certify", "two-anchor", "--N", str(6 + (c + off[2]) % 7),
                    "--deltas", _DELTA_GRIDS[(c // 7 + grid_off) % len(_DELTA_GRIDS)], *mode), "certify"),
                Op(("certify", "annuli", "--pairs", str(2 + (c + off[3]) % 3), "--samples", "20",
                    "--seed", str(rng.randrange(10**6)), *mode), "certify"),
            ]
            rng.shuffle(cycle)
            ops.extend(cycle)
    return Inputs("constructions", seed, ops)


def make_inputs(workload: str, seed: int, blocks: int, workdir: str) -> Inputs:
    """Build the ops of a run; norms also writes its JSON files to workdir."""
    if workload == "sweep":
        return _sweep(seed, blocks)
    if workload == "norms":
        return _norms(seed, blocks, workdir)
    if workload == "constructions":
        return _constructions(seed, blocks)
    raise ValueError(f"unknown workload: {workload}")
