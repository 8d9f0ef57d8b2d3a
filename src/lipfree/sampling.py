"""Seeded random generators: metric spaces, Lipschitz functions, free elements.

Everything is driven by an explicit random.Random so reports can record the
seed and reproduce the sample byte for byte.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .free import FreeElement, free_norm
from .functions import LipFunction
from .metric import FiniteMetricSpace
from .scalars import ONE, ZERO, rat


def random_space(rng: random.Random, n: int, max_edge: int = 20) -> FiniteMetricSpace:
    """Random metric via shortest-path closure of random integer edge weights."""
    if n < 2:
        raise ValueError("need at least two points")
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, max_edge)
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            for j in range(n):
                through = dik + d[k][j]
                if i != j and through < d[i][j]:
                    d[i][j] = through
    return FiniteMetricSpace.from_ints(d, 1, labels=[f"p{i}" for i in range(n)])


def random_lip_function(
    rng: random.Random, space: FiniteMetricSpace, norm_one: bool = True
) -> LipFunction:
    """Random integer values rooted at the base, optionally renormalized."""
    while True:
        values = [rat(rng.randint(-10, 10)) for _ in space.points()]
        values[space.base] = ZERO
        f = LipFunction(space, tuple(values))
        if f.norm == 0:
            continue
        return f * (ONE / f.norm) if norm_one else f


def random_free_element(
    rng: random.Random,
    space: FiniteMetricSpace,
    support_size: int = 3,
    norm_one: bool = True,
    allowed: Optional[Sequence] = None,
) -> FreeElement:
    """Random finite-support element, optionally restricted to allowed points."""
    pool = [p for p in (allowed if allowed is not None else space.points()) if p != space.base]
    if not pool:
        raise ValueError("no candidate support points")
    size = min(support_size, len(pool))
    while True:
        support = rng.sample(sorted(pool), size)
        weights = {p: rat(rng.randint(-5, 5)) for p in support}
        mu = FreeElement.make(space, weights)
        if mu.is_zero():
            continue
        if not norm_one:
            return mu
        norm = free_norm(mu).value
        return mu * (ONE / norm)
