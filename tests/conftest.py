import random

import pytest

from lipfree import free
from lipfree.functions import mcshane_extend
from lipfree.metric import FiniteMetricSpace, build_half_line_space
from lipfree.sampling import random_space
from lipfree.scalars import rat


@pytest.fixture
def line4() -> FiniteMetricSpace:
    return build_half_line_space([0, 1, 3, 7])


@pytest.fixture
def triangle() -> FiniteMetricSpace:
    """Scalene triangle with exact rational sides."""
    return FiniteMetricSpace.from_matrix(
        [
            [0, rat(2), rat(3)],
            [rat(2), 0, rat(4)],
            [rat(3), rat(4), 0],
        ]
    )


@pytest.fixture
def lifts(monkeypatch) -> list:
    """The McShane lifts free_norm makes from here on, one entry per call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return mcshane_extend(*args, **kwargs)

    monkeypatch.setattr(free, "mcshane_extend", counting)
    return calls


def spaces_for(seed: int, count: int, n_range=(3, 8)):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_space(rng, rng.randint(*n_range))
