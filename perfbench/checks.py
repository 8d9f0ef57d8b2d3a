"""Output checks, run outside the timed region.

* every op exits 0;
* a ``freenorm``/``dist`` value equals a float transport solve of the same
  element on the whole space by ``scipy.optimize.linprog`` (HiGHS dual
  simplex) within 1e-9 relative;
* a certificate report has ``overall`` true and is byte-identical when the
  same op runs again.
"""

from __future__ import annotations

import json
from fractions import Fraction

REL_TOL = 1e-9


def transport_value(d: list, net: dict) -> float:
    """Minimum cost of a flow on the complete graph whose net outflow is
    ``net`` at each non-base point; the base point 0 absorbs the rest."""
    import numpy as np
    from scipy.optimize import linprog

    n = len(d)
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    a_eq = np.zeros((n - 1, len(arcs)))
    for col, (i, j) in enumerate(arcs):
        if i:
            a_eq[i - 1, col] = 1.0
        if j:
            a_eq[j - 1, col] = -1.0
    b_eq = [float(net.get(p, 0)) for p in range(1, n)]
    cost = [float(d[i][j]) for i, j in arcs]
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs-ds")
    if res.status != 0:
        raise RuntimeError(f"oracle transport solve failed: {res.message}")
    return float(res.fun)


def norm_matches(output: str, d: list, net: dict) -> bool:
    try:
        value = float(Fraction(output.strip()))
    except (ValueError, ZeroDivisionError):
        return False
    expected = transport_value(d, net)
    return abs(value - expected) <= REL_TOL * max(abs(expected), 1e-300)


def certificate_passes(output: str) -> bool:
    try:
        return json.loads(output)["result"]["overall"] is True
    except (ValueError, KeyError, TypeError):
        return False
