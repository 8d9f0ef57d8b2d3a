"""Exact rational linear programming over the Lipschitz unit ball.

One program family runs on the simplex core: maximize a linear functional
over {f : ||f||_Lip <= 1, f(base) = 0} on every point of the space or on
the ball rows of a sorted point set holding the base (``metric.ball_rows``).
Every row is an arc: the ball rows f(p) - f(q) <= d(p, q) and any side row,
which ``side_arc`` turns into g(b) - g(a) <= c. The program is solved
through its dual, the min-cost transport with the base point absorbing
imbalance: the multiplier of an arc's row is the mass moved along it, so
one solve yields both the norming function and the transport plan. The
simplex starts, in one phase, from the star transport, which sends each
point's mass straight to the base along the unit columns of the arcs
p -> base and base -> p.

The dual's columns are node-arc incidence columns, the base's row deleted:
a totally unimodular matrix (Schrijver, Theory of Linear and Integer
Programming, 1986, ch. 19). So each solve keeps the basis inverse, the
basic solution and the dual row as Python ints over the common denominators
of b and the costs, and a start entry other than +-1 or a pivot entry other
than 1 raises SimplexError. The pivot rule is Dantzig with smallest-index
ties, falling back to Bland's rule after an iteration cap. The two rows of
a pair, columns 2k and 2k + 1, are priced once: c - |y_a - y_b|, (a, b)
from ``BallRows.pairs``.

Every optimal solve is checked exactly, independently of the pivoting:
the witness meets every row and attains the value, and the multipliers are
nonnegative, combine the rows into the objective and attain the same value,
a proof of optimality by weak duality. The check runs on Python ints,
reads only the returned rationals and the rows, never the solver's basis,
and names exact rationals when a check fails.

The per-pair programs of ``max_over_pairs`` and
``diametral.wstar_delta_radius`` have one side arc and an objective
sum_x m_x (g(x) - g(t)), every m_x >= 0: shortest-path programs, which
``solve_pair_program`` answers in closed form, checked like every solve.
COUNTS totals the simplex solves, their pivots and Bland fallbacks, and
these path programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .functions import LipFunction
from .metric import BallRows, FiniteMetricSpace
from .scalars import ONE, Scalar, ZERO, over_common_denominator, rat

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_DANTZIG_CAP_FACTOR = 20


class SimplexError(RuntimeError):
    pass


class SimplexCounts:
    """Running totals of the exact solves: simplex solves, their pivots, the
    solves whose loop reached the Dantzig cap and chose by Bland's rule, and
    the pair programs answered by shortest paths (solve_pair_program)."""

    __slots__ = ("solves", "primal_pivots", "bland_fallbacks", "path_programs")

    def __init__(self):
        self.solves = self.primal_pivots = self.bland_fallbacks = self.path_programs = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


COUNTS = SimplexCounts()


class _Tableau:
    """The state of one solve, all Python ints.

    icols are the columns as given, c_num the costs over c_den, b_den the
    denominator of b; basis[r] is the column basic in row r. rows is the
    (m+1) x (m+1) tableau: rows 0..m-1 hold [B^-1 | x_B], row m holds
    [y = c_B B^-1 | c_B x_B].
    """

    __slots__ = ("icols", "c_num", "c_den", "b_den", "basis", "in_basis", "rows", "pairs")

    def __init__(self, icols, c_num, c_den, b_den, basis, in_basis, rows, pairs):
        self.icols, self.c_num, self.c_den, self.b_den = icols, c_num, c_den, b_den
        self.basis, self.in_basis, self.rows, self.pairs = basis, in_basis, rows, pairs


def _start(cols, b, costs, pairs) -> _Tableau:
    """The tableau of the start basis."""
    m = len(b)
    b_num, b_den = over_common_denominator(b)
    c_num, c_den = over_common_denominator(costs)
    basis = [-1] * m
    for j, col in enumerate(cols):
        if len(col) == 1:
            r, a = col[0]
            if basis[r] < 0 and (a < 0 if b_num[r] < 0 else a > 0):
                basis[r] = j
    if -1 in basis:
        raise SimplexError(f"row {basis.index(-1)} has no positive unit column to start from")
    # [B^-1 | x_B] of the diagonal start, each entry +-1 its own inverse, and the cost row
    rows = [[0] * (m + 1) for _ in range(m + 1)]
    cost_row = rows[m]
    for r, (num, j) in enumerate(zip(b_num, basis)):
        a = cols[j][0][1]
        if a != 1 and a != -1:
            raise SimplexError(f"start entry {a} of column {j} on row {r} is not +-1")
        row = rows[r]
        row[r] = a
        row[m] = a * num
        cost_row[r] = c_num[j] * a
        cost_row[m] += c_num[j] * row[m]
    in_basis = [False] * len(cols)
    for j in basis:
        in_basis[j] = True
    return _Tableau(cols, c_num, c_den, b_den, basis, in_basis, rows, pairs)


def _pivot(t: _Tableau, leaving: int, entering: int, dvec: list) -> None:
    """Bring column entering into row leaving; dvec is that column in the
    current basis, followed by minus its reduced cost. The pivot entry must
    be 1, so every other row i becomes row - dvec[i] * pivot row."""
    rows = t.rows
    if dvec[leaving] != 1:
        raise SimplexError(f"pivot entry {dvec[leaving]} of column {entering} on row {leaving} is not 1")
    prow = rows[leaving]
    for i, (row, di) in enumerate(zip(rows, dvec)):
        if di and i != leaving:
            rows[i] = [a - di * p for a, p in zip(row, prow)]
    t.in_basis[t.basis[leaving]] = False
    t.in_basis[entering] = True
    t.basis[leaving] = entering


def _column(t: _Tableau, j: int) -> list:
    """Column j in the current basis, one entry per row 0..m-1."""
    rows = t.rows[:-1]
    dvec = [0] * len(rows)
    for r, a in t.icols[j]:
        dvec = [d + row[r] * a for d, row in zip(dvec, rows)]
    return dvec


def _entering(t: _Tableau, bland: bool) -> tuple:
    """(entering column, its reduced cost), or (-1, 0) at the optimum.
    Dantzig with smallest-index ties, or Bland's first improving column;
    each pair of t.pairs is priced once, and a later column must price
    lower."""
    icols, c_num, in_basis, rows, pairs = t.icols, t.c_num, t.in_basis, t.rows, t.pairs
    m, paired = len(t.basis), 2 * len(pairs)
    y = rows[m]
    entering = -1
    best_rc = 0
    if pairs:
        yz = y[:m] + [0]
        rcs = [c - abs(yz[a] - yz[b]) for c, (a, b) in zip(c_num[0:paired:2], pairs)]
        best_rc = next((rc for rc in rcs if rc < 0), 0) if bland else min(0, min(rcs))
        if best_rc < 0:
            k = rcs.index(best_rc)
            a, b = pairs[k]
            entering = 2 * k + (yz[a] < yz[b])
            if bland:
                return entering, best_rc
    for j in range(paired, len(icols)):
        if in_basis[j]:
            continue
        rc = c_num[j]
        for r, a in icols[j]:
            rc -= y[r] * a
        if rc < best_rc:
            best_rc, entering = rc, j
            if bland:
                break
    return entering, best_rc


def _primal(t: _Tableau) -> tuple:
    """Primal simplex from a feasible basis: (status, pivots, whether Bland's
    rule priced). _entering chooses by Dantzig's rule up to the cap, by
    Bland's after it. Past the cap, m * n more pivots (m rows, n columns)
    raise SimplexError, so a pivoting fault fails fast instead of hanging."""
    basis, rows = t.basis, t.rows
    m, n = len(basis), len(t.icols)
    cap = _DANTZIG_CAP_FACTOR * (m + n)
    pivots = 0
    while True:
        bland = pivots >= cap
        entering, best_rc = _entering(t, bland)
        if entering < 0:
            return OPTIMAL, pivots, bland
        if pivots == cap + m * n:
            raise SimplexError(f"pivot limit exceeded: {pivots} pivots on {m} rows and {n} columns")
        dvec = _column(t, entering)
        leaving = -1
        for i in range(m):
            di = dvec[i]
            if di > 0:
                if leaving < 0:
                    leaving = i
                    continue
                lhs = rows[i][m] * dvec[leaving]
                rhs = rows[leaving][m] * di
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        if leaving < 0:
            return UNBOUNDED, pivots, bland
        dvec.append(-best_rc)
        _pivot(t, leaving, entering, dvec)
        pivots += 1


def _read_out(t: _Tableau, status: str, pivots: int, bland: bool) -> tuple:
    """(status, x, value, duals) of the solve, back in rationals; adds the
    solve to COUNTS."""
    counts = COUNTS
    counts.solves += 1
    counts.primal_pivots += pivots
    if bland:
        counts.bland_fallbacks += 1
    if status == UNBOUNDED:
        return UNBOUNDED, {}, None, None
    m, b_den, c_den = len(t.basis), t.b_den, t.c_den
    y = t.rows[m]
    x = {j: Fraction(row[m], b_den) for j, row in zip(t.basis, t.rows) if row[m]}
    value = Fraction(y[m], c_den * b_den)
    duals = [Fraction(yr, c_den) for yr in y[:m]]
    return OPTIMAL, x, value, duals


def simplex_standard(cols, b, costs, pairs=()):
    """min costs.x  s.t.  sum_j x_j * cols[j] = b,  x >= 0.

    cols: sparse network columns [(row, +-1), ...], as the node-arc
    incidence columns of a ball program are; b and costs are rational.
    Returns (status, x: dict, value, duals: list per row). _start builds the
    tableau of the start basis, _primal pivots it to the optimum and
    _read_out turns the result back into rationals. Given pairs, a
    BallRows.pairs table, columns 2k and 2k + 1 must be the k-th pair's two
    ball rows; they are priced together.

    The start is a diagonal basis: for each row the first column whose only
    entry sits on that row and has the sign of its b (positive where b is
    0). That basis is feasible, so no phase 1 is needed; a row with no such
    column raises SimplexError, and so does a start entry other than +-1 or
    a pivot entry other than 1, naming it: the integer tableau is exact only
    while every basis is unimodular.
    """
    t = _start(cols, b, costs, pairs)
    status, pivots, bland = _primal(t)
    return _read_out(t, status, pivots, bland)


# ---------------------------------------------------------------------------
# Lipschitz-ball programs


@dataclass(frozen=True)
class SideConstraint:
    weights: dict  # point -> coefficient of f(point)
    relation: str  # "<=" or ">="
    bound: Scalar


@dataclass(frozen=True)
class LipBallProgram:
    space: FiniteMetricSpace
    objective: dict  # point -> coefficient (base weight ignored)
    side_constraints: tuple = ()  # each must be an arc (see side_arc)


@dataclass(frozen=True)
class LpSolution:
    status: str
    value: Optional[Scalar]
    argument: Optional[LipFunction]
    row_duals: Optional[dict]  # row index -> multiplier; a side row's is that of its arc


def _as_weights(obj) -> dict:
    """An element's exact weights, or a plain dict's made rational."""
    if hasattr(obj, "weight_dict"):
        return obj.weight_dict()
    return {p: rat(w) for p, w in dict(obj).items()}


def _check_points(ball: BallRows, weights):
    for p in weights:
        if p not in ball.points:
            raise ValueError(f"point index {p} outside the program's points")


def side_arc(space: FiniteMetricSpace, row: SideConstraint) -> tuple:
    """The arc (a, b, c) of a side row, which is then g(b) - g(a) <= c. The
    base's weight is ignored, as in every ball program. The row is accepted
    only when its measure, the base weight restored as minus the others'
    sum, is w (delta_b - delta_a) with w != 0; any other row is a ValueError
    naming it."""
    sign = {"<=": 1, ">=": -1}.get(row.relation)
    if sign is None:
        raise ValueError(f"unknown relation: {row.relation}")
    base, weights = space.base, _as_weights(row.weights)
    measure = {p: w for p, w in weights.items() if p != base and w}
    measure[base] = -sum(measure.values())
    signed = [(sign * w, p) for p, w in measure.items() if w]
    if len(signed) == 2 and signed[0][0] == -signed[1][0]:
        (w, b), (_, a) = sorted(signed, reverse=True)
        return a, b, sign * rat(row.bound) / w
    terms = " ".join(f"{'-' if w < 0 else '+'} {abs(w)} g({p})" for p, w in weights.items())
    raise ValueError(f"side row {terms} {row.relation} {row.bound} is not an arc w (g(b) - g(a)) with w != 0")


def _arc_rows(ball: BallRows, arcs) -> tuple:
    """The rows g(b) - g(a) <= c of the side arcs (a, b, c) on the points of
    ball, laid out as its rows are."""
    base, var = ball.space.base, ball.var
    return tuple(
        (tuple(sorted((var[p], s) for p, s in ((b, 1), (a, -1)) if p != base)), c) for a, b, c in arcs
    )


def solve_lip_ball(program: LipBallProgram, ball: Optional[BallRows] = None) -> LpSolution:
    """Exact optimum of the objective over the Lipschitz unit ball on the
    points of ball (every point by default), which hold every objective and
    side-row point. Each side row must be an arc (side_arc), numbered after
    the ball rows. The argument is zero off those points."""
    space = program.space
    ball = ball or space.ball_rows
    objective = _as_weights(program.objective)
    _check_points(ball, objective)
    arcs = [side_arc(space, sc) for sc in program.side_constraints]
    for a, b, _ in arcs:
        _check_points(ball, (a, b))
    return _solve(ball, objective, arcs)


def _solve(ball: BallRows, objective: dict, arcs) -> LpSolution:
    """solve_lip_ball of exact objective weights and side arcs on ball."""
    space, var = ball.space, ball.var
    rows = ball.rows + _arc_rows(ball, arcs) if arcs else ball.rows
    c = [ZERO] * (len(ball.points) - 1)
    for p, w in objective.items():
        if p != space.base:
            c[var[p]] += w

    # dual: min bounds.y  s.t.  (row coefs)^T y = c,  y >= 0
    # is always feasible: its start basis is the star transport to the base
    cols, bounds = [coefs for coefs, _ in rows], [bound for _, bound in rows]
    status, x, value, duals = simplex_standard(cols, c, bounds, ball.pairs)
    if status == UNBOUNDED:
        return LpSolution(status=INFEASIBLE, value=None, argument=None, row_duals=None)

    _verify_lip_solution(rows, c, duals, x, value, ball)
    values = tuple(ZERO if v is None else duals[v] for v in var)
    return LpSolution(status=OPTIMAL, value=value, argument=LipFunction(space=space, values=values), row_duals=x)


def _verify_lip_solution(rows, c, witness, multipliers, value, ball=None):
    """Exact optimality certificate of one ball solve, independent of pivoting.

    rows are (coefs, bound) meaning coefs . f <= bound, with coefs a tuple of
    (variable, +-1) sorted by variable, an arc's row; c is the objective and
    witness the values of f on the non-base points. The witness must meet
    every row and attain value; the multipliers (row -> y_r) must be
    nonnegative, sum coefficientwise to c and have bound-weighted sum value.
    Then c . g = sum_r y_r (coefs_r . g) <= value for every feasible g (weak
    duality), so the witness is a maximizer and the multipliers a minimizer.

    The checks run on Python ints. The witness, c and the multipliers are
    each put over their common denominator (wden, cden, yden), and every
    comparison is cross-multiplied: a row is checked as
    lhs * bound.den <= bound.num * wden, the attainment as sum cnum wnum
    against value * cden * wden, and the multiplier sums against c * yden
    and value * yden. The multiplier checks touch only the nonzero
    multipliers, at most one per variable. Only the returned rationals, the
    rows and ball are read, never the solver's basis, and a failure names
    the exact rationals. Given ball, a BallRows, rows begin with its rows,
    which are checked on the int_view of its space instead
    (_check_ball_rows): only the pairs of its points.
    """
    wnum, wden = over_common_denominator(witness)
    first = 0 if ball is None else _check_ball_rows(ball, wnum, wden)
    for r in range(first, len(rows)):
        coefs, bound = rows[r]
        lhs = 0
        for v, coef in coefs:
            lhs += coef * wnum[v]
        if lhs * bound.denominator > bound.numerator * wden:
            raise SimplexError(f"witness violates row {r}: {Fraction(lhs, wden)} > {bound}")
    cnum, cden = over_common_denominator(c)
    vnum, vden = value.numerator, value.denominator
    attained = sum(ci * wi for ci, wi in zip(cnum, wnum) if ci)
    if attained * vden != vnum * cden * wden:
        raise SimplexError(f"witness attains {Fraction(attained, cden * wden)}, not the LP value {value}")
    ynum, yden = over_common_denominator(multipliers.values())
    combined = [0] * len(c)
    ball_sum, other, scale = 0, [], 1
    if ball is not None:
        D, scale = ball.space.int_view
    for (r, y), yr in zip(multipliers.items(), ynum):
        if yr < 0:
            raise SimplexError(f"multiplier of row {r} is negative: {y}")
        coefs, bound = rows[r]
        for v, coef in coefs:
            combined[v] += yr * coef
        if r < first:
            p, q = ball.arcs[r & ~1]  # rows 2k and 2k + 1 both have bound d(p, q), p < q
            ball_sum += yr * D[p][q]
        else:
            other.append((yr, bound))
    for v, (got, want) in enumerate(zip(combined, cnum)):
        if got * cden != want * yden:
            raise SimplexError(f"multipliers give {Fraction(got, yden)}, not {c[v]}, on variable {v}")
    # sum_r y_r bound_r = (ball_sum / scale + sum of the other yr bound_r) / yden
    bnum, bden = over_common_denominator(bound for _, bound in other)
    total = ball_sum * bden + scale * sum(yr * b for (yr, _), b in zip(other, bnum))
    total_den = yden * bden * scale
    if total * vden != vnum * total_den:
        raise SimplexError(f"multipliers attain {Fraction(total, total_den)}, not the LP value {value}")


def _check_ball_rows(ball: BallRows, wnum, wden) -> int:
    """Check rows 2k, 2k + 1 of ball, +-(f(p) - f(q)) <= d(p, q) for the
    k-th pair, as |W[p] - W[q]| <= D[p][q] * wden with W the witness times
    scale; returns the number of rows checked."""
    space, var, points = ball.space, ball.var, ball.points
    D, scale = space.int_view
    W = [0 if var[p] is None else wnum[var[p]] * scale for p in points]
    r = 0
    for i, p in enumerate(points):
        Dp, Wp = D[p], W[i]
        for q, Wq in zip(points[i + 1 :], W[i + 1 :]):
            gap = Wp - Wq
            if abs(gap) > Dp[q] * wden:
                if gap <= Dp[q] * wden:  # only the reversed row fails
                    r, gap = r + 1, -gap
                raise SimplexError(
                    f"witness violates row {r}: {Fraction(gap, wden * scale)} > {space.d[p][q]}"
                )
            r += 2
    return r


# ---------------------------------------------------------------------------
# transport primal


@dataclass(frozen=True)
class TransportPlan:
    flows: tuple  # ((p, q, mass), ...) sorted by (p, q)
    cost: Scalar


def ball_plan(ball: BallRows, sol: LpSolution) -> TransportPlan:
    """The transport plan in the multipliers of a ball solve with no side rows.

    The multiplier of the row of arc p -> q (ball.arcs) is the mass on that
    arc.
    """
    if sol.status != OPTIMAL:
        raise SimplexError(f"norm program unexpectedly {sol.status}")
    arcs = ball.arcs
    flows = sorted((*arcs[r], mass) for r, mass in sol.row_duals.items())
    return TransportPlan(flows=tuple(flows), cost=sol.value)


def min_cost_transport(space: FiniteMetricSpace, mu) -> TransportPlan:
    """Cheapest flow realizing mu, the base point absorbing any imbalance."""
    return ball_plan(space.ball_rows, solve_lip_ball(LipBallProgram(space=space, objective=mu)))


# ---------------------------------------------------------------------------
# pairwise-witness decomposition


@dataclass(frozen=True)
class PairMaxResult:
    status: str
    value: Optional[Scalar]
    pair: Optional[tuple]
    argument: Optional[LipFunction]


def molecule_weights(space: FiniteMetricSpace, u: int, v: int) -> dict:
    """Weights of (delta_u - delta_v)/d(u,v), base weight dropped."""
    inv = ONE / space.d[u][v]
    w = {}
    if u != space.base:
        w[u] = inv
    if v != space.base:
        w[v] = -inv
    return w


def _row_index(n: int, p: int, q: int) -> int:
    """The index of the ball row g(p) - g(q) <= d(p, q) of an n-point space
    (see BallRows)."""
    i, j = min(p, q), max(p, q)
    return 2 * (i * n - i * (i + 1) // 2 + j - i - 1) + (p > q)


def solve_pair_program(space: FiniteMetricSpace, objective: dict, arc) -> LpSolution:
    """Exact optimum of the objective, exact weights by point, over the ball
    with one side arc (a, b, c), the row g(b) - g(a) <= c with c exact,
    numbered after the ball rows.

    With its base weight restored, the objective is a measure of total
    zero. When at most one point t has negative weight, it is
    sum_x m_x (g(x) - g(t)) with every m_x >= 0, and the rows are difference
    constraints: arcs x -> y of length d(x, y) and the arc a -> b of length
    c. The shortest-path potential from t,
    h(x) = min(d(t, x), d(t, a) + c + d(b, x)), is then the largest
    g(x) - g(t) for every x at once, so it is optimal (Cormen, Leiserson,
    Rivest and Stein, Introduction to Algorithms, 3rd ed., 24.4); the
    program is infeasible exactly when c + d(a, b) < 0. The multipliers are
    the flow of the shortest-path tree: m_x on each row of the path of x.
    The witness h - h(base), these multipliers and the value pass
    _verify_lip_solution like any solve, so a matrix that breaks the
    triangle inequality is caught there. Any other objective is one
    simplex solve of the same rows.
    """
    a, b, c = arc
    ball = space.ball_rows
    _check_points(ball, objective)
    base, n = space.base, space.n
    w = [ZERO] * n
    for p, wp in objective.items():
        if p != base:
            w[p] += wp
    w[base] = -sum(w)
    sinks = [p for p, wp in enumerate(w) if wp < 0]
    if len(sinks) > 1:
        return _solve(ball, objective, (arc,))
    COUNTS.path_programs += 1
    if c + space.d[a][b] < 0:
        return LpSolution(status=INFEASIBLE, value=None, argument=None, row_duals=None)
    t = sinks[0] if sinks else base
    # the path lengths from t as ints over den
    D, scale = space.int_view
    cd = c.denominator
    den = scale * cd
    direct = [dx * cd for dx in D[t]]
    via = direct[a] + c.numerator * scale
    h = [min(dx, via + dbx * cd) for dx, dbx in zip(direct, D[b])]
    side_row = len(ball.rows)
    multipliers, length = {}, ZERO
    for x, m in enumerate(w):
        if m > 0:
            if h[x] == direct[x]:
                path = (_row_index(n, x, t),)
            else:
                path = (_row_index(n, a, t),) * (a != t) + (side_row,) + (_row_index(n, x, b),) * (x != b)
            for r in path:
                multipliers[r] = multipliers.get(r, ZERO) + m
            length += m * h[x]
    value = length / den
    g = [Fraction(hx - h[base], den) for hx in h]
    witness, cvec = [g[p] for p in range(n) if p != base], [w[p] for p in range(n) if p != base]
    _verify_lip_solution(ball.rows + _arc_rows(ball, (arc,)), cvec, witness, multipliers, value, ball)
    return LpSolution(status=OPTIMAL, value=value, argument=LipFunction(space, tuple(g)), row_duals=multipliers)


def max_over_pairs(
    space: FiniteMetricSpace,
    base_fn: LipFunction,
    threshold,
    objective,
    pairs=None,
) -> PairMaxResult:
    """Best objective value over g in the ball with some pair witnessing
    (base_fn - g)(m_pq) >= threshold; one program per pair (p, q) of pairs,
    every ordered pair of distinct points by default.

    The side row of pair (p, q) is that witness inequality times d(p, q):
    g(p) - g(q) <= f(p) - f(q) - d(p, q) threshold, the arc q -> p of
    solve_pair_program. A pair with f(p) - f(q) + d(p, q) < d(p, q) threshold
    is skipped, as g(p) - g(q) >= -d(p, q) on the ball; that test runs on
    ints over the common denominators of f, the distances and the threshold.
    """
    threshold = rat(threshold)
    if threshold > 2:
        raise ValueError("threshold must be <= 2")
    objective = _as_weights(objective)
    fnum, fden = over_common_denominator(base_fn.values)
    D, scale = space.int_view
    # (fnum[p] - fnum[q]) / fden + D / scale < D / scale * threshold, times fden * scale * tden
    gap_factor = scale * threshold.denominator
    dist_factor = fden * (threshold.numerator - threshold.denominator)
    values, d = base_fn.values, space.d
    best = None
    for p, q in space.ordered_pairs() if pairs is None else pairs:
        if (fnum[p] - fnum[q]) * gap_factor < D[p][q] * dist_factor:
            continue  # infeasible: g(m_pq) >= -1 always
        sol = solve_pair_program(space, objective, (q, p, values[p] - values[q] - d[p][q] * threshold))
        if sol.status != OPTIMAL:
            continue
        if best is None or sol.value > best[1]:
            best = ((p, q), sol.value, sol.argument)
    if best is None:
        return PairMaxResult(status=INFEASIBLE, value=None, pair=None, argument=None)
    return PairMaxResult(status=OPTIMAL, value=best[1], pair=best[0], argument=best[2])
