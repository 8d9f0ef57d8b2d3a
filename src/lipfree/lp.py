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

Every optimal solve is checked exactly, independently of the pivoting, by
one checker in two halves: the witness half (the witness meets every row
and attains the value) and the multiplier half (the multipliers are
nonnegative, combine the rows into the objective and attain the same
value), together a proof of optimality by weak duality. Both halves run on
Python ints, read only the returned rationals and the rows, never the
solver's basis, and name exact rationals when a check fails.

The per-pair programs of ``max_over_pairs`` and
``diametral.wstar_delta_radius`` have one side arc and an objective
sum_x m_x (g(x) - g(t)), every m_x >= 0: shortest-path programs, which
``solve_pair_program`` answers in closed form, checked like every solve.
A sweep needs only its maximum, so ``scan_pairs`` computes each pair's
value and path multipliers on ints and checks the multiplier half alone,
an upper bound on that pair; the winner is then solved again and checked
in full, so its witness attains the largest bound and the maximum is
exact. COUNTS totals the simplex solves, their pivots and Bland
fallbacks, and these path programs.
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
    witness the values of f on the non-base points. The witness half
    (_check_witness): the witness meets every row and attains value. The
    multiplier half (_check_multipliers): the multipliers (row -> y_r) are
    nonnegative, sum coefficientwise to c and have bound-weighted sum value.
    Then c . g = sum_r y_r (coefs_r . g) <= value for every feasible g (weak
    duality), so the witness is a maximizer and the multipliers a minimizer.

    The witness, c and the multipliers are each put over their common
    denominator and both halves run on those ints. Only the returned
    rationals, the rows and ball are read, never the solver's basis. Given
    ball, a BallRows, rows begin with its rows, which the halves read from
    ball and check on the int_view of its space.
    """
    first = 0 if ball is None else len(ball.rows)
    extra = [(coefs, (bound.numerator, bound.denominator)) for coefs, bound in rows[first:]]
    wnum, wden = over_common_denominator(witness)
    cnum, cden = over_common_denominator(c)
    ynum, yden = over_common_denominator(multipliers.values())
    vnum, vden = value.numerator, value.denominator
    _check_witness(ball, extra, cnum, cden, wnum, wden, vnum, vden)
    _check_multipliers(ball, extra, cnum, cden, zip(multipliers, ynum), yden, vnum, vden)


def _check_witness(ball, rows, c, cden, wnum, wden, vnum, vden):
    """The witness half of _verify_lip_solution, on ints: f = wnum / wden by
    variable meets the rows of ball (when given, by _check_ball_rows) and
    rows, numbered after them, each (coefs, (bound numerator, bound
    denominator)); and it attains vnum / vden on the objective c / cden. A
    row is checked as lhs * bound den <= bound num * wden and the attainment
    as sum c wnum = value * cden * wden; a failure names the row or the
    value in exact rationals."""
    first = 0 if ball is None else _check_ball_rows(ball, wnum, wden)
    for r, (coefs, (bnum, bden)) in enumerate(rows, first):
        lhs = 0
        for v, coef in coefs:
            lhs += coef * wnum[v]
        if lhs * bden > bnum * wden:
            raise SimplexError(f"witness violates row {r}: {Fraction(lhs, wden)} > {Fraction(bnum, bden)}")
    attained = sum(ci * wi for ci, wi in zip(c, wnum) if ci)
    if attained * vden != vnum * cden * wden:
        raise SimplexError(
            f"witness attains {Fraction(attained, cden * wden)}, not the LP value {Fraction(vnum, vden)}"
        )


def _check_multipliers(ball, rows, c, cden, y, yden, vnum, vden):
    """The multiplier half of _verify_lip_solution, on ints: for each
    (r, num) of y, y_r = num / yden is nonnegative, sum_r y_r coefs_r is
    the objective c / cden and sum_r y_r bound_r is vnum / vden. Rows below
    len(ball.rows), when ball is given, are ball's, bound D[p][q] / scale on
    the int_view of its space; the others are rows, laid out as for
    _check_witness. Only the rows in y are read, and every sum is compared
    cross-multiplied; a failure names the row, the variable or the sum in
    exact rationals."""
    first, D, scale = 0, None, 1
    if ball is not None:
        first = len(ball.rows)
        D, scale = ball.space.int_view
    combined = [0] * len(c)
    ball_sum, num, den = 0, 0, 1  # the other rows add num / den to sum_r y_r bound_r
    for r, yr in y:
        if yr < 0:
            raise SimplexError(f"multiplier of row {r} is negative: {Fraction(yr, yden)}")
        if r < first:
            coefs = ball.rows[r][0]
            p, q = ball.arcs[r & ~1]  # rows 2k and 2k + 1 both have bound d(p, q), p < q
            ball_sum += yr * D[p][q]
        else:
            coefs, (bnum, bden) = rows[r - first]
            num, den = num * bden + yr * bnum * den, den * bden
        for v, coef in coefs:
            combined[v] += yr * coef
    for v, (got, want) in enumerate(zip(combined, c)):
        if got * cden != want * yden:
            raise SimplexError(f"multipliers give {Fraction(got, yden)}, not {Fraction(want, cden)}, on variable {v}")
    # sum_r y_r bound_r = (ball_sum / scale + num / den) / yden
    total, total_den = ball_sum * den + scale * num, yden * den * scale
    if total * vden != vnum * total_den:
        raise SimplexError(
            f"multipliers attain {Fraction(total, total_den)}, not the LP value {Fraction(vnum, vden)}"
        )


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


def _sink_form(space: FiniteMetricSpace, objective: dict) -> Optional[tuple]:
    """(t, sources, mden): the objective, exact weights by point, its base
    weight restored, as sum_x m_x (delta_x - delta_t) with m_x = m / mden > 0
    for each (x, m) of sources, x ascending. t is the one point of negative
    weight, or the base when there is none; None when there are two."""
    base = space.base
    w = [ZERO] * space.n
    for p, wp in objective.items():
        if p != base:
            w[p] += wp
    w[base] = -sum(w)
    nums, mden = over_common_denominator(w)
    sinks = [p for p, m in enumerate(nums) if m < 0]
    if len(sinks) > 1:
        return None
    return (sinks[0] if sinks else base), [(x, m) for x, m in enumerate(nums) if m > 0], mden


def _objective_vars(ball: BallRows, t: int, sources) -> list:
    """The objective of a sink form by variable, numerators over its mden."""
    var, c = ball.var, [0] * (len(ball.points) - 1)
    for x, m in sources:
        if var[x] is not None:
            c[var[x]] = m
        if var[t] is not None:
            c[var[t]] -= m
    return c


def _infeasible(space: FiniteMetricSpace, arc) -> bool:
    """Whether the side arc (a, b, cnum, cden), g(b) - g(a) <= cnum / cden,
    closes a negative cycle with the ball arc a -> b: c + d(a, b) < 0."""
    D, scale = space.int_view
    a, b, cnum, cden = arc
    return D[a][b] * cden + cnum * scale < 0


def _lengths(space: FiniteMetricSpace, t: int, arc, points) -> list:
    """The shortest-path length from t of each x of points over the ball arcs
    y -> z of length d(y, z) and the side arc (a, b, cnum, cden) of length
    c = cnum / cden: h(x) = min(d(t, x), d(t, a) + c + d(b, x)), as ints over
    scale * cden."""
    D, scale = space.int_view
    a, b, cnum, cden = arc
    Dt, Db = D[t], D[b]
    via = Dt[a] * cden + cnum * scale
    return [min(Dt[x] * cden, via + Db[x] * cden) for x in points]


def _path_flow(space: FiniteMetricSpace, t: int, sources, arc) -> tuple:
    """(y, total) of a sink form's path program: the flow of the
    shortest-path tree, each source's m on every row of its path (the ball
    row x <- t where h(x) = d(t, x), else t -> a, the side row, b -> x), as
    row -> int over mden, and sum_x m h(x), an int over mden * scale * cden."""
    n, D = space.n, space.int_view[0]
    a, b, _, cden = arc
    side_row = n * (n - 1)
    y, total = {}, 0
    for (x, m), hx in zip(sources, _lengths(space, t, arc, [x for x, _ in sources])):
        if hx == D[t][x] * cden:
            path = (_row_index(n, x, t),)
        else:
            path = (_row_index(n, a, t),) * (a != t) + (side_row,) + (_row_index(n, x, b),) * (x != b)
        for r in path:
            y[r] = y.get(r, 0) + m
        total += m * hx
    return y, total


def _solve_path(space: FiniteMetricSpace, t: int, sources, mden: int, arc) -> LpSolution:
    """The path program of the sink form (t, sources, mden) and the feasible
    int side arc (a, b, cnum, cden), checked in full: the witness
    h - h(base) (_lengths) passes the witness half of the checker and the
    path flow (_path_flow) the multiplier half."""
    ball, base, n = space.ball_rows, space.base, space.n
    a, b, cnum, cden = arc
    hden = space.int_view[1] * cden
    vden = mden * hden
    h = _lengths(space, t, arc, range(n))
    y, total = _path_flow(space, t, sources, arc)
    rows, c = _arc_rows(ball, ((a, b, (cnum, cden)),)), _objective_vars(ball, t, sources)
    wnum = [hx - h[base] for p, hx in enumerate(h) if p != base]
    _check_witness(ball, rows, c, mden, wnum, hden, total, vden)
    _check_multipliers(ball, rows, c, mden, y.items(), mden, total, vden)
    g = tuple(Fraction(hx - h[base], hden) for hx in h)
    duals = {r: Fraction(m, mden) for r, m in y.items()}
    return LpSolution(status=OPTIMAL, value=Fraction(total, vden), argument=LipFunction(space, g), row_duals=duals)


def solve_pair_program(space: FiniteMetricSpace, objective: dict, arc) -> LpSolution:
    """Exact optimum of the objective, exact weights by point, over the ball
    with one side arc (a, b, c), the row g(b) - g(a) <= c with c exact,
    numbered after the ball rows.

    With its base weight restored, the objective is a measure of total
    zero. When at most one point t has negative weight, it is
    sum_x m_x (g(x) - g(t)) with every m_x >= 0 (_sink_form), and the rows
    are difference constraints: arcs x -> y of length d(x, y) and the arc
    a -> b of length c. The shortest-path potential from t,
    h(x) = min(d(t, x), d(t, a) + c + d(b, x)), is then the largest
    g(x) - g(t) for every x at once, so it is optimal (Cormen, Leiserson,
    Rivest and Stein, Introduction to Algorithms, 3rd ed., 24.4); the
    program is infeasible exactly when c + d(a, b) < 0. The multipliers are
    the flow of the shortest-path tree: m_x on each row of the path of x.
    The witness h - h(base), these multipliers and the value pass both
    halves of the checker on ints (_solve_path), so a matrix that breaks
    the triangle inequality either fails there or leaves the value exact.
    COUNTS.path_programs counts the program. Any other objective is one
    simplex solve of the same rows.
    """
    a, b, c = arc
    ball = space.ball_rows
    _check_points(ball, objective)
    form = _sink_form(space, objective)
    if form is None:
        return _solve(ball, objective, (arc,))
    COUNTS.path_programs += 1
    arc = (a, b, c.numerator, c.denominator)
    if _infeasible(space, arc):
        return LpSolution(status=INFEASIBLE, value=None, argument=None, row_duals=None)
    return _solve_path(space, *form, arc)


def scan_pairs(space: FiniteMetricSpace, programs) -> Optional[tuple]:
    """(key, solution) of the first of a sweep of single-sink pair programs
    to attain the largest value plus offset, or None when every one is
    infeasible.

    programs yields (key, t, sources, mden, arc, offset), all ints: the
    objective sum_x m_x (g(x) - g(t)) as _sink_form gives it, the side arc
    (a, b, cnum, cden), the row g(b) - g(a) <= cnum / cden, and offset
    (num, den), a rational added to the value when programs are compared. A
    program with c + d(a, b) < 0 is infeasible and skipped. COUNTS counts
    each other program once; its value sum_x m_x h(x) and its path flow
    (_path_flow) pass the multiplier half of the checker, so the value is
    an upper bound on the program by weak duality. Values are compared
    cross-multiplied, and a losing program makes no Fraction, witness or
    LipFunction. The winner alone is solved again in full (_solve_path,
    not counted again): its witness attains its value, so the maximum is
    exact. A solve that does not return the scanned value is a SimplexError
    naming both.
    """
    ball, scale = space.ball_rows, space.int_view[1]
    best = None
    for key, t, sources, mden, arc, (onum, oden) in programs:
        if _infeasible(space, arc):
            continue
        COUNTS.path_programs += 1
        a, b, cnum, cden = arc
        y, total = _path_flow(space, t, sources, arc)
        vden = mden * scale * cden
        rows = _arc_rows(ball, ((a, b, (cnum, cden)),))
        _check_multipliers(ball, rows, _objective_vars(ball, t, sources), mden, y.items(), mden, total, vden)
        num, den = total * oden + onum * vden, vden * oden
        if best is None or num * best[2] > best[1] * den:
            best = (key, num, den, total, vden, (t, sources, mden, arc))
    if best is None:
        return None
    key, _, _, total, vden, program = best
    sol = _solve_path(space, *program)
    if sol.value.numerator * vden != total * sol.value.denominator:
        raise SimplexError(f"pair {key} solves to {sol.value}, not its scanned value {Fraction(total, vden)}")
    return key, sol


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
    solve_pair_program, made as ints over the common denominators of f, the
    distances and the threshold. A pair with f(p) - f(q) + d(p, q) <
    d(p, q) threshold is infeasible, as g(p) - g(q) >= -d(p, q) on the
    ball. A single-sink objective, which the certificates use, makes the
    sweep one scan_pairs: each pair's multipliers are checked and the
    winner in full. Any other objective is one simplex solve per feasible
    pair.
    """
    threshold = rat(threshold)
    if threshold > 2:
        raise ValueError("threshold must be <= 2")
    objective = _as_weights(objective)
    _check_points(space.ball_rows, objective)
    fnum, fden = over_common_denominator(base_fn.values)
    D, scale = space.int_view
    tnum, tden = threshold.numerator, threshold.denominator
    # c = f(p) - f(q) - d(p, q) threshold as cnum / cden; a pair with
    # c + d(p, q) < 0, which is (fnum[p] - fnum[q]) gap < D[p][q] slack, makes no arc
    gap, slack, cden = scale * tden, fden * (tnum - tden), fden * scale * tden
    arcs = (
        ((p, q), (q, p, (fnum[p] - fnum[q]) * gap - D[p][q] * fden * tnum, cden))
        for p, q in (space.ordered_pairs() if pairs is None else pairs)
        if (fnum[p] - fnum[q]) * gap >= D[p][q] * slack
    )
    form = _sink_form(space, objective)
    if form is not None:
        best = scan_pairs(space, ((pair, *form, arc, (0, 1)) for pair, arc in arcs))
    else:
        best = None
        for pair, (a, b, cnum, _) in arcs:
            sol = solve_pair_program(space, objective, (a, b, Fraction(cnum, cden)))
            if sol.status == OPTIMAL and (best is None or sol.value > best[1].value):
                best = (pair, sol)
    if best is None:
        return PairMaxResult(status=INFEASIBLE, value=None, pair=None, argument=None)
    pair, sol = best
    return PairMaxResult(status=OPTIMAL, value=sol.value, pair=pair, argument=sol.argument)
