"""Exact rational linear programming over the Lipschitz unit ball.

One program family runs on the simplex core: maximize a linear functional
over {f : ||f||_Lip <= 1, f(base) = 0}, with optional linear side
constraints. It is solved through its dual, a standard-form program whose
basis has one row per free variable. The dual of the norm program is the
min-cost transport on the complete graph with the base point absorbing
imbalance: the multiplier of the row f(p) - f(q) <= d(p, q) is the mass
moved along the arc p -> q, so one solve yields both the norming function
and the transport plan. The dual is always feasible: the star transport,
which sends each point's mass straight to the base, uses only the arcs
p -> base and base -> p, whose columns are the unit columns of the
variable of p. The simplex starts there, in one phase.

Every optimal solve is checked exactly, independently of the pivoting:
the witness meets every row and attains the value, and the multipliers are
nonnegative, combine the rows into the objective and attain the same value.
By weak duality this pair is a proof of optimality. The check runs on
Python ints: the ball rows, built once per space (``ball_rows`` of the
space) and shared by all its programs, have coefficients +-1, so with the
witness over its common denominator each row is one cross-multiplied int
comparison. The checker reads only the returned rationals and the rows,
never the solver's basis, and names exact rationals when a check fails.

All pivoting is exact and runs on Python ints: the rows are scaled to
integers, and each solve keeps one integer tableau, which every pivot
updates by the same fraction-free (Bareiss) step. Results are converted
back to rationals only at the end. The pivot rule is Dantzig with
smallest-index tie-breaking, falling back to Bland's rule after an
iteration cap, so runs are deterministic and cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Optional

from .functions import LipFunction
from .metric import FiniteMetricSpace
from .scalars import ONE, Scalar, ZERO, over_common_denominator, rat

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_DANTZIG_CAP_FACTOR = 20


class SimplexError(RuntimeError):
    pass


def simplex_standard(cols, b, costs):
    """min costs.x  s.t.  sum_j x_j * cols[j] = b,  x >= 0.

    cols: sparse columns as [(row, coef), ...], with int or Fraction
    entries like b and costs. Returns
    (status, x: dict, value, duals: list per row). One-phase revised
    simplex over Python ints, started at a diagonal basis: for each row the
    first column whose only entry sits on that row and is positive once the
    row is signed so that its b is nonnegative. That basis is feasible, so
    no phase 1 is needed; a row with no such column raises SimplexError.

    Each row is negated where b is negative and multiplied by the least
    common multiple of the denominators of its coefficients; b and the
    costs are each brought over one common denominator. Row scaling leaves
    x and the reduced costs unchanged, so every basis is the scaled image
    of the rational one. The solver state is one (m+1) x (m+1) integer
    tableau over det, the basis determinant (positive, as the start's
    diagonal and every pivot are): rows 0..m-1 hold [adj B | x_B] and row m
    [y = c_B adj B | c_B x_B]. A pivot maps every other row i to
    (piv * row - d_i * pivot row) // det, an exact division of integer
    minors (Bareiss), with d_i the entering column in the basis and, for
    the cost row, minus its reduced cost. Reduced costs are integer
    numerators over det and the ratio test cross-multiplies, so the pivots
    are those of the rational simplex.
    """
    m = len(b)
    n = len(cols)
    b_num, b_den = over_common_denominator(b)
    c_num, c_den = over_common_denominator(costs)
    scale = [1] * m
    for col in cols:
        for r, a in col:
            scale[r] = lcm(scale[r], a.denominator)
    sign_scale = [-s if num < 0 else s for s, num in zip(scale, b_num)]
    icols = [[(r, a.numerator * (sign_scale[r] // a.denominator)) for r, a in col] for col in cols]

    basis = [-1] * m
    for j, col in enumerate(icols):
        if len(col) == 1 and col[0][1] > 0 and basis[col[0][0]] < 0:
            basis[col[0][0]] = j
    if -1 in basis:
        raise SimplexError(f"row {basis.index(-1)} has no positive unit column to start from")
    det = prod(icols[j][0][1] for j in basis)
    # [adj B | x_B] of the diagonal start, x_B over det * b_den, and the cost row
    tableau = [[0] * (m + 1) for _ in range(m + 1)]
    cost_row = tableau[m]
    for r, (num, j) in enumerate(zip(b_num, basis)):
        row = tableau[r]
        row[r] = det // icols[j][0][1]
        row[m] = row[r] * num * sign_scale[r]
        cost_row[r] = c_num[j] * row[r]
        cost_row[m] += c_num[j] * row[m]
    in_basis = [False] * n
    for j in basis:
        in_basis[j] = True

    cap = _DANTZIG_CAP_FACTOR * (m + n)
    iteration = 0
    while True:
        iteration += 1
        if iteration > cap + 200000:
            raise SimplexError("pivot limit exceeded")
        y = tableau[m]
        entering = -1
        best_rc = 0
        bland = iteration > cap
        for j in range(n):
            if in_basis[j]:
                continue
            rc = det * c_num[j]  # reduced cost times det
            for r, a in icols[j]:
                rc -= y[r] * a
            if rc < best_rc:
                best_rc, entering = rc, j
                if bland:
                    break
        if entering < 0:
            break
        # the entering column in the current basis is dvec / det
        dvec = [0] * m
        for r, a in icols[entering]:
            dvec = [d + row[r] * a for d, row in zip(dvec, tableau)]
        leaving = -1
        for i in range(m):
            di = dvec[i]
            if di > 0:
                if leaving < 0:
                    leaving = i
                    continue
                lhs = tableau[i][m] * dvec[leaving]
                rhs = tableau[leaving][m] * di
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        if leaving < 0:
            return UNBOUNDED, {}, None, None
        dvec.append(-best_rc)
        # the new determinant is dvec[leaving] > 0; rows divide exactly by det
        piv = dvec[leaving]
        prow = tableau[leaving]
        for i, (row, di) in enumerate(zip(tableau, dvec)):
            if i != leaving and (di or piv != det):
                tableau[i] = [(piv * a - di * p) // det for a, p in zip(row, prow)]
        det = piv
        in_basis[basis[leaving]] = False
        in_basis[entering] = True
        basis[leaving] = entering

    x = {j: Fraction(row[m], det * b_den) for j, row in zip(basis, tableau) if row[m]}
    value = Fraction(y[m], c_den * det * b_den)
    duals = [Fraction(s * yr, c_den * det) for s, yr in zip(sign_scale, y)]
    return OPTIMAL, x, value, duals


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
    side_constraints: tuple = ()


@dataclass(frozen=True)
class LpSolution:
    status: str
    value: Optional[Scalar]
    argument: Optional[LipFunction]
    row_duals: Optional[dict]  # primal-constraint index -> multiplier


def _as_weights(obj) -> dict:
    if hasattr(obj, "weight_dict"):
        return obj.weight_dict()
    return dict(obj)


def _check_points(space, weights):
    for p in weights:
        if not (0 <= p < space.n):
            raise ValueError(f"point index {p} outside space")


def solve_lip_ball(program: LipBallProgram) -> LpSolution:
    """Exact optimum of the objective over the Lipschitz unit ball."""
    space = program.space
    objective = _as_weights(program.objective)
    _check_points(space, objective)
    base = space.base
    ball = space.ball_rows
    var, rows = ball.var, ball.rows
    side_rows = []
    for sc in program.side_constraints:
        weights = _as_weights(sc.weights)
        _check_points(space, weights)
        # var is injective, so each weight is the coefficient of its variable
        coefs = sorted((var[p], rat(w)) for p, w in weights.items() if p != base and w != 0)
        bound = rat(sc.bound)
        if sc.relation == "<=":
            side_rows.append((tuple(coefs), bound))
        elif sc.relation == ">=":
            side_rows.append((tuple((v, -c) for v, c in coefs), -bound))
        else:
            raise ValueError(f"unknown relation: {sc.relation}")
    if side_rows:
        rows = rows + tuple(side_rows)

    c = [ZERO] * (space.n - 1)
    for p, w in objective.items():
        if p != base:
            c[var[p]] += rat(w)

    # dual: min bounds.y  s.t.  (row coefs)^T y = c,  y >= 0
    # is always feasible: its start basis is the star transport to the base
    status, x, value, duals = simplex_standard(
        [coefs for coefs, _ in rows], c, [bound for _, bound in rows]
    )
    if status == UNBOUNDED:
        return LpSolution(status=INFEASIBLE, value=None, argument=None, row_duals=None)

    _verify_lip_solution(rows, c, duals, x, value)
    values = tuple(ZERO if v is None else duals[v] for v in var)
    arg = LipFunction(space=space, values=values)
    return LpSolution(status=OPTIMAL, value=value, argument=arg, row_duals=dict(x))


def _verify_lip_solution(rows, c, witness, multipliers, value):
    """Exact optimality certificate of one ball solve, independent of pivoting.

    rows are (coefs, bound) meaning coefs . f <= bound, with coefs a tuple of
    (variable, coefficient) sorted by variable; c is the objective and
    witness the values of f on the non-base points. The witness must meet
    every row and attain value; the multipliers (row -> y_r) must be
    nonnegative, sum coefficientwise to c and have bound-weighted sum value.
    Then c . g = sum_r y_r (coefs_r . g) <= value for every feasible g (weak
    duality), so the witness is a maximizer and the multipliers a minimizer.

    The witness is put over its common denominator wden, so a row with int
    coefficients is checked in ints as lhs * bound.den <= bound.num * wden;
    a row with Fraction coefficients gives a Fraction lhs and the same
    comparison stays exact. The multiplier checks touch only the nonzero
    multipliers, at most one per variable. Only the returned rationals and
    the rows are read, never the solver's basis, and a failure names the
    exact values.
    """
    wnum, wden = over_common_denominator(witness)
    for r, (coefs, bound) in enumerate(rows):
        lhs = 0
        for v, coef in coefs:
            lhs += coef * wnum[v]
        if lhs * bound.denominator > bound.numerator * wden:
            raise SimplexError(f"witness violates row {r}: {Fraction(lhs, wden)} > {bound}")
    attained = sum((ci * fi for ci, fi in zip(c, witness) if ci), ZERO)
    if attained != value:
        raise SimplexError(f"witness attains {attained}, not the LP value {value}")
    combined = [ZERO] * len(c)
    bound_sum = ZERO
    for r, y in multipliers.items():
        if y < 0:
            raise SimplexError(f"multiplier of row {r} is negative: {y}")
        coefs, bound = rows[r]
        for v, coef in coefs:
            combined[v] += y * coef
        bound_sum += y * bound
    for v, (got, want) in enumerate(zip(combined, c)):
        if got != want:
            raise SimplexError(f"multipliers give {got}, not {want}, on variable {v}")
    if bound_sum != value:
        raise SimplexError(f"multipliers attain {bound_sum}, not the LP value {value}")


# ---------------------------------------------------------------------------
# transport primal


@dataclass(frozen=True)
class TransportPlan:
    flows: tuple  # ((p, q, mass), ...) sorted by (p, q)
    cost: Scalar


def ball_plan(space: FiniteMetricSpace, sol: LpSolution) -> TransportPlan:
    """The transport plan in the multipliers of a ball solve with no side rows.

    The multiplier of the row of arc p -> q (space.ball_rows.arcs) is the
    mass on that arc.
    """
    if sol.status != OPTIMAL:
        raise SimplexError(f"norm program unexpectedly {sol.status}")
    arcs = space.ball_rows.arcs
    flows = sorted((*arcs[r], mass) for r, mass in sol.row_duals.items())
    return TransportPlan(flows=tuple(flows), cost=sol.value)


def min_cost_transport(space: FiniteMetricSpace, mu) -> TransportPlan:
    """Cheapest flow realizing mu, the base point absorbing any imbalance."""
    return ball_plan(space, solve_lip_ball(LipBallProgram(space=space, objective=mu)))


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


def max_over_pairs(
    space: FiniteMetricSpace,
    base_fn: LipFunction,
    threshold,
    objective,
    pairs=None,
) -> PairMaxResult:
    """Best objective value over g in the ball with some pair witnessing
    (base_fn - g)(m_pq) >= threshold; one LP per pair (p, q) of pairs,
    every ordered pair of distinct points by default.
    """
    threshold = rat(threshold)
    if threshold > 2:
        raise ValueError("threshold must be <= 2")
    objective = _as_weights(objective)
    best = None
    for p, q in space.ordered_pairs() if pairs is None else pairs:
        fval = base_fn.molecule_value(p, q)
        if fval + ONE < threshold:
            continue  # infeasible: g(m_pq) >= -1 always
        side = SideConstraint(
            weights=molecule_weights(space, p, q),
            relation="<=",
            bound=fval - threshold,
        )
        sol = solve_lip_ball(
            LipBallProgram(space=space, objective=objective, side_constraints=(side,))
        )
        if sol.status != OPTIMAL:
            continue
        if best is None or sol.value > best[1]:
            best = ((p, q), sol.value, sol.argument)
    if best is None:
        return PairMaxResult(status=INFEASIBLE, value=None, pair=None, argument=None)
    return PairMaxResult(status=OPTIMAL, value=best[1], pair=best[0], argument=best[2])
