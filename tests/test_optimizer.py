import random
import re
from fractions import Fraction
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipfree import lp
from lipfree.diametral import wstar_delta_radius
from lipfree.free import FreeElement, Molecule
from lipfree.functions import LipFunction
from lipfree.metric import FiniteMetricSpace, ball_rows, build_simplex_space
from lipfree.reproduce import verify_example1, verify_example2
from lipfree.sampling import random_lip_function, random_space
from lipfree.scalars import ONE, ZERO, as_float, rat
from test_free_space import fresh_subspace


def _reference_simplex(cols, b, costs):
    """Dense Fraction revised simplex with the start and pivot rule of
    simplex_standard: rows signed so that b >= 0, each row's first positive
    unit column as the start, Dantzig with smallest-index ties (Bland after
    the same cap), and ties of the ratio test to the smallest basic column."""
    m, n = len(b), len(cols)
    sign = [-1 if bi < 0 else 1 for bi in b]
    A = [[Fraction(0)] * n for _ in range(m)]
    for j, col in enumerate(cols):
        for r, a in col:
            A[r][j] = sign[r] * a
    rhs = [s * bi for s, bi in zip(sign, b)]
    basis = [
        next(j for j, col in enumerate(cols) if len(col) == 1 and col[0][0] == r and A[r][j] > 0)
        for r in range(m)
    ]
    binv = [[Fraction(int(i == r)) / A[r][basis[r]] for i in range(m)] for r in range(m)]

    def solution():
        xb = [sum(row[r] * rhs[r] for r in range(m)) for row in binv]
        y = [sum(costs[basis[i]] * binv[i][r] for i in range(m)) for r in range(m)]
        return xb, y

    cap = 20 * (m + n)
    for iteration in range(1, 10 * cap):
        xb, y = solution()
        rcs = [
            (costs[j] - sum(y[r] * A[r][j] for r in range(m)), j)
            for j in range(n)
            if j not in basis
        ]
        improving = [(rc, j) for rc, j in rcs if rc < 0]
        if not improving:
            break
        entering = improving[0][1] if iteration > cap else min(improving)[1]
        d = [sum(row[r] * A[r][entering] for r in range(m)) for row in binv]
        ratios = [(xb[i] / d[i], basis[i], i) for i in range(m) if d[i] > 0]
        if not ratios:
            return lp.UNBOUNDED, {}, None, None
        leaving = min(ratios)[2]
        prow = [v / d[leaving] for v in binv[leaving]]
        binv = [
            prow if i == leaving else [v - d[i] * p for v, p in zip(row, prow)]
            for i, row in enumerate(binv)
        ]
        basis[leaving] = entering
    xb, y = solution()
    x = {j: v for j, v in zip(basis, xb) if v}
    value = sum((costs[j] * v for j, v in x.items()), ZERO)
    return lp.OPTIMAL, x, value, [s * yr for s, yr in zip(sign, y)]


def _random_rational(rng):
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5)))


def _network_column(rng, m):
    """A random column of a node-arc incidence matrix with one node's row
    deleted: a unit column +-1, or +1 and -1 on two distinct rows."""
    if m > 1 and rng.random() < 0.6:
        r, s = rng.sample(range(m), 2)
        return sorted([(r, 1), (s, -1)])
    return [(rng.randrange(m), rng.choice((1, -1)))]


class TestSimplexCore:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_fraction_reference(self, seed):
        # random network programs with negative-b rows, rational b and costs
        # and a start column per row (a unit column signed like b), shuffled
        # among decoy unit columns of the wrong sign, random network columns
        # and copies of columns
        rng = random.Random(seed)
        m = rng.randint(1, 4)
        b = [_random_rational(rng) for _ in range(m)]
        cols = []
        for r in range(m):
            cols.append([(r, -1 if b[r] < 0 else 1)])
            if rng.random() < 0.3:
                cols.append([(r, 1 if b[r] < 0 else -1)])
        cols += [_network_column(rng, m) for _ in range(rng.randint(0, 6))]
        columns = [(col, _random_rational(rng) + 2) for col in cols]  # mostly bounded
        columns += rng.choices(columns, k=rng.randint(0, 2))  # exact ties in pricing
        rng.shuffle(columns)
        cols, costs = [col for col, _ in columns], [cost for _, cost in columns]
        assert lp.simplex_standard(cols, b, costs) == _reference_simplex(cols, b, costs)

    def test_small_known_optimum(self):
        # min x0 + 2 x1  s.t.  x0 + x1 = 3, x0 <= 2 (as x0 + s = 2)
        cols = [[(0, ONE), (1, ONE)], [(0, ONE)], [(1, ONE)]]
        status, x, value, duals = lp.simplex_standard(
            cols, [rat(3), rat(2)], [rat(1), rat(2), rat(0)]
        )
        assert status == lp.OPTIMAL
        assert value == 4  # x0 = 2, x1 = 1
        assert x[0] == 2 and x[1] == 1

    def test_unbounded(self):
        # min -x0 - x1 s.t. x0 - x1 = 0
        cols = [[(0, ONE)], [(0, -ONE)]]
        status, *_ = lp.simplex_standard(cols, [ZERO], [rat(-1), rat(-1)])
        assert status == lp.UNBOUNDED

    def test_degenerate_does_not_cycle(self):
        # many redundant columns hitting the same rows
        cols = [[(0, ONE)], [(0, ONE), (1, ONE)], [(1, ONE)], [(0, ONE), (1, -ONE)]]
        status, _, value, _ = lp.simplex_standard(
            cols, [rat(1), rat(1)], [rat(0), rat(0), rat(0), rat(1)]
        )
        assert status == lp.OPTIMAL
        assert value == 0

    def test_flipped_row_with_rational_coefficients(self):
        # min 2 x0 + 5/2 x1 + 1/3 x2  s.t.  -x0 - x1 = -3/2,  x0 + x2 = 1/2;
        # b of the first row is negative, so it starts from its negative unit
        # column x1, and x0 enters at reduced cost 2 - 5/2 - 1/3 = -5/6
        cols = [
            [(0, -1), (1, 1)],
            [(0, -1)],
            [(1, 1)],
        ]
        status, x, value, duals = lp.simplex_standard(
            cols, [rat("-3/2"), rat("1/2")], [rat(2), rat("5/2"), rat("1/3")]
        )
        assert status == lp.OPTIMAL
        assert x == {0: rat("1/2"), 1: ONE}
        assert value == rat("7/2")
        assert duals == [rat("-5/2"), rat("-1/2")]

    def test_row_without_start_column_is_an_error(self):
        # row 0 has the unit column 1; row 1 meets only column 0, which has
        # two entries, and the negative unit column 2, so no start is there
        cols = [[(0, ONE), (1, ONE)], [(0, ONE)], [(1, -ONE)]]
        with pytest.raises(lp.SimplexError, match="row 1 "):
            lp.simplex_standard(cols, [ONE, ONE], [ONE, ONE, ONE])

    def test_costs_with_different_denominators(self):
        # min 1/2 x0 + 2/3 x1 + 3/4 x2  s.t.  x0 + x1 = 2,  x1 + x2 = 1
        cols = [[(0, ONE)], [(0, ONE), (1, ONE)], [(1, ONE)]]
        status, x, value, duals = lp.simplex_standard(
            cols, [rat(2), rat(1)], [rat("1/2"), rat("2/3"), rat("3/4")]
        )
        assert status == lp.OPTIMAL
        assert x == {0: ONE, 1: ONE}
        assert value == rat("7/6")
        assert duals == [rat("1/2"), rat("1/6")]

    def test_bland_fallback(self, monkeypatch):
        # min -x2 - 2 x3 - 3 x4  s.t.  s0 + x2 + x4 = 3,  s1 - x2 + x3 = 2
        # starts at the slacks s0, s1 and has two optimal vertices, as x4 and
        # the path x2, x3 cost -3 alike; Dantzig enters x4 (reduced cost -3),
        # Bland the first improving x2
        program = (
            [[(0, 1)], [(1, 1)], [(0, 1), (1, -1)], [(1, 1)], [(0, 1)]],
            [rat(3), rat(2)],
            [ZERO, ZERO, -ONE, rat(-2), rat(-3)],
        )
        assert lp.simplex_standard(*program) == (lp.OPTIMAL, {4: 3, 3: 2}, -13, [-3, -2])
        monkeypatch.setattr(lp, "_DANTZIG_CAP_FACTOR", 0)  # Bland from the start
        before = lp.COUNTS.bland_fallbacks
        assert lp.simplex_standard(*program) == (lp.OPTIMAL, {2: 3, 3: 5}, -13, [-3, -2])
        assert lp.COUNTS.bland_fallbacks == before + 1

    def test_pivot_limit_stops_a_cycling_rule(self, monkeypatch):
        # a rule that never reports the optimum swaps the two columns of one
        # row forever; the limit, the cap plus rows x columns, 20 (1 + 2) + 1 x 2,
        # stops it
        monkeypatch.setattr(lp, "_entering", lambda t, bland: (t.in_basis.index(False), -1))
        with pytest.raises(lp.SimplexError, match="pivot limit exceeded: 62 pivots on 1 rows and 2 columns"):
            lp.simplex_standard([[(0, 1)], [(0, 1)]], [ONE], [ONE, ONE])

    def test_start_entry_other_than_unit_is_an_error(self):
        with pytest.raises(lp.SimplexError, match=re.escape("start entry 2 of column 0 on row 0 is not +-1")):
            lp.simplex_standard([[(0, 2)]], [ONE], [ONE])

    def test_pivot_entry_other_than_one_is_an_error(self):
        # column 1 prices 0 - 1 x 2 < 0 and enters on row 0, where its entry is 2
        with pytest.raises(lp.SimplexError, match=re.escape("pivot entry 2 of column 1 on row 0 is not 1")):
            lp.simplex_standard([[(0, 1)], [(0, 2)]], [ONE], [ONE, ZERO])


class TestDualResolve:
    """What COUNTS adds per solve and per certificate run."""

    def test_counts_are_added_once_per_solve(self, monkeypatch):
        space = build_simplex_space(4, 1)
        f = random_lip_function(random.Random(3), space)
        calls = []
        solve = lp.simplex_standard

        def counting(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(lp, "simplex_standard", counting)
        before = lp.COUNTS.as_dict()
        # points 2 and 3 both carry negative weight, so no pair is a path program
        lp.max_over_pairs(space, f, rat("3/2"), {1: ONE, 2: -ONE, 3: -ONE})
        assert lp.COUNTS.solves - before["solves"] == len(calls) > 0
        assert lp.COUNTS.primal_pivots > before["primal_pivots"]
        assert lp.COUNTS.path_programs == before["path_programs"]

    @pytest.mark.parametrize(
        "run, counts",
        [
            (lambda: verify_example2(N=4, n=3, samples=2, seed=77), (40, 106, 0, 72)),
            (lambda: verify_example1(N=12, n=3, samples=5, seed=9), (1, 1, 0, 8)),
        ],
        ids=["example2-both-sweeps", "example1"],
    )
    def test_pivot_counts_are_pinned(self, run, counts):
        # solves, pivots, Bland fallbacks and path programs of one run: a change
        # to the start basis, the pivot rule, a column's scale or the sink test moves them
        before = lp.COUNTS.as_dict()
        run()
        assert tuple(v - before[k] for k, v in lp.COUNTS.as_dict().items()) == counts


def _scipy_lip_ball(space, objective, side=()):
    """Float oracle via scipy: maximize objective over the Lipschitz ball."""
    import numpy as np
    from scipy.optimize import linprog

    base = space.base
    vars_ = [p for p in space.points() if p != base]
    pos = {p: i for i, p in enumerate(vars_)}
    rows = []
    bounds = []
    for p, q in space.pairs():
        row = [0.0] * len(vars_)
        if p != base:
            row[pos[p]] = 1.0
        if q != base:
            row[pos[q]] = -1.0
        rows.append(row)
        bounds.append(as_float(space.d[p][q]))
        rows.append([-x for x in row])
        bounds.append(as_float(space.d[p][q]))
    for weights, relation, bound in side:
        row = [0.0] * len(vars_)
        for p, w in weights.items():
            if p != base:
                row[pos[p]] += as_float(w)
        if relation == ">=":
            row = [-x for x in row]
            bound = -bound
        rows.append(row)
        bounds.append(as_float(bound))
    c = [0.0] * len(vars_)
    for p, w in objective.items():
        if p != base:
            c[pos[p]] += as_float(w)
    res = linprog(
        [-x for x in c],
        A_ub=np.array(rows),
        b_ub=np.array(bounds),
        bounds=[(None, None)] * len(vars_),
        method="highs",
    )
    return res


class TestLipBall:
    def test_matches_float_oracle(self):
        rng = random.Random(20240817)
        for _ in range(30):
            space = random_space(rng, rng.randint(3, 6))
            objective = {
                p: rat(rng.randint(-4, 4))
                for p in space.points()
                if p != space.base
            }
            sol = lp.solve_lip_ball(lp.LipBallProgram(space=space, objective=objective))
            oracle = _scipy_lip_ball(space, objective)
            assert sol.status == lp.OPTIMAL
            assert oracle.status == 0
            assert abs(as_float(sol.value) + oracle.fun) < 1e-7

    def test_argument_is_feasible_and_attains(self, triangle):
        objective = {1: rat(1), 2: rat(-2)}
        sol = lp.solve_lip_ball(lp.LipBallProgram(space=triangle, objective=objective))
        f = sol.argument
        assert f.norm <= 1
        attained = sum(w * f.values[p] for p, w in objective.items())
        assert attained == sol.value

    def test_side_constraint_binds(self, triangle):
        # cap f at point 1, the unconstrained maximizer direction
        side = lp.SideConstraint(weights={1: ONE}, relation="<=", bound=rat(1))
        sol = lp.solve_lip_ball(
            lp.LipBallProgram(
                space=triangle, objective={1: ONE}, side_constraints=(side,)
            )
        )
        assert sol.value == 1

    def test_infeasible_side_constraints(self, triangle):
        side = (
            lp.SideConstraint(weights={1: ONE}, relation=">=", bound=rat(10)),
        )
        sol = lp.solve_lip_ball(
            lp.LipBallProgram(space=triangle, objective={1: ONE}, side_constraints=side)
        )
        assert sol.status == lp.INFEASIBLE

    def test_zero_objective(self, triangle):
        sol = lp.solve_lip_ball(lp.LipBallProgram(space=triangle, objective={}))
        assert sol.status == lp.OPTIMAL and sol.value == 0


class TestTransport:
    def test_molecule_costs_its_distance(self, triangle):
        weights = lp.molecule_weights(triangle, 1, 2)
        plan = lp.min_cost_transport(triangle, weights)
        assert plan.cost == 1  # molecules are normalized

    def test_delta_moves_to_base(self, triangle):
        plan = lp.min_cost_transport(triangle, {2: ONE})
        assert plan.cost == triangle.d[triangle.base][2]
        assert plan.flows == ((2, 0, ONE),)

    def test_zero_element(self, triangle):
        assert lp.min_cost_transport(triangle, {}).cost == 0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_duality_gap_zero(self, seed):
        rng = random.Random(seed)
        space = random_space(rng, rng.randint(3, 7))
        weights = {
            p: rat(rng.randint(-3, 3)) for p in space.points() if p != space.base
        }
        plan = lp.min_cost_transport(space, weights)
        sol = lp.solve_lip_ball(lp.LipBallProgram(space=space, objective=weights))
        assert sol.value == plan.cost


class TestBallPlan:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_plan_moves_the_element_at_its_cost(self, seed):
        rng = random.Random(seed)
        space = random_space(rng, rng.randint(2, 7))
        weights = {p: rat(rng.randint(-3, 3)) for p in space.points() if p != space.base}
        sol = lp.solve_lip_ball(lp.LipBallProgram(space=space, objective=weights))
        plan = lp.ball_plan(space.ball_rows, sol)
        net = {p: ZERO for p in space.points()}
        for p, q, mass in plan.flows:
            assert mass > 0
            net[p] += mass
            net[q] -= mass
        for p, w in weights.items():
            assert net[p] == w
        assert plan.cost == sol.value == sum(m * space.d[p][q] for p, q, m in plan.flows)

    def test_rejects_a_program_without_optimum(self, triangle):
        side = lp.SideConstraint(weights={1: ONE}, relation=">=", bound=rat(10))
        sol = lp.solve_lip_ball(
            lp.LipBallProgram(space=triangle, objective={1: ONE}, side_constraints=(side,))
        )
        with pytest.raises(lp.SimplexError):
            lp.ball_plan(triangle.ball_rows, sol)


def _tamper(monkeypatch, part):
    """Make simplex_standard raise one multiplier, or one witness value at a
    point the objective weighs, by 1/7 in its otherwise optimal answer."""
    solve = lp.simplex_standard

    def tampered(cols, b, costs, *rest):
        status, x, value, duals = solve(cols, b, costs, *rest)
        if part == "multiplier":
            r = max(x)
            x = {**x, r: x[r] + rat("1/7")}
        else:
            i = next(i for i, ci in enumerate(b) if ci)
            duals = [*duals]
            duals[i] += rat("1/7")
        return status, x, value, duals

    monkeypatch.setattr(lp, "simplex_standard", tampered)


class TestCertificateChecker:
    @pytest.mark.parametrize("part", ["multiplier", "witness"])
    @pytest.mark.parametrize("with_side_row", [False, True])
    def test_tampered_solution_is_rejected(self, triangle, monkeypatch, part, with_side_row):
        if with_side_row:
            # f(1) <= 1 binds, so the side row carries the last multiplier
            sides = (lp.SideConstraint(weights={1: ONE}, relation="<=", bound=ONE),)
            program = lp.LipBallProgram(space=triangle, objective={1: ONE}, side_constraints=sides)
        else:
            program = lp.LipBallProgram(space=triangle, objective={1: ONE, 2: rat(-2)})
        assert lp.solve_lip_ball(program).status == lp.OPTIMAL
        _tamper(monkeypatch, part)
        with pytest.raises(lp.SimplexError):
            lp.solve_lip_ball(program)

    def test_negative_multiplier_is_rejected(self):
        # f <= 1, f <= 2, -f <= 1: maximize f; y = (1, 0, 0) proves f = 1, and
        # (4, -2, 1) combines to the same objective and value but is no proof
        rows = [(((0, ONE),), ONE), (((0, ONE),), rat(2)), (((0, -ONE),), ONE)]
        lp._verify_lip_solution(rows, [ONE], [ONE], {0: ONE}, ONE)
        with pytest.raises(lp.SimplexError, match="negative"):
            lp._verify_lip_solution(rows, [ONE], [ONE], {0: rat(4), 1: rat(-2), 2: ONE}, ONE)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _rational_metric(rng, n):
    """Shortest-path closure of edges over distinct prime denominators."""
    d = [[Fraction(0)] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        d[i][j] = d[j][i] = Fraction(rng.randint(1, 60), rng.choice(PRIMES))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return FiniteMetricSpace.from_matrix(d, base=rng.randrange(n))


def _side_column(rng, m):
    """The column of a random arc g(b) - g(a) <= c on m variables, the base
    as node m."""
    a, b = rng.sample(range(m + 1), 2)
    return sorted((v, s) for v, s in ((b, 1), (a, -1)) if v < m)


def _ball_program(rng, sides):
    """The dual of a ball program on a _rational_metric space as
    solve_lip_ball hands it to simplex_standard, cols, b and costs, with
    sides random side arcs after the ball rows; and the pair table of the
    space."""
    space = _rational_metric(rng, rng.randint(2, 7))
    ball, m = space.ball_rows, space.n - 1
    cols = [coefs for coefs, _ in ball.rows] + [_side_column(rng, m) for _ in range(sides)]
    costs = [bound for _, bound in ball.rows] + [_random_rational(rng) for _ in range(sides)]
    return cols, [_random_rational(rng) for _ in range(m)], costs, ball.pairs


def _pivots_and_counts(solve):
    """What solve() returns, the (leaving row, entering column) of each
    pivot it makes and the COUNTS it adds."""
    pivots = []
    pivot = lp._pivot

    def recording(t, leaving, entering, dvec):
        pivots.append((leaving, entering))
        pivot(t, leaving, entering, dvec)

    before = lp.COUNTS.as_dict()
    with patch.object(lp, "_pivot", recording):
        out = solve()
    return out, pivots, {k: v - before[k] for k, v in lp.COUNTS.as_dict().items()}


class TestPairPricing:
    """Pricing columns 2k, 2k + 1 once per pair makes every choice of the
    column-by-column loop, under Dantzig and Bland."""

    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([20, 0]))
    @settings(max_examples=100, deadline=None)
    def test_cold_solve(self, seed, cap_factor):
        rng = random.Random(seed)
        cols, b, costs, pairs = _ball_program(rng, rng.randint(0, 2))
        with patch.object(lp, "_DANTZIG_CAP_FACTOR", cap_factor):
            paired = _pivots_and_counts(lambda: lp.simplex_standard(cols, b, costs, pairs))
            generic = _pivots_and_counts(lambda: lp.simplex_standard(cols, b, costs))
        assert paired == generic


def _reference_ball_rows(space):
    """The ball rows as (sorted (variable, Fraction coefficient) tuple, bound),
    built per pair."""
    var = {p: i for i, p in enumerate(p for p in space.points() if p != space.base)}
    rows = []
    for p, q in space.pairs():
        arc = sorted((var[x], s) for x, s in ((p, ONE), (q, -ONE)) if x != space.base)
        rows.append((tuple(arc), space.d[p][q]))
        rows.append((tuple((v, -a) for v, a in arc), space.d[p][q]))
    return rows, var


def _reference_arc_row(space, var, arc):
    """The row g(b) - g(a) <= c of the arc (a, b, c), built like
    _reference_ball_rows."""
    a, b, c = arc
    return tuple(sorted((var[x], s) for x, s in ((b, ONE), (a, -ONE)) if x != space.base)), c


class TestIntegerChecker:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_checker_accepts_every_solve(self, seed):
        # every solve already passed the int checker inside solve_lip_ball;
        # its answer must also pass against rows built here in Fractions
        rng = random.Random(seed)
        space = _rational_metric(rng, rng.randint(2, 7))
        rows, var = _reference_ball_rows(space)
        ball = space.ball_rows
        assert list(ball.rows) == rows
        assert ball.var == tuple(var.get(p) for p in space.points())
        assert list(ball.arcs) == [arc for p, q in space.pairs() for arc in ((p, q), (q, p))]
        objective = {p: Fraction(rng.randint(-9, 9), rng.choice(PRIMES)) for p in var}
        sides = ()
        if rng.random() < 0.5 and space.n > 2:
            # a molecule row g(m_pq) <= t with t in [-1, 1] is always feasible;
            # it is the arc g(p) - g(q) <= t d(p, q), whose multiplier is reported
            p, q = rng.sample(range(space.n), 2)
            t = Fraction(rng.randint(-7, 7), 7)
            sides = (lp.SideConstraint(lp.molecule_weights(space, p, q), "<=", t),)
            assert lp.side_arc(space, sides[0]) == (q, p, t * space.d[p][q])
            rows.append(_reference_arc_row(space, var, (q, p, t * space.d[p][q])))
        sol = lp.solve_lip_ball(
            lp.LipBallProgram(space=space, objective=objective, side_constraints=sides)
        )
        assert sol.status == lp.OPTIMAL
        c = [ZERO] * len(var)
        for p, w in objective.items():
            c[var[p]] = w
        witness = [sol.argument.values[p] for p in var]
        lp._verify_lip_solution(rows, c, witness, sol.row_duals, sol.value)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_ball_rows_on_int_view_match_fraction_rows(self, seed):
        # a witness moved off the optimum at one point: checking the ball rows
        # on the space's int_view gives the outcome of the Fraction rows
        rng = random.Random(seed)
        space = _rational_metric(rng, rng.randint(2, 7))
        rows, var = _reference_ball_rows(space)
        objective = {p: Fraction(rng.randint(-9, 9), rng.choice(PRIMES)) for p in var}
        sol = lp.solve_lip_ball(lp.LipBallProgram(space=space, objective=objective))
        c = [objective[p] for p in var]
        witness = [sol.argument.values[p] for p in var]
        witness[rng.randrange(len(witness))] += Fraction(rng.randint(-9, 9), rng.choice(PRIMES))

        def outcome(*ball_arg):
            try:
                lp._verify_lip_solution(rows, c, witness, sol.row_duals, sol.value, *ball_arg)
            except lp.SimplexError as exc:
                return str(exc)

        assert outcome(space.ball_rows) == outcome()

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_side_row_is_made_integral_once(self, seed, factor):
        # a side row w (g(b) - g(a)) <= or >= bound with Fraction w, given with
        # the base's weight, and the same row times factor are one arc and one
        # program; each answer's row_duals are multipliers of the arc, and the
        # simplex receives int column entries +-1 only
        rng = random.Random(seed)
        space = _rational_metric(rng, rng.randint(2, 7))
        rows, var = _reference_ball_rows(space)
        objective = {p: Fraction(rng.randint(-9, 9), rng.choice(PRIMES)) for p in var}
        c = [objective[p] for p in var]
        a, b = rng.sample(range(space.n), 2)
        w = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(PRIMES))
        relation, sign = rng.choice([("<=", 1), (">=", -1)])
        length = Fraction(rng.randint(0, 9), rng.choice(PRIMES))  # f = 0 is feasible
        # sign w (g(b) - g(a)) <= sign bound is g(b) - g(a) <= length when
        # sign w > 0, and g(a) - g(b) <= length otherwise
        bound = length * w if sign * w > 0 else -length * w
        arc = (a, b, length) if sign * w > 0 else (b, a, length)
        entries = set()
        solve = lp.simplex_standard

        def spy(cols, *rest):
            entries.update((type(e), e) for col in cols for _, e in col)
            return solve(cols, *rest)

        answers = []
        for scale in (1, factor):
            side = lp.SideConstraint({b: w * scale, a: -w * scale}, relation, bound * scale)
            assert lp.side_arc(space, side) == arc
            with patch.object(lp, "simplex_standard", spy):
                sol = lp.solve_lip_ball(
                    lp.LipBallProgram(space=space, objective=objective, side_constraints=(side,))
                )
            assert sol.status == lp.OPTIMAL
            witness = [sol.argument.values[p] for p in var]
            lp._verify_lip_solution(rows + [_reference_arc_row(space, var, arc)], c, witness, sol.row_duals, sol.value)
            answers.append(sol)
        assert answers[0] == answers[1]
        assert entries <= {(int, 1), (int, -1)}

    def test_side_row_on_three_points_is_an_error(self, triangle):
        # its measure, the base weight restored, is delta_1 + delta_2 - 2 delta_0
        side = lp.SideConstraint(weights={1: ONE, 2: ONE}, relation="<=", bound=ONE)
        message = "side row + 1 g(1) + 1 g(2) <= 1 is not an arc w (g(b) - g(a)) with w != 0"
        with pytest.raises(ValueError, match=re.escape(message)):
            lp.solve_lip_ball(lp.LipBallProgram(space=triangle, objective={1: ONE}, side_constraints=(side,)))

    def test_tampered_witness_names_row_and_exact_values(self, triangle, monkeypatch):
        # max f(1) is d(0, 1) = 2; the witness f(1) = 15/7 breaks row 1,
        # f(1) - f(0) <= 2, before any other
        program = lp.LipBallProgram(space=triangle, objective={1: ONE})
        _tamper(monkeypatch, "witness")
        with pytest.raises(lp.SimplexError, match=re.escape("witness violates row 1: 15/7 > 2")):
            lp.solve_lip_ball(program)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_point_set_rows_are_a_fresh_spaces_rows(self, seed):
        # row for row, the layout of the space on those points alone, so a
        # program on them makes the same pivots; arcs name the parent's points
        rng = random.Random(seed)
        space = _rational_metric(rng, rng.randint(2, 7))
        others = [p for p in space.points() if p != space.base]
        pts = sorted(rng.sample(others, rng.randint(1, len(others))) + [space.base])
        ball, fresh = ball_rows(space, pts), fresh_subspace(space, pts).ball_rows
        assert (ball.rows, ball.pairs) == (fresh.rows, fresh.pairs)
        assert ball.arcs == tuple((pts[p], pts[q]) for p, q in fresh.arcs)
        assert [ball.var[p] for p in pts] == list(fresh.var)
        assert ball_rows(space, range(space.n)) == space.ball_rows

    def test_tampered_witness_on_a_point_set_names_its_row(self, line4, monkeypatch):
        # on the points 0, 3, 7 of the line max f(7) is 7; the witness
        # f(7) = 50/7 breaks row 3, f(7) - f(0) <= 7, the second row of the
        # second pair (row 5 of the whole ball)
        program, ball = lp.LipBallProgram(space=line4, objective={3: ONE}), ball_rows(line4, [0, 2, 3])
        assert lp.solve_lip_ball(program, ball).value == 7
        with pytest.raises(ValueError, match="point index 1 outside"):
            lp.solve_lip_ball(lp.LipBallProgram(space=line4, objective={1: ONE}), ball)
        _tamper(monkeypatch, "witness")
        with pytest.raises(lp.SimplexError, match=re.escape("witness violates row 3: 50/7 > 7")):
            lp.solve_lip_ball(program, ball)


class TestIntegerSums:
    """The attainment and multiplier sums of the checker, cross-multiplied in
    ints: a tampered answer is named in exact rationals, with and without
    the space's int_view, and Fraction side rows still pass."""

    @staticmethod
    def solved(space, objective, sides=()):
        rows, var = _reference_ball_rows(space)
        sol = lp.solve_lip_ball(lp.LipBallProgram(space=space, objective=objective, side_constraints=sides))
        c = [ZERO] * len(var)
        for p, w in objective.items():
            c[var[p]] = w
        return rows, var, c, [sol.argument.values[p] for p in var], sol

    def outcomes(self, space, rows, c, witness, multipliers, value):
        out = []
        for ball_arg in ((space.ball_rows,), ()):
            with pytest.raises(lp.SimplexError) as exc:
                lp._verify_lip_solution(rows, c, witness, multipliers, value, *ball_arg)
            out.append(str(exc.value))
        return out

    def test_tampered_value_names_the_attained_value(self, triangle):
        rows, _, c, witness, sol = self.solved(triangle, {1: ONE, 2: rat("-2/3")})
        wrong = sol.value + rat("1/7")
        assert self.outcomes(triangle, rows, c, witness, sol.row_duals, wrong) == [
            f"witness attains {sol.value}, not the LP value {wrong}"
        ] * 2

    def test_tampered_multiplier_sum_names_the_sum(self, triangle):
        rows, _, c, witness, sol = self.solved(triangle, {1: ONE, 2: rat("-2/3")})
        # rows 2k and 2k + 1 cancel in the coefficient sums: only the bound sum moves
        y = rat("1/7")
        for k, (p, q) in enumerate(triangle.pairs()):
            multipliers = dict(sol.row_duals)
            for r in (2 * k, 2 * k + 1):
                multipliers[r] = multipliers.get(r, ZERO) + y
            wrong = sol.value + 2 * y * triangle.d[p][q]
            assert self.outcomes(triangle, rows, c, witness, multipliers, sol.value) == [
                f"multipliers attain {wrong}, not the LP value {sol.value}"
            ] * 2

    def test_tampered_multiplier_names_the_combined_coefficient(self, triangle):
        rows, _, c, witness, sol = self.solved(triangle, {1: ONE, 2: rat("-2/3")})
        r = min(sol.row_duals)
        multipliers = {**sol.row_duals, r: sol.row_duals[r] + rat("1/7")}
        v, a = rows[r][0][0]
        assert self.outcomes(triangle, rows, c, witness, multipliers, sol.value) == [
            f"multipliers give {c[v] + a / 7}, not {c[v]}, on variable {v}"
        ] * 2

    @pytest.mark.parametrize("seed", range(8))
    def test_fraction_side_row_passes_with_the_int_view(self, seed):
        # the molecule row g(m_pq) <= t, weights +-1/d(p, q), is checked as its
        # arc g(p) - g(q) <= t d(p, q)
        rng = random.Random(seed)
        space = _rational_metric(rng, rng.randint(3, 7))
        p, q = rng.sample(range(space.n), 2)
        t = Fraction(rng.randint(-7, 7), 7)
        weights = lp.molecule_weights(space, p, q)
        objective = {x: Fraction(rng.randint(-9, 9), rng.choice(PRIMES)) for x in space.points() if x != space.base}
        rows, var, c, witness, sol = self.solved(space, objective, (lp.SideConstraint(weights, "<=", t),))
        side_row = _reference_arc_row(space, var, (q, p, t * space.d[p][q]))
        assert {a for _, a in side_row[0]} <= {1, -1}
        lp._verify_lip_solution(rows + [side_row], c, witness, sol.row_duals, sol.value, space.ball_rows)


class TestMaxOverPairs:
    def test_threshold_two_forces_reversal(self):
        space = build_simplex_space(3, 1)
        f = random_lip_function(random.Random(5), space)
        objective = {p: f.values[p] for p in space.points() if p != space.base}
        res = lp.max_over_pairs(space, f, 2, objective)
        # only pairs where f attains its norm admit a witness at threshold 2
        if res.status == lp.OPTIMAL:
            u, v = res.pair
            assert f.molecule_value(u, v) == 1

    def test_infeasible_when_threshold_unreachable(self, triangle):
        flat = LipFunction(triangle, (ZERO, ZERO, ZERO))
        res = lp.max_over_pairs(triangle, flat, rat("3/2"), {1: ONE})
        assert res.status == lp.INFEASIBLE

    def test_rejects_threshold_above_two(self, triangle):
        flat = LipFunction(triangle, (ZERO, ZERO, ZERO))
        with pytest.raises(ValueError):
            lp.max_over_pairs(triangle, flat, rat("5/2"), {1: ONE})

    def test_witness_respects_constraint(self, triangle):
        f = LipFunction(triangle, (ZERO, rat(2), rat(3)))
        f = f * (ONE / f.norm)
        res = lp.max_over_pairs(space=triangle, base_fn=f, threshold=1, objective={1: ONE})
        assert res.status == lp.OPTIMAL
        u, v = res.pair
        assert f.molecule_value(u, v) - res.argument.molecule_value(u, v) >= 1

    def test_one_pair_is_one_program(self, triangle):
        f = LipFunction(triangle, (ZERO, rat(2), rat(3))) * rat("1/2")
        res = lp.max_over_pairs(triangle, f, rat("1/2"), {1: ONE}, pairs=[(2, 1)])
        side = lp.SideConstraint(
            weights=lp.molecule_weights(triangle, 2, 1),
            relation="<=",
            bound=f.molecule_value(2, 1) - rat("1/2"),
        )
        direct = lp.solve_lip_ball(
            lp.LipBallProgram(space=triangle, objective={1: ONE}, side_constraints=(side,))
        )
        assert (res.pair, res.value) == ((2, 1), direct.value)
        # a maximizer, not necessarily the vertex the simplex stops at
        g = res.argument
        assert g.norm <= 1
        assert g.molecule_value(2, 1) <= side.bound
        assert g.values[1] == res.value

    def test_default_is_every_ordered_pair(self):
        space = build_simplex_space(4, 1)
        f = random_lip_function(random.Random(3), space)
        every = lp.max_over_pairs(space, f, rat("3/2"), {1: ONE, 2: -ONE})
        given = lp.max_over_pairs(
            space, f, rat("3/2"), {1: ONE, 2: -ONE}, pairs=space.ordered_pairs()
        )
        assert every == given

    def test_example2_solve_count(self, monkeypatch):
        # the seed-77 run makes 112 programs; the 72 of part (b)'s sweeps
        # over the core pairs are path programs, so 40 reach the simplex
        calls = []
        solve = lp.simplex_standard

        def counting(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(lp, "simplex_standard", counting)
        report = verify_example2(N=4, n=3, samples=2, seed=77)
        assert report.overall
        assert len(calls) == 40


def _bellman_ford(space, arc, t):
    """networkx's Bellman-Ford distances from t on a MultiDiGraph of the ball
    arcs x -> y of length d(x, y) and the side arc (a, b, c) beside them, or
    None when the graph has a negative cycle."""
    import networkx as nx

    a, b, c = arc
    graph = nx.MultiDiGraph()
    graph.add_weighted_edges_from((x, y, space.d[x][y]) for x, y in space.ordered_pairs())
    graph.add_edge(a, b, weight=c)
    if nx.negative_edge_cycle(graph):
        return None
    return nx.single_source_bellman_ford_path_length(graph, t)


class TestPairProgram:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_bellman_ford(self, seed):
        # a random sink-form objective sum_x m_x (g(x) - g(t)) and side arc
        rng = random.Random(seed)
        space = random_space(rng, rng.randint(2, 7))
        t = rng.choice(space.points())
        m = {x: rat(rng.randint(0, 3)) for x in space.points() if x != t}
        m[rng.choice(list(m))] += 1  # so that t is the sink
        measure = {**m, t: -sum(m.values(), ZERO)}
        objective = {x: w for x, w in measure.items() if x != space.base}
        a, b = rng.sample(space.points(), 2)
        c = space.d[a][b] * Fraction(rng.randint(-12, 8), 4)
        before = lp.COUNTS.as_dict()
        sol = lp.solve_pair_program(space, objective, (a, b, c))
        after = lp.COUNTS.as_dict()
        assert after["path_programs"] - before["path_programs"] == 1
        assert after["solves"] == before["solves"]
        dist = _bellman_ford(space, (a, b, c), t)
        side = lp.SideConstraint(weights={b: ONE, a: -ONE}, relation="<=", bound=c)
        cold = lp.solve_lip_ball(lp.LipBallProgram(space, objective, (side,)))
        if dist is None:
            assert sol.status == cold.status == lp.INFEASIBLE
            return
        assert sol.status == lp.OPTIMAL
        assert sol.value == sum(w * dist[x] for x, w in m.items()) == cold.value
        g = sol.argument.values
        assert [g[x] - g[t] for x in space.points()] == [dist[x] for x in space.points()]
        assert g[space.base] == 0

    def test_other_objectives_are_one_simplex_solve(self, triangle):
        # base weight -1 and point 2 both negative: no single sink
        objective, arc = {1: rat(2), 2: -ONE}, (1, 2, rat("1/2"))
        before = lp.COUNTS.as_dict()
        sol = lp.solve_pair_program(triangle, objective, arc)
        assert lp.COUNTS.solves - before["solves"] == 1
        assert lp.COUNTS.path_programs == before["path_programs"]
        side = lp.SideConstraint(weights={2: ONE, 1: -ONE}, relation="<=", bound=rat("1/2"))
        assert sol == lp.solve_lip_ball(lp.LipBallProgram(triangle, objective, (side,)))

    def test_a_broken_triangle_inequality_is_caught_by_the_checker(self):
        # d(0, 2) = 5 > d(0, 1) + d(1, 2): the closed form puts g(2) = 5 and
        # g(1) = 1, which breaks the ball row g(2) - g(1) <= 1 (row 5); the
        # program's true optimum is 2
        space = FiniteMetricSpace.from_matrix([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        flat = LipFunction(space, (ZERO, ZERO, ZERO))
        with pytest.raises(lp.SimplexError, match="witness violates row 5: 4 > 1"):
            lp.max_over_pairs(space, flat, rat("1/2"), {2: ONE})
        side = lp.SideConstraint(weights={0: ONE, 1: -ONE}, relation="<=", bound=rat("-1/2"))
        assert lp.solve_lip_ball(lp.LipBallProgram(space, {2: ONE}, (side,))).value == 2


def _first_max(values):
    """The first key whose float value is within 1e-9 of the largest, and
    that largest value: the arg-max of a sweep that keeps the first of ties."""
    top = max(values.values())
    return next(k for k, v in values.items() if v >= top - 1e-9), top


def _sweep_case(seed):
    """A random space of 3 to 8 points, a norm-one function on it and a
    random objective."""
    rng = random.Random(seed)
    space = random_space(rng, rng.randint(3, 8))
    f = random_lip_function(rng, space)
    objective = {p: rat(rng.randint(-4, 4)) for p in space.points() if p != space.base}
    return rng, space, f, objective


class TestSweepOracle:
    """Whole sweeps against per-pair HiGHS solves and per-pair cold exact
    solves: the warm starts may change witnesses, never values or pairs."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_max_over_pairs(self, seed):
        rng, space, f, objective = _sweep_case(seed)
        threshold = rat(rng.choice(["1/2", "1", "3/2", "7/4", "2"]))
        res = lp.max_over_pairs(space, f, threshold, objective)
        floats, cold = {}, {}
        for p, q in space.ordered_pairs():
            bound = f.molecule_value(p, q) - threshold
            weights = lp.molecule_weights(space, p, q)
            oracle = _scipy_lip_ball(space, objective, [(weights, "<=", bound)])
            assert oracle.status in (0, 2)
            sol = lp.solve_lip_ball(lp.LipBallProgram(
                space=space, objective=objective,
                side_constraints=(lp.SideConstraint(weights, "<=", bound),),
            ))
            assert (oracle.status == 0) == (sol.status == lp.OPTIMAL)
            if sol.status == lp.OPTIMAL:
                floats[(p, q)] = -oracle.fun
                cold[(p, q)] = sol.value
        if not cold:
            assert (res.status, res.value, res.pair) == (lp.INFEASIBLE, None, None)
            return
        pair, top = _first_max(floats)
        assert res.status == lp.OPTIMAL
        assert abs(as_float(res.value) - top) < 1e-9
        assert res.pair == pair
        best = max(cold.values())
        assert (res.value, res.pair) == (best, next(k for k, v in cold.items() if v == best))
        u, v = res.pair
        assert res.argument.norm <= 1
        assert f.molecule_value(u, v) - res.argument.molecule_value(u, v) >= threshold

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_wstar_delta_radius(self, seed):
        rng, space, f, _ = _sweep_case(seed)
        mu = Molecule(space, *rng.sample(space.points(), 2)).element()  # norm one
        alpha = rat(rng.choice(["1/4", "1/2", "1", "3/2"]))
        res = wstar_delta_radius(space, f, mu, alpha, require_membership=False)
        slice_row = lp.SideConstraint(mu.weight_dict(), ">=", ONE - alpha)
        floats, cold = {}, {}
        for p, q in space.ordered_pairs():
            objective = {k: -w for k, w in lp.molecule_weights(space, p, q).items()}
            oracle = _scipy_lip_ball(space, objective, [(mu.weight_dict(), ">=", ONE - alpha)])
            sol = lp.solve_lip_ball(lp.LipBallProgram(space, objective, (slice_row,)))
            assert oracle.status == 0 and sol.status == lp.OPTIMAL  # mu has norm one
            floats[(p, q)] = as_float(f.molecule_value(p, q)) - oracle.fun
            cold[(p, q)] = f.molecule_value(p, q) + sol.value
        pair, top = _first_max(floats)
        assert abs(as_float(res.value) - top) < 1e-9
        assert res.pair == pair
        best = max(cold.values())
        assert (res.value, res.pair) == (best, next(k for k, v in cold.items() if v == best))
        assert res.witness.norm <= 1
        assert mu.pairing(res.witness) >= ONE - alpha
        u, v = res.pair
        assert f.molecule_value(u, v) - res.witness.molecule_value(u, v) == res.value

    def test_empty_slice_skips_every_pair(self, monkeypatch):
        # ||mu|| = 1/4 < 1 - alpha: the slice arc closes a negative cycle, which
        # no objective changes, so the sweep stops at the first pair, unsolved
        space = random_space(random.Random(8), 5)
        f = random_lip_function(random.Random(9), space)
        mu = Molecule(space, 1, 2).element() * rat("1/4")
        assert _scipy_lip_ball(space, {}, [(mu.weight_dict(), ">=", rat("1/2"))]).status == 2
        calls = []
        solve = lp.simplex_standard

        def counting(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(lp, "simplex_standard", counting)
        with pytest.raises(ValueError, match="dual slice is empty"):
            wstar_delta_radius(space, f, mu, rat("1/2"), require_membership=False)
        assert len(calls) == 0

    def test_mu_that_is_no_multiple_of_a_molecule_is_an_error(self):
        # delta_1 + delta_2 restores the base weight -2: three points, no arc
        space = random_space(random.Random(8), 5)
        f = random_lip_function(random.Random(9), space)
        mu = FreeElement.make(space, {1: ONE, 2: ONE})
        with pytest.raises(ValueError, match=re.escape("side row + 1 g(1) + 1 g(2) >= 1/2 is not an arc")):
            wstar_delta_radius(space, f, mu, rat("1/2"), require_membership=False)
