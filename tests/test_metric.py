import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from conftest import spaces_for
from hypothesis import given, settings
from hypothesis import strategies as st

from lipfree import metric
from lipfree.metric import (
    FiniteMetricSpace,
    _pair_failures,
    _population_scale,
    annulus_sweep,
    build_annuli_space,
    build_example1_space,
    build_example2_space,
    build_half_line_space,
    build_hat_space,
    build_recursion_space,
    build_simplex_space,
    build_two_anchor_space,
    check_annuli_hypothesis,
    example2_point,
    extract_separated_pairs,
    lip_constant,
    pair_sequence_failures,
    quadruple_failures,
    seg,
    validate,
)
from lipfree.sampling import random_space
from lipfree.scalars import rat

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def rational_matrix_space(rng, n):
    """Symmetric positive rational distances (no triangle inequality), each
    over a prime denominator drawn from PRIMES, so that the least common
    denominator of the space is large."""
    d = [[Fraction(0)] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        d[i][j] = d[j][i] = Fraction(rng.randint(1, 90), rng.choice(PRIMES))
    return FiniteMetricSpace.from_matrix(d, base=rng.randrange(n))


def rational_metric_space(rng, n):
    """Shortest-path closure of rational_matrix_space: a rational metric."""
    d = [list(row) for row in rational_matrix_space(rng, n).d]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return FiniteMetricSpace.from_matrix(d, base=rng.randrange(n))


def random_fraction(rng, lo, hi):
    return Fraction(rng.randint(lo, hi), rng.choice(PRIMES))


def ref_lip_constant(space, values, points):
    best, pair = Fraction(0), None
    for p, q in combinations(points, 2):
        ratio = abs(values[p] - values[q]) / space.d[p][q]
        if ratio > best:
            best, pair = ratio, (p, q)
    return best, pair


def ref_quadruple_failures(space, u, v, points, factor):
    d = space.d
    out = []
    for x in points:
        for y in points:
            lhs, rhs = d[u][x] + d[v][y], factor * (d[u][v] + d[x][y])
            if lhs < rhs:
                out.append((x, y, lhs - rhs))
    return out


def ref_pair_sequence_failures(space, scale, pairs, tolerance):
    d = space.d
    flat = [p for uv in pairs for p in uv]
    if len(set(flat)) != len(flat):
        return [("overlap", tuple(flat))]
    out = []
    for j, (u, v) in enumerate(pairs, start=1):
        if not (scale * (j - 1) / j - tolerance <= d[u][v] <= scale * (j + 1) / j + tolerance):
            out.append(("pair-distance", (j, u, v)))
        for q in space.points():
            if q not in (u, v) and min(d[u][q], d[v][q]) < scale * (j - 1) / (2 * j) - tolerance:
                out.append(("ambient-separation", (j, u, v, q)))
        for i, (ui, vi) in enumerate(pairs[: j - 1], start=1):
            for p in (u, v):
                if min(d[ui][p], d[vi][p]) < scale * (i - 1) / i - tolerance:
                    out.append(("later-separation", (i, ui, vi, p)))
    return out


def ref_population_scale(space, m):
    values = sorted({space.d[i][j] for i, j in space.pairs()})
    best = None
    for b in values:
        if any(len(space.ball(c, b)) < m for c in space.points()):
            best = b
    return best


def ref_pair_bounds(space, scale, tolerance, k):
    view_scale = space.int_view[1]
    return [
        tuple(
            (b.denominator, b.numerator * view_scale)
            for b in (
                scale * (j - 1) / j - tolerance,
                scale * (j + 1) / j + tolerance,
                scale * (j - 1) / (2 * j) - tolerance,
            )
        )
        for j in range(1, k + 1)
    ]


def ref_extract_separated_pairs(space, tolerance):
    """The greedy search with Fraction candidates and bounds."""
    tolerance = rat(tolerance)
    if space.n < 2:
        return None, ()
    anchor = ref_population_scale(space, math.ceil(space.n / 4))
    candidates = sorted({space.d[i][j] for i, j in space.pairs()})
    if anchor is not None:
        candidates.sort(key=lambda b: (abs(b - anchor), b))
    all_pairs = list(space.ordered_pairs())
    best, best_scale = (), None
    for a in candidates:
        bounds = ref_pair_bounds(space, a, tolerance, space.n // 2)
        chosen, used = [], set()
        for u, v in all_pairs:
            if u in used or v in used:
                continue
            trial = chosen + [(u, v)]
            if next(_pair_failures(space, trial, bounds, len(trial)), None) is None:
                chosen = trial
                used.update((u, v))
        if len(chosen) > len(best) and not pair_sequence_failures(space, a, chosen, tolerance):
            best, best_scale = tuple(chosen), a
    return best_scale, best


def ref_metric_violations(space):
    """metric_violations before the packed screen: rows i, j are scanned only
    if some d(i, k) - d(j, k) exceeds d(i, j), found by a list of differences."""
    D, scale = space.int_view
    for i, Di in enumerate(D):
        if Di[i]:
            yield metric.Violation("diagonal", (i,), Fraction(Di[i], scale))
    suspects = []
    for i, j in space.pairs():
        Di, Dj = D[i], D[j]
        if Di[j] != Dj[i]:
            yield metric.Violation("symmetry", (i, j), Fraction(Di[j] - Dj[i], scale))
        if Di[j] <= 0:
            yield metric.Violation("positivity", (i, j), Fraction(-Di[j], scale))
        diffs = [a - b for a, b in zip(Di, Dj)]
        if max(diffs) > Di[j]:
            suspects.append((i, j))
        if -min(diffs) > Dj[i]:
            suspects.append((j, i))
    for i, j in sorted(suspects):
        dij = D[i][j]
        for k, (dik, djk) in enumerate(zip(D[i], D[j])):
            slack = dik - dij - djk
            if slack > 0 and k != i and k != j:
                yield metric.Violation("triangle", (i, j, k), Fraction(slack, scale))


@st.composite
def near_metric_matrices(draw):
    """n = 1..9: a shortest-path closure or a random matrix, with up to three
    entries overwritten (negative, asymmetric or on the diagonal), times
    1 or 2^200 and over a common denominator."""
    n = draw(st.integers(min_value=1, max_value=9))
    d = [[draw(st.integers(min_value=0, max_value=30)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            d[i][i] = 0
            for j in range(i):
                d[i][j] = d[j][i]
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        d[i][j] = draw(st.integers(min_value=-40, max_value=40))
    big, den = draw(st.sampled_from([1, 2**200])), draw(st.integers(min_value=1, max_value=12))
    return [[Fraction(x * big, den) for x in row] for row in d]


class TestValidate:
    def test_good_space(self, triangle):
        assert validate(triangle).ok

    def test_triangle_violation(self):
        space = FiniteMetricSpace.from_matrix(
            [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
        )
        report = validate(space)
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert "triangle" in kinds
        # slack is the exact excess d(i,k) - d(i,j) - d(j,k)
        worst = max(v.slack for v in report.violations)
        assert worst == 3

    def test_symmetry_and_diagonal(self):
        space = FiniteMetricSpace(
            labels=("a", "b"), base=0, d=((rat(1), rat(2)), (rat(3), rat(0)))
        )
        kinds = {v.kind for v in validate(space).violations}
        assert {"diagonal", "symmetry"} <= kinds

    def test_positivity(self):
        space = FiniteMetricSpace.from_matrix([[0, 0], [0, 0]])
        assert any(v.kind == "positivity" for v in validate(space).violations)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_shortest_path_closure_is_metric(self, seed):
        rng = random.Random(seed)
        space = random_space(rng, rng.randint(2, 7))
        assert validate(space).ok


    @given(near_metric_matrices())
    @settings(max_examples=300, deadline=None)
    def test_packed_screen_matches_the_list_screen(self, d):
        space = FiniteMetricSpace.from_matrix(d)
        assert list(metric.metric_violations(space)) == list(ref_metric_violations(space))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_packed_screen_on_wide_negative_entries(self, n):
        rng = random.Random(n)
        for _ in range(40):
            d = [[rng.randint(-(2**200), 2**200) for _ in range(n)] for _ in range(n)]
            space = FiniteMetricSpace.from_matrix(d)
            assert list(metric.metric_violations(space)) == list(ref_metric_violations(space))


class TestLoad:
    """from_json sets int_view at load for a matrix of strings, parsing each
    distinct string once; any other entry takes the per-entry path."""

    @pytest.mark.parametrize("seed", range(6))
    def test_int_view_at_load_equals_the_computed_one(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        spellings = ["0", "1/2", "2/4", "0.5"]
        d = [[rng.choice([*spellings, str(rng.randint(1, 40)), f"{rng.randint(1, 40)}/{rng.randint(1, 9)}"])
              for _ in range(n)] for _ in range(n)]
        space = FiniteMetricSpace.from_json({"labels": [f"p{i}" for i in range(n)], "base": 0, "d": d})
        assert "int_view" in space.__dict__
        fresh = FiniteMetricSpace(space.labels, space.base, tuple(tuple(map(Fraction, row)) for row in d))
        assert space == fresh
        assert space.int_view == fresh.int_view

    def test_one_value_spelled_three_ways_has_one_int(self):
        d = [["0", "1/2", "2/4"], ["0.5", "0", "1/3"], ["1/2", "1/3", "0"]]
        D, scale = FiniteMetricSpace.from_json({"labels": ["a", "b", "c"], "base": 0, "d": d}).int_view
        assert scale == 6 and D == ((0, 3, 3), (3, 0, 2), (3, 2, 0))

    def test_first_bad_string_in_row_major_order_is_named(self):
        d = [["0", "1", "y"], ["x", "0", "1"], ["x", "1", "0"]]
        with pytest.raises(ValueError, match="field 'd' holds 'y', not a number"):
            FiniteMetricSpace.from_json({"labels": ["a", "b", "c"], "base": 0, "d": d})

    def test_non_string_entry_loads_entry_by_entry(self):
        d = [["0", 1, "5/2"], ["1", "0", 1.5], ["5/2", "3/2", 0]]
        space = FiniteMetricSpace.from_json({"labels": ["a", "b", "c"], "base": 0, "d": d})
        assert "int_view" not in space.__dict__
        assert space.d[1][2] == Fraction(3, 2) and space.d[0][1] == 1
        assert space.int_view == (((0, 2, 5), (2, 0, 3), (5, 3, 0)), 2)
        d[0][1] = True
        with pytest.raises(ValueError, match="field 'd' holds True, not a number"):
            FiniteMetricSpace.from_json({"labels": ["a", "b", "c"], "base": 0, "d": d})


class TestSeg:
    def test_contains_endpoints(self, line4):
        s = seg(line4, 0, 3, "1/2")
        assert {0, 3} <= s

    def test_geodesic_line(self, line4):
        # 1 and 3 lie exactly on the segment from 0 to 7
        assert seg(line4, 0, 3, "1/100") == frozenset({0, 1, 2, 3})

    def test_off_segment_point_excluded(self, triangle):
        # 2 has detour 3 + 4 - 2 = 5 over the (0,1) edge
        assert 2 not in seg(triangle, 0, 1, 4)
        assert 2 in seg(triangle, 0, 1, 6)

    def test_rejects_degenerate(self, line4):
        with pytest.raises(ValueError):
            seg(line4, 1, 1, 1)
        with pytest.raises(ValueError):
            seg(line4, 0, 1, 0)


class TestBuilders:
    def test_example1_distances(self):
        space = build_example1_space(4)
        assert validate(space).ok
        assert space.dist(0, 1) == rat("5/2")  # d(1,2) = 3 - 1/2
        assert space.dist(1, 2) == rat("17/6")  # d(2,3) = 3 - 1/6
        assert space.labels[0] == "1" and space.base == 0

    def test_example2_metric_cases(self):
        space = build_example2_space(3)
        assert validate(space).ok
        # u_i to x_j/u_j at distance 1 exactly when i > j
        assert space.dist(example2_point(space, "u", 3), example2_point(space, "x", 1)) == 1
        assert space.dist(example2_point(space, "u", 3), example2_point(space, "u", 2)) == 1
        assert space.dist(example2_point(space, "u", 2), example2_point(space, "u", 3)) == 1
        assert space.dist(example2_point(space, "u", 1), example2_point(space, "x", 2)) == 2
        assert space.dist(example2_point(space, "v", 3), example2_point(space, "y", 2)) == 1
        assert space.dist(example2_point(space, "v", 2), example2_point(space, "x", 1)) == 2
        assert space.dist(example2_point(space, "x", 1), example2_point(space, "y", 1)) == 2

    def test_two_anchor_structure(self):
        space = build_two_anchor_space(6)
        assert validate(space).ok
        assert space.dist(0, 1) == 2  # the anchors
        assert all(space.dist(0, p) == 1 for p in range(2, 6))
        assert all(
            space.dist(p, q) == 2 for p in range(2, 6) for q in range(2, 6) if p != q
        )

    @pytest.mark.parametrize(
        "space",
        [
            build_half_line_space([0, 2, 5, 11]),
            build_simplex_space(5),
            build_hat_space(5).space,
            build_annuli_space(3).space,
            build_recursion_space(4).space,
        ],
        ids=["half-line", "simplex", "hat", "annuli", "recursion"],
    )
    def test_generated_spaces_are_metric(self, space):
        assert validate(space).ok

    def test_hat_space_pairs_satisfy_inequalities(self):
        hs = build_hat_space(8)
        assert not pair_sequence_failures(hs.space, hs.scale, hs.pairs, hs.tolerance)

    def test_perturbed_hat_space_failure_records(self):
        # d(u2,v4) = 1/20 breaks pair 2's later separation and pair 4's
        # ambient separation; d(u6,v6) = 1/2 is below 6's distance window
        hs = build_hat_space(6)
        d = [list(row) for row in hs.space.d]
        for (p, q), value in {(1, 9): "1/20", (5, 11): "1/2"}.items():
            d[p][q] = d[q][p] = rat(value)
        space = FiniteMetricSpace.from_matrix(d, labels=hs.space.labels)
        failures = pair_sequence_failures(space, hs.scale, hs.pairs, hs.tolerance)
        assert len(failures) == 3
        assert set(failures) == {
            ("later-separation", (2, 1, 7, 9)),
            ("ambient-separation", (4, 3, 9, 1)),
            ("pair-distance", (6, 5, 11)),
        }

    def test_recursion_space_hypothesis(self):
        rs = build_recursion_space(5)
        ok, failures = check_annuli_hypothesis(
            rs.space, rs.pairs, rs.annuli, rs.eps
        )
        assert ok, failures

    def test_overlapping_annuli_detected(self):
        rs = build_recursion_space(3)
        bad = (rs.annuli[0] | rs.annuli[1],) + rs.annuli[1:]
        ok, failures = check_annuli_hypothesis(rs.space, rs.pairs, bad, rs.eps)
        assert not ok
        assert any(kind == "annuli-overlap" for kind, _ in failures)

    def test_pair_outside_its_annulus_detected(self):
        rs = build_recursion_space(3)
        bad = (rs.annuli[0], rs.annuli[1] - {rs.pairs[1][1]}, rs.annuli[2])
        assert check_annuli_hypothesis(rs.space, rs.pairs, bad, rs.eps) == (
            False, [("pair-outside-annulus", (2, 2, 3))]
        )

    def test_broken_quadruple_inequality_detected(self):
        """No single distance of build_recursion_space(3) can break the
        inequality and leave a metric: each check is linear in that distance,
        and both ends of its triangle range pass. So the far point 6 moves to
        d(u_3, v_3) right of v_3 (point 5) and stays outside A_3's set. For
        x < u_3 < v_3 < y on a line, d(u,x) + d(v,y) = d(x,y) - d(u,v), which
        falls short of (15/16)(d(u,v) + d(x,y)) for y = 6 and every x in
        0..3; every other quadruple of every pair holds."""
        rs = build_recursion_space(3)
        coords = [rs.space.d[0][p] for p in rs.space.points()]
        moved = build_half_line_space(coords[:-1] + [coords[5] + coords[5] - coords[4]])
        assert validate(moved).ok
        assert check_annuli_hypothesis(moved, rs.pairs, rs.annuli, rs.eps) == (
            False, [("quadruple", (3, 4, 5, x, 6)) for x in range(4)]
        )


class TestAnnulusInequality:
    def test_half_line_sweep_clean(self):
        coords = list(range(12)) + [70 + 3 * i for i in range(8)]
        space = build_half_line_space(coords)
        checked, failures = annulus_sweep(space, "1/2", 1)
        assert checked > 0
        assert failures == []

    def test_sweep_failure_slack(self, line4):
        # the triangle inequality makes every sweep quadruple hold, so break
        # it: d(1,7) = 1. At eps = 3/4, a = 1/8: u in {0,1}, v = 1, x,y in
        # {0,7}, and d(0,0)+d(1,7) = 1 < (1/4)(d(0,1)+d(0,7)) = 2
        d = [list(row) for row in line4.d]
        d[1][3] = d[3][1] = rat(1)
        space = FiniteMetricSpace.from_matrix(d, labels=line4.labels)
        checked, failures = annulus_sweep(space, "3/4", "1/8")
        assert checked == 8
        assert failures == [((0, 1, 0, 3), rat(-1))]
        assert annulus_sweep(line4, "3/4", "1/8") == (8, [])

    def test_rejects_bad_eps(self, line4):
        with pytest.raises(ValueError):
            annulus_sweep(line4, 1, 1)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_sweep_never_fails_on_a_metric(self, seed):
        # the triangle inequality gives every swept quadruple a slack of at
        # least 2 a eps^2, so a shortest-path closure cannot fail
        rng = random.Random(seed)
        space = random_space(rng, rng.randint(2, 9))
        dv = space.d[space.base][rng.choice([p for p in space.points() if p != space.base])]
        a = dv / rng.choice((rat(5), rat(6), rat(7), rat(8)))  # v at dv in B(0,8a)\B(0,4a)
        eps = Fraction(rng.randint(1, 15), 16)
        checked, failures = annulus_sweep(space, eps, a)
        assert checked > 0
        assert failures == []


def test_lip_constant_names_first_attaining_pair(line4):
    # slopes on 0,1,3,7: 2 on [0,1] and on [3,7], 1/2 on [1,3]
    assert lip_constant(line4, (0, 2, 3, 11), line4.points()) == (2, (0, 1))
    assert lip_constant(line4, (0, 2, 3, 11), [1, 2, 3]) == (2, (2, 3))
    assert lip_constant(line4, (0, 2, 3, 11), [2]) == (0, None)


class TestIntegerKernels:
    """The int kernels against the Fraction loops they replace, on rational
    spaces whose common denominator is a product of distinct primes."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_lip_constant_matches_fraction_reference(self, seed):
        rng = random.Random(seed)
        space = rational_matrix_space(rng, rng.randint(2, 9))
        values = [random_fraction(rng, -60, 60) for _ in space.points()]
        if rng.random() < 0.3:
            values[rng.randrange(space.n)] = values[0]  # ties between pairs
        points = rng.sample(range(space.n), rng.randint(0, space.n))
        got = lip_constant(space, values, points)
        assert got == ref_lip_constant(space, values, points)
        assert type(got[0]) is Fraction

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_quadruple_failures_match_fraction_reference(self, seed):
        rng = random.Random(seed)
        space = rational_matrix_space(rng, rng.randint(2, 8))
        u, v = rng.randrange(space.n), rng.randrange(space.n)
        points = rng.sample(range(space.n), rng.randint(1, space.n))
        factor = Fraction(rng.randint(1, 60), rng.choice(PRIMES))
        got = list(quadruple_failures(space, u, v, points, factor))
        assert got == ref_quadruple_failures(space, u, v, points, factor)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_seg_matches_fraction_reference(self, seed):
        rng = random.Random(seed)
        space = rational_metric_space(rng, rng.randint(2, 9))
        u, v = rng.sample(range(space.n), 2)
        d = space.d
        delta = random_fraction(rng, 1, 90)
        if rng.random() < 0.5:
            # put delta exactly on the detour of some point, which seg excludes
            p = rng.randrange(space.n)
            detour = d[u][p] + d[v][p] - d[u][v]
            delta = detour if detour > 0 else delta
        ref = frozenset(p for p in space.points() if d[u][p] + d[v][p] < d[u][v] + delta)
        assert seg(space, u, v, delta) == ref

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_pair_sequence_failures_match_fraction_reference(self, seed):
        rng = random.Random(seed)
        space = rational_matrix_space(rng, rng.randint(2, 10))
        order = rng.sample(range(space.n), space.n)
        pairs = [tuple(order[i:i + 2]) for i in range(0, space.n - 1, 2)]
        pairs = pairs[: rng.randint(1, len(pairs))]
        if rng.random() < 0.2:
            pairs.append((pairs[0][0], pairs[-1][1]))  # overlapping pairs
        scale = random_fraction(rng, 1, 90)
        tolerance = random_fraction(rng, 0, 10)
        if rng.random() < 0.6:
            # put one distance exactly on a bound of pair j: its own distance
            # on the upper or lower bound, or the distance to a point of a
            # later pair or to an ambient point on the separation bound
            j = rng.randint(1, len(pairs))
            u, v = pairs[j - 1]
            kind = rng.choice(("upper", "lower", "later", "ambient")) if j > 1 else "upper"
            later = [p for uv in pairs[j:] for p in uv]
            ambient = [q for q in space.points() if q not in (u, v)]
            if kind == "later" and later:
                p = rng.choice(later)
                scale = (min(space.d[u][p], space.d[v][p]) + tolerance) * j / (j - 1)
            elif kind == "ambient" and ambient:
                q = rng.choice(ambient)
                scale = (min(space.d[u][q], space.d[v][q]) + tolerance) * 2 * j / (j - 1)
            elif kind == "lower":
                scale = (space.d[u][v] + tolerance) * j / (j - 1)
            else:
                scale = (space.d[u][v] - tolerance) * j / (j + 1)
        got = pair_sequence_failures(space, scale, pairs, tolerance)
        assert got == ref_pair_sequence_failures(space, scale, pairs, tolerance)

    @pytest.mark.parametrize("distance", [-1, 0])
    def test_lip_constant_rejects_a_distance_that_is_not_positive(self, distance):
        # equal values at distance 0 and a negative distance ahead of a
        # larger ratio are both errors, not a skipped pair or a wrong sign
        space = FiniteMetricSpace.from_matrix([[0, distance, 1], [distance, 0, 1], [1, 1, 0]])
        for values in ([0, 1, 3], [1, 1, 3]):
            with pytest.raises(ValueError, match=f"d\\('p0', 'p1'\\) = {distance} is not positive"):
                lip_constant(space, [rat(v) for v in values], space.points())
        assert lip_constant(space, [rat(v) for v in (0, 1, 3)], [0, 2]) == (3, (0, 2))

    def test_view_puts_the_matrix_over_one_denominator(self, triangle):
        space = build_example1_space(4)
        D, scale = space.int_view
        assert scale == 12  # d(n, k) = 3 - |1/n - 1/k| has denominators 2, 3, 4, 6 and 12
        assert all(Fraction(D[i][j], scale) == space.d[i][j] for i in range(4) for j in range(4))
        assert triangle.int_view == (((0, 2, 3), (2, 0, 4), (3, 4, 0)), 1)


class TestTouchingScan:
    """lip_constant(..., touching=S) scans only the pairs that meet S."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_over_the_pairs_that_meet_the_set(self, seed):
        rng = random.Random(seed)
        space = rational_metric_space(rng, rng.randint(2, 9))
        values = [random_fraction(rng, -60, 60) for _ in space.points()]
        if rng.random() < 0.3:
            values[rng.randrange(space.n)] = values[0]  # ties between pairs
        points = rng.sample(range(space.n), rng.randint(0, space.n))
        touching = set(rng.sample(range(space.n), rng.randint(0, space.n)))
        meets = [(p, q) for p, q in combinations(points, 2) if p in touching or q in touching]
        best, pair = Fraction(0), None
        for p, q in meets:
            ratio = abs(values[p] - values[q]) / space.d[p][q]
            if ratio > best:
                best, pair = ratio, (p, q)
        assert lip_constant(space, values, points, touching=touching) == (best, pair)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_values_that_vanish_off_the_set_give_the_full_constant(self, seed):
        rng = random.Random(seed)
        space = rational_metric_space(rng, rng.randint(2, 9))
        touching = set(rng.sample(range(space.n), rng.randint(0, space.n)))
        values = [random_fraction(rng, -60, 60) if p in touching else Fraction(0) for p in space.points()]
        got = lip_constant(space, values, space.points(), touching=touching)
        assert got[0] == lip_constant(space, values, space.points())[0]

    def test_a_zero_distance_between_points_off_the_set_is_not_checked(self):
        space = FiniteMetricSpace.from_matrix([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        assert lip_constant(space, [rat(v) for v in (0, 1, 3)], space.points(), touching={2}) == (3, (0, 2))
        with pytest.raises(ValueError, match="is not positive"):
            lip_constant(space, [rat(v) for v in (0, 1, 3)], space.points(), touching={1})


class TestBuilderIntView:
    """Each builder sets the int_view at build: it must be the one the space
    computes from its matrix, and every distance stays a Fraction."""

    @staticmethod
    def assert_preset_view(space):
        assert "int_view" in space.__dict__
        assert space.int_view == FiniteMetricSpace(space.labels, space.base, space.d).int_view
        assert all(type(x) is Fraction for row in space.d for x in row)

    def test_half_line(self):
        rng = random.Random(5)
        for _ in range(200):
            coords = {random_fraction(rng, -90, 90) for _ in range(rng.randint(1, 8))}
            coords = rng.sample(sorted(coords), len(coords))  # unsorted, too
            self.assert_preset_view(build_half_line_space(coords))
        space = build_half_line_space(["3/2", "1/2"])
        self.assert_preset_view(space)
        assert space.int_view == (((0, 1), (1, 0)), 1)
        assert space.labels == ("1/2", "3/2")

    @pytest.mark.parametrize("a", ["2", "3/2", "5/7"])
    def test_hat(self, a):
        for k in range(3, 25):
            self.assert_preset_view(build_hat_space(k, a).space)

    def test_recursion(self):
        for k in range(1, 15):
            self.assert_preset_view(build_recursion_space(k).space)

    @pytest.mark.parametrize("eps", ["1/4", "1/5", "2/7"])
    def test_annuli(self, eps):
        for k in range(1, 5):
            self.assert_preset_view(build_annuli_space(k, eps).space)

    def test_two_anchor(self):
        for N in range(3, 13):
            self.assert_preset_view(build_two_anchor_space(N))

    def test_annulus_bounds_on_the_base_row(self):
        # coordinates on the inner radius a eps (outside the annulus) and on
        # the outer radius 32 a / eps (inside)
        for full, annulus in ((False, {2, 3, 4}), (True, {0, 1, 2, 3, 4})):
            asp = metric._annuli_from_scales([0, rat("1/4"), 5, 8, 128, 129], [1], [rat("1/4")], full)
            assert asp.annuli == (frozenset(annulus),)
            assert asp.pairs == ((0 if full else 2, 3),)

    def test_shuffled_coordinates_give_the_same_annuli_space(self, monkeypatch):
        """The annuli builders find their pairs by position in the sorted
        coordinates, not in the order the coordinates are listed."""
        expected = [(build_recursion_space(k), build_annuli_space(k, "2/7")) for k in range(1, 5)]
        real = metric._annuli_from_scales
        for shuffle in (list.reverse, random.Random(3).shuffle, random.Random(4).shuffle):

            def shuffled(coords, *rest, **kwargs):
                coords = list(coords)
                shuffle(coords)
                return real(coords, *rest, **kwargs)

            monkeypatch.setattr(metric, "_annuli_from_scales", shuffled)
            got = [(build_recursion_space(k), build_annuli_space(k, "2/7")) for k in range(1, 5)]
            assert got == expected


class TestExtraction:
    def test_pairs_on_hat_space(self):
        hs = build_hat_space(6)
        res = extract_separated_pairs(hs.space, hs.tolerance)
        assert len(res.pairs) >= 6
        assert not pair_sequence_failures(hs.space, res.scale, res.pairs, hs.tolerance)

    def test_empty_on_tiny_space(self):
        space = build_half_line_space([0, 1])
        res = extract_separated_pairs(space, "1/10")
        # a single pair is always admissible on a 2-point space
        assert len(res.pairs) <= 1

    def test_invalid_arguments(self, line4):
        with pytest.raises(ValueError):
            extract_separated_pairs(line4, 0)

    @pytest.mark.parametrize("k", range(3, 21))
    def test_hat_space_matches_fraction_reference(self, k):
        hs = build_hat_space(k)
        res = extract_separated_pairs(hs.space, hs.tolerance)
        assert (res.scale, res.pairs) == ref_extract_separated_pairs(hs.space, hs.tolerance)
        m = math.ceil(hs.space.n / 4)
        assert _population_scale(hs.space, m) == ref_population_scale(hs.space, m)

    @pytest.mark.parametrize("k", [12, 16, 20])
    def test_full_family_ends_the_search(self, k, monkeypatch):
        # the first scale finds k = n // 2 disjoint pairs, which no later scale can beat
        hs = build_hat_space(k)
        calls = []
        real = metric._pair_bounds

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(metric, "_pair_bounds", counting)
        res = extract_separated_pairs(hs.space, hs.tolerance)
        assert len(calls) == 1
        assert len(res.pairs) == hs.space.n // 2 == k

    def test_random_closures_match_fraction_reference(self):
        rng = random.Random(36)
        spaces = [*spaces_for(36, 12, n_range=(2, 9)),
                  *(rational_metric_space(rng, rng.randint(2, 9)) for _ in range(12))]
        for space in spaces:
            for m in range(1, space.n + 2):
                assert _population_scale(space, m) == ref_population_scale(space, m)
            tolerance = random_fraction(rng, 1, 20)
            res = extract_separated_pairs(space, tolerance)
            assert (res.scale, res.pairs) == ref_extract_separated_pairs(space, tolerance)


class TestJsonRoundTrip:
    def test_space_round_trip(self, triangle):
        again = FiniteMetricSpace.from_json(triangle.to_json())
        assert again == triangle

    def test_rational_strings_preserved(self):
        space = build_example1_space(3)
        obj = space.to_json()
        assert obj["d"][0][1] == "5/2"

    def test_duplicate_label_rejected(self, triangle):
        obj = triangle.to_json()
        obj["labels"] = ["p0", "p1", "p0"]
        with pytest.raises(ValueError, match="duplicate point label: 'p0'"):
            FiniteMetricSpace.from_json(obj)
        obj["labels"] = [["p0"], ["p1"], ["p2"]]  # JSON arrays are not hashable
        with pytest.raises(ValueError, match="hashable"):
            FiniteMetricSpace.from_json(obj)

    @pytest.mark.parametrize(
        "field, value",
        [("d", 5), ("d", [["0", "2", "3"], "2 0 4", ["3", "4", "0"]]),
         ("d", [["0", "2", "3"], ["2", "0", [4]], ["3", "4", "0"]]),
         ("labels", "p0p1p2"), ("base", "0")],
    )
    def test_malformed_field_named(self, triangle, field, value):
        obj = triangle.to_json()
        obj[field] = value
        with pytest.raises(ValueError, match=f"'{field}'"):
            FiniteMetricSpace.from_json(obj)


class TestOrderedPairs:
    def test_every_ordered_pair_once_p_major(self, line4):
        expected = [(p, q) for p in range(4) for q in range(4) if p != q]
        assert list(line4.ordered_pairs()) == expected
