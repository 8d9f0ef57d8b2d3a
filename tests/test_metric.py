import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipfree.metric import (
    FiniteMetricSpace,
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
