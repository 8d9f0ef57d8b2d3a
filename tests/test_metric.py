import random

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
    seg,
    validate,
)
from lipfree.sampling import random_space
from lipfree.scalars import rat


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


def test_lip_constant_names_first_attaining_pair(line4):
    # slopes on 0,1,3,7: 2 on [0,1] and on [3,7], 1/2 on [1,3]
    assert lip_constant(line4, (0, 2, 3, 11), line4.points()) == (2, (0, 1))
    assert lip_constant(line4, (0, 2, 3, 11), [1, 2, 3]) == (2, (2, 3))
    assert lip_constant(line4, (0, 2, 3, 11), [2]) == (0, None)


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
