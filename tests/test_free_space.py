import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipfree import lp
from lipfree.free import (
    FreeElement,
    Molecule,
    all_molecules,
    free_dist,
    free_norm,
    molecule_distance_formula,
    molecules_in_slice,
)
from lipfree.functions import LipFunction, mcshane_extend
from lipfree.metric import (
    FiniteMetricSpace,
    build_example2_space,
    build_half_line_space,
    ball_rows,
    example2_point,
)
from lipfree.sampling import random_free_element, random_space
from lipfree.scalars import ONE, ZERO, over_common_denominator, rat


def fresh_subspace(space, pts):
    """The space on the sorted points pts, built afresh from its labels and
    distances, with an int_view of its own."""
    d = [[space.d[p][q] for q in pts] for p in pts]
    return FiniteMetricSpace.from_matrix(d, labels=[space.labels[p] for p in pts], base=pts.index(space.base))


def _network_simplex_cost(space, mu) -> Fraction:
    """The transport cost of mu by networkx's network simplex, which shares no
    code with lipfree: the complete digraph weighted by the int_view
    distances, each non-base point supplying its weight over the weights'
    common denominator and the base taking the balance. Its arithmetic is on
    ints, so the cost is exact."""
    import networkx as nx

    D, scale = space.int_view
    weights = {p: w for p, w in mu.weight_dict().items() if p != space.base}
    nums, den = over_common_denominator(weights.values())
    graph = nx.DiGraph()
    graph.add_nodes_from(space.points(), demand=0)
    for p, num in zip(weights, nums):
        graph.nodes[p]["demand"] = -num
    graph.nodes[space.base]["demand"] = sum(nums)
    graph.add_weighted_edges_from(
        (p, q, D[p][q]) for p in space.points() for q in space.points() if p != q
    )
    cost, _ = nx.network_simplex(graph)
    return Fraction(cost, den * scale)


class TestFreeElement:
    def test_normalization_drops_base_and_zeros(self, triangle):
        mu = FreeElement.make(triangle, {0: rat(5), 1: ZERO, 2: rat(2)})
        assert mu.weight_dict() == {2: rat(2)}
        assert mu.support == (2,)

    def test_zero_and_delta(self, triangle):
        assert FreeElement.zero(triangle).is_zero()
        assert FreeElement.delta(triangle, 2).weight_dict() == {2: ONE}
        # the base point delta is the zero element
        assert FreeElement.delta(triangle, triangle.base).is_zero()

    def test_pairing_is_shift_invariant(self, triangle):
        mu = FreeElement.make(triangle, {1: rat(2), 2: rat(-1)})
        f = LipFunction(triangle, (rat(7), rat(8), rat(9)))
        assert mu.pairing(f) == mu.pairing(f.rooted())

    def test_arithmetic(self, triangle):
        a = FreeElement.delta(triangle, 1)
        b = FreeElement.delta(triangle, 2)
        assert (a + b).weight_dict() == {1: ONE, 2: ONE}
        assert (a - a).is_zero()
        assert (a * rat(3)).weight_dict() == {1: rat(3)}
        assert (-a).weight_dict() == {1: -ONE}

    def test_arithmetic_equals_make_on_the_summed_weights(self):
        # the arithmetic builds its result without make's conversion and
        # checks; the elements must be the ones make gives
        rng = random.Random(11)
        for space in (random_space(rng, rng.randint(2, 7)) for _ in range(40)):
            mu, nu = (random_free_element(rng, space, rng.randint(1, 4), norm_one=False) for _ in range(2))
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            summed = {p: mu.weight_dict().get(p, ZERO) + nu.weight_dict().get(p, ZERO) for p in space.points()}
            assert mu + nu == FreeElement.make(space, summed)
            assert mu - mu == FreeElement.zero(space)
            assert c * mu == FreeElement.make(space, {p: c * w for p, w in mu.weights})

    def test_json_round_trip(self, triangle):
        mu = FreeElement.make(triangle, {1: rat("1/3"), 2: rat("-5/7")})
        assert FreeElement.from_json(mu.to_json(), triangle) == mu


class TestFreeNorm:
    def test_molecule_norm_is_one(self, triangle):
        for m in all_molecules(triangle):
            assert free_norm(m.element()).value == 1

    def test_delta_norm_is_distance_to_base(self, line4):
        for p in line4.points():
            assert free_norm(FreeElement.delta(line4, p)).value == line4.d[0][p]

    def test_ball_value_equals_network_simplex_on_acceptance_01_draws(self):
        """The 200 draws of acceptance 01, solved by an oracle outside lipfree."""
        rng = random.Random(20240801)
        for _ in range(200):
            space = random_space(rng, rng.randint(2, 20))
            mu = random_free_element(rng, space, support_size=rng.randint(1, space.n), norm_one=False)
            sol = lp.solve_lip_ball(lp.LipBallProgram(space=space, objective=mu))
            assert sol.value == _network_simplex_cost(space, mu)

    def test_zero_norm(self, triangle):
        res = free_norm(FreeElement.zero(triangle))
        assert res.value == 0 and res.plan.cost == 0

    def test_witness_certifies(self, line4):
        mu = FreeElement.make(line4, {1: rat(2), 3: rat(-1)})
        res = free_norm(mu)
        assert res.witness.norm <= 1
        assert mu.pairing(res.witness) == res.value
        assert res.plan.cost == res.value

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_norm_laws_random(self, seed):
        rng = random.Random(seed)
        space = random_space(rng, rng.randint(3, 7))
        mu = random_free_element(rng, space, norm_one=False)
        nu = random_free_element(rng, space, norm_one=False)
        nmu = free_norm(mu).value
        assert free_norm(mu * rat(-2)).value == 2 * nmu  # homogeneity
        assert free_norm(mu + nu).value <= nmu + free_norm(nu).value

    def test_support_restriction_lifts_witness(self):
        # support of 2 points inside a 12-point space: the lifted witness
        # must still certify on the full space
        space = build_half_line_space(list(range(12)))
        mu = FreeElement.make(space, {4: ONE, 9: -ONE})
        res = free_norm(mu)
        assert res.value == 5
        assert res.witness.norm <= 1
        assert mu.pairing(res.witness) == 5

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_support_restriction_equals_full_space_solve(self, seed):
        # on a metric the program over the support and the base has the
        # value of the full-space ball program
        rng = random.Random(seed)
        space = random_space(rng, rng.randint(3, 8))
        support = rng.sample(range(space.n), rng.randint(1, space.n - 1))
        mu = FreeElement.make(space, {p: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for p in support})
        full = lp.solve_lip_ball(lp.LipBallProgram(space=space, objective=mu))
        assert free_norm(mu).value == full.value

    def test_one_simplex_solve_per_norm(self, monkeypatch):
        calls = []
        solve = lp.simplex_standard

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(lp, "simplex_standard", counting)
        space = build_half_line_space([0, 1, 3, 7, 8])
        full = FreeElement.make(space, {1: ONE, 2: rat(-3), 3: rat("1/2"), 4: rat(2)})
        partial = FreeElement.make(space, {1: ONE, 3: rat(-2)})
        for mu in (full, partial):
            calls.clear()
            free_norm(mu)
            assert len(calls) == 1

    def test_small_support_builds_no_space(self, monkeypatch):
        built = []
        init = FiniteMetricSpace.__post_init__
        monkeypatch.setattr(FiniteMetricSpace, "__post_init__", lambda self: built.append(self) or init(self))
        space = build_half_line_space(list(range(12)))
        built.clear()
        res = free_norm(FreeElement.make(space, {4: ONE, 9: -ONE, 11: rat("1/2")}))
        assert (res.value, res.plan.cost, res.witness.norm) == (rat("11/2"), rat("11/2"), 1)
        assert built == []


class TestLazyLift:
    """A small-support norm lifts its witness to the full space only when
    .witness is read, and then once."""

    def small_support(self):
        space = build_half_line_space([0, 1, 3, 7, 8, 12])
        return FreeElement.make(space, {1: rat(2), 4: rat(-1), 5: rat("1/3")})

    def test_value_alone_makes_no_lift(self, lifts):
        mu = self.small_support()
        res = free_norm(mu)
        assert res.value > 0 and res.plan.cost == res.value
        assert free_dist(mu, FreeElement.delta(mu.space, 2)) > 0
        assert lifts == []

    def test_witness_is_lifted_once_and_kept(self, lifts):
        mu = self.small_support()
        space, pts = mu.space, (0, 1, 4, 5)  # the support and the base 0
        sub = FiniteMetricSpace(
            labels=tuple(space.labels[p] for p in pts),
            base=0,
            d=tuple(tuple(space.d[p][q] for q in pts) for p in pts),
        )
        sub_mu = FreeElement.make(sub, {1: rat(2), 2: rat(-1), 3: rat("1/3")})
        sub_values = free_norm(sub_mu).witness.values
        eager = mcshane_extend(space, pts, dict(zip(pts, sub_values)), ONE, "lower")
        res = free_norm(mu)
        assert lifts == []
        witness = res.witness
        assert len(lifts) == 1
        assert res.witness is witness
        assert len(lifts) == 1
        assert witness == eager
        assert witness.norm <= 1
        assert mu.pairing(witness) == res.value

    def test_results_compare_by_value_and_plan(self, lifts):
        mu = self.small_support()
        first, second = free_norm(mu), free_norm(mu)
        first.witness
        assert first == second
        assert hash(first) == hash(second)
        assert len(lifts) == 1


class TestLazyPlan:
    """free_norm builds its transport plan when .plan is read, and it is the
    plan of a fresh solve: ball_plan of a freshly built space on the support
    and the base, mapped back to the full space; scaled(c) gives the plan of
    free_norm(c * mu)."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_plan_equals_a_fresh_ball_plan(self, seed):
        rng = random.Random(seed)
        space = random_space(rng, rng.randint(3, 8))
        support = rng.sample(range(space.n), rng.randint(1, space.n))
        mu = FreeElement.make(space, {p: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for p in support})
        pts = sorted(set(mu.support) | {space.base})
        sub = fresh_subspace(space, pts)
        sub_mu = FreeElement.make(sub, {pts.index(p): w for p, w in mu.weights})
        fresh = lp.ball_plan(sub.ball_rows, lp.solve_lip_ball(lp.LipBallProgram(space=sub, objective=sub_mu)))
        flows = tuple(sorted((pts[p], pts[q], mass) for p, q, mass in fresh.flows))
        assert free_norm(mu).plan == lp.TransportPlan(flows, fresh.cost)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = lp.TransportPlan(tuple((p, q, c * m) for p, q, m in flows), c * fresh.cost)
        assert free_norm(mu).scaled(c).plan == scaled == free_norm(mu * c).plan

    def test_plan_is_built_on_first_read_and_kept(self, monkeypatch):
        built = []
        ball_plan = lp.ball_plan
        monkeypatch.setattr(lp, "ball_plan", lambda *args: built.append(args) or ball_plan(*args))
        space = build_half_line_space([0, 1, 3, 7, 8])
        for weights in ({1: ONE, 2: rat(-3), 3: rat("1/2"), 4: rat(2)}, {1: ONE, 3: rat(-2)}):
            built.clear()
            res = free_norm(FreeElement.make(space, weights))
            scaled = res.scaled(rat(2))
            assert res.value > 0 and built == []
            plan = res.plan
            assert len(built) == 1 and res.plan is plan
            assert scaled.plan.cost == 2 * plan.cost and len(built) == 1


class TestFreeDist:
    def test_symmetry_and_identity(self, triangle):
        m1, m2 = Molecule(triangle, 1, 2), Molecule(triangle, 2, 0)
        assert free_dist(m1, m2) == free_dist(m2, m1)
        assert free_dist(m1, m1) == 0

    def test_reversed_molecule_at_distance_two(self, triangle):
        m = Molecule(triangle, 1, 2)
        assert free_dist(m, Molecule(triangle, m.v, m.u)) == 2

    def test_triangle_inequality_on_molecules(self, triangle):
        mols = all_molecules(triangle)
        for a in mols[:4]:
            for b in mols[:4]:
                for c in mols[:4]:
                    assert free_dist(a, c) <= free_dist(a, b) + free_dist(b, c)

    def test_formula_matches_on_disjoint_equal_length_pairs(self):
        space = build_example2_space(3)
        pts = [
            (example2_point(space, "x", i), example2_point(space, "y", i))
            for i in (1, 2, 3)
        ]
        mols = [Molecule(space, u, v) for u, v in pts]
        for i, a in enumerate(mols):
            for b in mols[i + 1 :]:
                lhs = free_dist(a, b)
                assert lhs == molecule_distance_formula(a, b)
                assert lhs == 2  # all four cross distances equal 2

    def test_formula_is_upper_bound_on_random_spaces(self):
        rng = random.Random(77)
        for _ in range(15):
            space = random_space(rng, 4)
            mols = all_molecules(space)
            a, b = rng.sample(mols, 2)
            assert free_dist(a, b) <= molecule_distance_formula(a, b)


class TestSlices:
    def test_norming_molecule_in_every_slice(self, triangle):
        f = free_norm(Molecule(triangle, 1, 2).element()).witness
        got = molecules_in_slice(triangle, f, rat("1/100"))
        assert any((m.u, m.v) == (1, 2) for m in got)

    def test_alpha_two_gives_more_than_alpha_small(self, triangle):
        f = free_norm(Molecule(triangle, 1, 2).element()).witness
        small = molecules_in_slice(triangle, f, rat("1/100"))
        big = molecules_in_slice(triangle, f, rat(2))
        assert set(small) <= set(big)

    def test_requires_norm_one(self, triangle):
        half = LipFunction(triangle, (ZERO, ONE, ZERO))  # norm 1/2
        with pytest.raises(ValueError):
            molecules_in_slice(triangle, half, rat(1))


class TestCancellation:
    def test_telescoping_sum_is_zero(self, line4):
        mu = FreeElement.zero(line4)
        for p in range(3):
            m = Molecule(line4, p, p + 1)
            mu = mu + m.element() * line4.d[p][p + 1]
        # sum of d*m_{p,p+1} = delta_0 - delta_3 (rooted), norm d(0,3)
        assert free_norm(mu).value == line4.d[0][3]
        assert (mu - mu).is_zero()
