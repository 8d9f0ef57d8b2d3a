import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipfree.functions import (
    LipFunction,
    annulus_case_extension,
    daugavet_recursive_construction,
    delta_hat_family,
    example2_function,
    mcshane_extend,
    nearest_point_function,
    tail_plateau,
)
from lipfree.metric import (
    build_example2_space,
    build_half_line_space,
    build_hat_space,
    build_recursion_space,
    example2_point,
)
from lipfree.sampling import random_lip_function, random_space
from lipfree.scalars import ONE, ZERO, rat
from test_metric import PRIMES, random_fraction, rational_metric_space, ref_lip_constant


class TestLipFunctionBasics:
    def test_norm_and_witness_pair(self, triangle):
        f = LipFunction(triangle, (ZERO, rat(2), ZERO))
        assert f.norm == 1 and f.molecule_value(1, 0) == 1

    def test_molecule_value_antisymmetry(self, triangle):
        f = LipFunction(triangle, (ZERO, rat(1), rat(-2)))
        assert f.molecule_value(1, 2) == -f.molecule_value(2, 1)

    def test_rooted_shifts_to_zero(self, triangle):
        f = LipFunction(triangle, (rat(3), rat(4), rat(1)))
        assert not f.is_rooted
        g = f.rooted()
        assert g.is_rooted and g.values[0] == 0
        # shifting never changes the norm or molecule values
        assert g.norm == f.norm
        assert g.molecule_value(1, 2) == f.molecule_value(1, 2)

    def test_arithmetic(self, triangle):
        f = LipFunction(triangle, (ZERO, ONE, ZERO))
        g = LipFunction(triangle, (ZERO, ZERO, ONE))
        assert (f + g).values == (ZERO, ONE, ONE)
        assert (f - g).values == (ZERO, ONE, -ONE)
        assert (f * rat(3)).values == (ZERO, rat(3), ZERO)
        assert (-f).values == (ZERO, -ONE, ZERO)

    def test_json_round_trip(self, triangle):
        f = LipFunction(triangle, (ZERO, rat("1/3"), rat("-7/2")))
        again = LipFunction.from_json(f.to_json())
        assert again == f


class TestMcShane:
    def test_agrees_on_subset_and_order(self, line4):
        values = {0: ZERO, 2: rat(3)}
        lo = mcshane_extend(line4, [0, 2], values, 1, direction="lower")
        hi = mcshane_extend(line4, [0, 2], values, 1, direction="upper")
        for p in (0, 2):
            assert lo.values[p] == values[p] == hi.values[p]
        assert all(lo.values[p] <= hi.values[p] for p in line4.points())
        assert lo.norm <= 1 and hi.norm <= 1

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_extension_laws_random(self, seed):
        rng = random.Random(seed)
        space = random_space(rng, rng.randint(3, 8))
        f = random_lip_function(rng, space, norm_one=False)
        subset = sorted(rng.sample(range(space.n), rng.randint(1, space.n)))
        values = {s: f.values[s] for s in subset}
        L = max(f.norm, ONE)
        lo = mcshane_extend(space, subset, values, L, direction="lower")
        hi = mcshane_extend(space, subset, values, L, direction="upper")
        assert lo.norm <= L and hi.norm <= L
        for s in subset:
            assert lo.values[s] == values[s] == hi.values[s]
        assert all(lo.values[p] <= hi.values[p] for p in space.points())

    def test_rejects_non_lipschitz_data(self, line4):
        with pytest.raises(ValueError, match=r"not 1-Lipschitz .* witness pair \(0, 1\)"):
            mcshane_extend(line4, [0, 1], {0: ZERO, 1: rat(5)}, 1)
        with pytest.raises(ValueError, match="non-negative"):
            mcshane_extend(line4, [2], {2: rat(5)}, -1)

    def test_rejects_bad_direction(self, line4):
        with pytest.raises(ValueError):
            mcshane_extend(line4, [0], {0: ZERO}, 1, direction="sideways")

    def test_shift_base(self, line4):
        f = mcshane_extend(line4, [2], {2: rat(5)}, 1, shift_base=True)
        assert f.is_rooted


class TestSurgeries:
    def test_nearest_point_vanishes_on_sites(self, line4):
        f = nearest_point_function(line4, [0, 2])
        assert f.values[0] == 0 and f.values[2] == 0
        assert f.values[3] == line4.d[2][3]
        assert f.norm <= 1

    def test_nearest_point_requires_base_first(self, line4):
        with pytest.raises(ValueError):
            nearest_point_function(line4, [2, 0])


class TestTailPlateau:
    def test_plateau_values_and_norm(self):
        space = build_example2_space(4)
        g = example2_function(space)
        h = tail_plateau(g, 2)
        assert h.norm <= 1
        a = rat(-1)  # (max + min)/2 of core values {0, -2}
        assert h.values[example2_point(space, "x", 3)] == a - 1
        assert h.values[example2_point(space, "y", 3)] == a + 1
        assert h.values[example2_point(space, "u", 4)] == a
        # the core is untouched
        assert h.values[example2_point(space, "v", 2)] == g.values[
            example2_point(space, "v", 2)
        ]

    def test_rejects_improper_core(self):
        space = build_example2_space(2)
        g = example2_function(space)
        with pytest.raises(ValueError):
            tail_plateau(g, 2)  # core is everything

    def test_full_separation_from_base_function(self):
        space = build_example2_space(4)
        f = example2_function(space)
        h = tail_plateau(f, 2)
        u, v = example2_point(space, "x", 3), example2_point(space, "y", 3)
        assert (f - h).molecule_value(u, v) == 2


class TestHatFamily:
    def test_heights_and_swaps(self):
        hs = build_hat_space(6)
        fam = delta_hat_family(hs.space, hs.pairs, hs.scale, hs.tolerance)
        assert fam.f.norm == 1
        u4, v4 = hs.pairs[3]
        height = hs.scale * (4 - 2) / (2 * 4)
        assert fam.f.values[u4] == height and fam.f.values[v4] == -height
        g4 = fam.g[4]
        assert g4.values[u4] == -height and g4.values[v4] == height
        # other pairs are untouched by the swap
        u5, _ = hs.pairs[4]
        assert g4.values[u5] == fam.f.values[u5]

    def test_rejects_bad_pairs(self):
        hs = build_hat_space(5)
        bad = list(hs.pairs)
        bad[1] = (bad[1][0], bad[2][1])  # reuse a point across pairs
        with pytest.raises(ValueError):
            delta_hat_family(hs.space, bad, hs.scale, hs.tolerance)


class TestRecursiveConstruction:
    def test_stage_bounds_and_final_norm(self):
        rs = build_recursion_space(6)
        f, log = daugavet_recursive_construction(rs.space, rs.pairs, rs.annuli)
        assert f.norm == 1 and f.is_rooted
        assert len(log) == 6
        for rec in log:
            assert rec.ok
            assert rec.lip_constant <= rec.constant_bound
            assert rec.molecule_value >= rec.molecule_bound

    def test_rejects_broken_hypothesis(self):
        rs = build_recursion_space(3)
        bad = (rs.annuli[0] | rs.annuli[1],) + rs.annuli[1:]
        with pytest.raises(ValueError, match="hypothesis"):
            daugavet_recursive_construction(rs.space, rs.pairs, bad)

    def test_requires_base_as_first_point(self):
        rs = build_recursion_space(3)
        swapped = [(rs.pairs[0][1], rs.pairs[0][0])] + list(rs.pairs[1:])
        with pytest.raises(ValueError):
            daugavet_recursive_construction(rs.space, swapped, rs.annuli)


class TestAnnulusExtension:
    def _setup(self):
        rs = build_recursion_space(4)
        f, _ = daugavet_recursive_construction(rs.space, rs.pairs, rs.annuli)
        return rs, f

    def test_case_v_outside(self):
        # u isolated far out on a half-line, A = {u}, v among the near points
        space = build_half_line_space([0, 1, 2, 100])
        f = nearest_point_function(space, [0])
        u, v, eps = 3, 2, rat("1/2")
        g = annulus_case_extension(f, {u}, u, v, eps)
        assert g.norm <= 1
        assert g.molecule_value(u, v) >= 1 - eps
        # the pinning relation holds exactly
        assert g.values[u] - g.values[v] == (1 - eps) * space.d[u][v]

    def test_case_v_inside(self):
        rs, f = self._setup()
        u, v = rs.pairs[1]
        assert v in rs.annuli[1]
        g = annulus_case_extension(f, rs.annuli[1], u, v, rs.eps[1])
        assert g.norm <= 1
        assert g.molecule_value(u, v) >= 1 - rs.eps[1]
        # off the annulus, g is the rescaled original up to the root shift
        out = [p for p in rs.space.points() if p not in rs.annuli[1]]
        scale = 1 - rs.eps[1]
        for p in out:
            for q in out:
                if p != q:
                    assert g.molecule_value(p, q) == scale * f.molecule_value(p, q)

    def test_rejects_u_outside_A(self):
        rs, f = self._setup()
        u, v = rs.pairs[1]
        with pytest.raises(ValueError):
            annulus_case_extension(f, {v}, u, v, rs.eps[1])



def ref_lower(space, values, L, p):
    return max(v - L * space.d[s][p] for s, v in values.items())


def ref_upper(space, values, L, p):
    return min(v + L * space.d[s][p] for s, v in values.items())


class TestMcShaneKernel:
    """Every McShane value of functions against the Fraction formulas the
    int kernel replaced, on rational metrics whose common denominator is a
    product of distinct primes."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_mcshane_extend_matches_fraction_reference(self, seed):
        rng = random.Random(seed)
        space = rational_metric_space(rng, rng.randint(2, 9))
        subset = rng.sample(range(space.n), rng.randint(1, space.n))
        if rng.random() < 0.2:
            values, L = dict.fromkeys(subset, random_fraction(rng, -60, 60)), ZERO
        else:
            values = {s: random_fraction(rng, -60, 60) for s in subset}
            # fractional L, exactly the subset's constant one time in three
            L = ref_lip_constant(space, values, subset)[0] + random_fraction(rng, 0, 20)
        for direction, ref in (("lower", ref_lower), ("upper", ref_upper)):
            f = mcshane_extend(space, subset, values, L, direction)
            assert f.values == tuple(ref(space, values, L, p) for p in space.points())
            assert all(type(x) is Fraction for x in f.values)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_nearest_point_function_is_the_least_site_distance(self, seed):
        rng = random.Random(seed)
        space = rational_metric_space(rng, rng.randint(2, 9))
        others = [p for p in space.points() if p != space.base]
        sites = [space.base, *rng.sample(others, rng.randint(0, len(others)))]
        f = nearest_point_function(space, sites)
        assert f.values == tuple(min(space.d[s][p] for s in sites) for p in space.points())
        assert all(type(x) is Fraction for x in f.values)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_annulus_case_two_matches_hand_built_assembly(self, seed):
        rng = random.Random(seed)
        space = rational_metric_space(rng, rng.randint(3, 9))
        u, v = rng.sample(range(space.n), 2)
        others = [p for p in space.points() if p not in (u, v)]
        A = {u, v, *rng.sample(others, rng.randint(0, len(others) - 1))}
        f = LipFunction(space, tuple(random_fraction(rng, -60, 60) for _ in space.points()))
        f = f * (1 / f.norm) if f.norm else f
        eps = 1 - Fraction(rng.randint(1, 3), rng.choice(PRIMES[2:8]))
        # case 2 as it was written out by hand: g(u) the upper and every other
        # point of A the lower extension of the rescaled f off A
        outside = [p for p in space.points() if p not in A]
        g = {p: (1 - eps) * f.values[p] for p in outside}
        g[u] = ref_upper(space, g, ONE, u)
        for y in sorted(A - {u}):
            g[y] = ref_lower(space, {x: g[x] for x in outside + [u]}, ONE, y)
        ref = LipFunction(space, tuple(g[p] for p in space.points())).rooted()
        try:
            got = annulus_case_extension(f, A, u, v, eps)
        except ValueError as exc:
            assert "annulus hypothesis fails" in str(exc)
        else:
            assert got == ref

    @pytest.mark.parametrize("k", range(1, 7))
    def test_recursion_stage_values_match_min_max_formulas(self, k):
        rs = build_recursion_space(k)
        space, d = rs.space, rs.space.d
        f, log = daugavet_recursive_construction(space, rs.pairs, rs.annuli)
        ref = {rs.pairs[0][0]: ZERO, rs.pairs[0][1]: ZERO}
        for n, ((u, v), rec) in enumerate(zip(rs.pairs, log), start=1):
            if n > 1:
                c = 1 - Fraction(1, 2**n)
                prev = list(ref)
                ref[u] = min(ref[x] + c * d[x][u] for x in prev)
                ref[v] = max(ref[x] - c * d[x][v] for x in prev + [u])
            # the final lower extension with constant 1 keeps the stage values
            assert (f.values[u], f.values[v]) == (ref[u], ref[v])
            assert rec.lip_constant == ref_lip_constant(space, ref, sorted(ref))[0]
            assert rec.molecule_value == (ref[u] - ref[v]) / d[u][v]
