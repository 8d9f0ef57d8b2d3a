import json
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest
from conftest import spaces_for

from lipfree import diametral, functions, lp, metric, reproduce
from lipfree.free import Molecule, free_dist
from lipfree.functions import LipFunction, delta_hat_family, nearest_point_function
from lipfree.metric import (
    FiniteMetricSpace,
    build_example1_space,
    build_hat_space,
    build_two_anchor_space,
    metric_violations,
    seg,
)
from lipfree.reproduce import (
    scan_theorem4_condition6,
    verify_daugavet_recursion,
    verify_delta_existence,
    verify_example1,
    verify_example2,
    verify_two_anchor_daugavet,
)
from lipfree.sampling import random_lip_function
from lipfree.scalars import ONE, rat


def _reference_sign_normalize(f):
    """The Fraction sign normalization example 1's sampler made before it
    ran on ints: (s f, smallest admissible point) for the first sign s with
    f(m_k1) <= 3/4 for all k and some f(m_1j) >= 0."""
    space = f.space
    base, d = space.base, space.d
    for cand in (f, -f):
        values = cand.values
        if all(values[k] - values[base] <= rat("3/4") * d[k][base] for k in space.points() if k != base):
            admissible = [j for j in space.points() if j != base and values[base] >= values[j]]
            if admissible:
                return cand, min(admissible)
    raise ValueError("no sign normalization exists; is ||f|| <= 1?")


def _reference_samples(space, n, samples, seed):
    rng = random.Random(seed)
    fns, attempts = [], 0
    while len(fns) < samples and attempts < 2000 * samples:
        attempts += 1
        cand, smallest = _reference_sign_normalize(random_lip_function(rng, space))
        if smallest == n - 1:
            fns.append(cand)
    return fns, attempts


def _example1_draws_without_prefilter(space, n, samples, rng):
    """reproduce._example1_draws as it was before its prefilter: L is
    computed for every draw."""
    D, scale = space.int_view
    base = space.base
    others = [p for p in space.points() if p != base]
    fns = []
    attempts = 0
    while len(fns) < samples and attempts < 2000 * samples:
        attempts += 1
        L = 0
        while L == 0:
            v = [rng.randint(-10, 10) for _ in space.points()]
            v[base] = 0
            L = reproduce.lip_constant(space, v, space.points())[0]
        lhs, rhs = 4 * L.denominator * scale, 3 * L.numerator
        for s in (1, -1):
            if all(s * v[k] * lhs <= rhs * D[k][base] for k in others):
                smallest = next((j for j in others if s * v[j] <= 0), None)
                if smallest is not None:
                    break
        else:
            raise ValueError("no sign normalization exists; is ||f|| <= 1?")
        if smallest == n - 1:
            fns.append(LipFunction(space, tuple(Fraction(s * x * L.denominator, L.numerator) for x in v)))
    return fns, attempts


class TestExample1:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_int_sampler_keeps_the_fraction_samples(self, n, monkeypatch):
        space = build_example1_space(24)
        kept = []
        solve = lp.max_over_pairs

        def recording(space, fn, *rest):
            kept.append(fn)
            return solve(space, fn, *rest)

        monkeypatch.setattr(lp, "max_over_pairs", recording)
        for seed in range(5):
            kept.clear()
            report = verify_example1(N=24, n=n, samples=3, seed=seed)
            fns, attempts = _reference_samples(space, n, 3, seed)
            check = next(c for c in report.checks if c.description.startswith("rejection sampling"))
            assert check.values == {"found": len(fns), "attempts": attempts}
            assert kept == fns

    def test_prefilter_keeps_the_reports_and_skips_lip_constant(self, monkeypatch):
        calls = Counter()
        lip_constant = reproduce.lip_constant

        def counting(*args):
            calls[side] += 1
            return lip_constant(*args)

        monkeypatch.setattr(reproduce, "lip_constant", counting)
        draws = reproduce._example1_draws
        for n in range(2, 7):
            for seed in range(5):
                reports = {}
                for side in ("computes L first", "prefilter"):
                    with monkeypatch.context() as m:
                        if side == "computes L first":
                            m.setattr(reproduce, "_example1_draws", _example1_draws_without_prefilter)
                        reports[side] = verify_example1(N=24, n=n, samples=5, seed=seed).dumps("exact")
                assert reports["prefilter"] == reports["computes L first"]
        assert reproduce._example1_draws is draws
        assert 0 < calls["prefilter"] < calls["computes L first"]

    def test_a_draw_no_sign_admits_is_an_error(self, monkeypatch):
        # L far below the true constant puts both signs above the 3/4 cap
        monkeypatch.setattr(reproduce, "lip_constant", lambda *args: (Fraction(1, 100), None))
        with pytest.raises(ValueError, match="no sign normalization"):
            verify_example1(N=24, n=3, samples=1, seed=0)

    def test_space_is_three_minus_reciprocal_gap(self):
        for N in range(2, 31):
            space = build_example1_space(N)
            assert space.d == tuple(
                tuple(Fraction(0) if a == b else 3 - abs(Fraction(1, a) - Fraction(1, b)) for b in range(1, N + 1))
                for a in range(1, N + 1)
            )
            assert next(metric_violations(space), None) is None

    def test_small_run_passes(self):
        report = verify_example1(N=10, n=3, samples=3, seed=7)
        assert report.overall
        assert report.parameters["alpha"] == rat("1/9") - rat("1/12")

    def test_alpha_at_n_two(self):
        report = verify_example1(N=8, n=2, samples=2, seed=1)
        assert report.overall
        assert report.parameters["alpha"] == rat("1/18")

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            verify_example1(N=5, n=5)


class TestExample2:
    def test_small_run_passes(self):
        report = verify_example2(N=5, n=4, alpha="1/2", eps="1/5", samples=2, seed=3)
        assert report.overall

    def test_each_sample_norm_is_solved_once_for_all_alphas(self, monkeypatch):
        calls = []
        solve = reproduce.free_norm

        def counting(mu):
            calls.append(mu)
            return solve(mu)

        monkeypatch.setattr(reproduce, "free_norm", counting)
        verify_example2(N=4, n=3, samples=2, alpha=["1/4", "1/2"])
        two_alphas = len(calls)
        calls.clear()
        verify_example2(N=4, n=3, samples=2, alpha="1/2")
        assert two_alphas == len(calls) == 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            verify_example2(N=4, n=6)
        with pytest.raises(ValueError):
            verify_example2(N=7, n=6, alpha="2")
        with pytest.raises(ValueError):
            verify_example2(N=7, n=6, eps="3/4")


class TestDeltaExistence:
    def test_default_builder_small(self):
        report = verify_delta_existence(k=6)
        assert report.overall

    def test_molecule_distances_lift_no_witness(self, lifts):
        # the pairwise separation reads only the value of each free_dist
        assert verify_delta_existence(k=12).overall
        assert lifts == []

    @pytest.mark.parametrize("k", [12, 16])
    def test_separation_makes_no_solve(self, k):
        before = lp.COUNTS.solves
        assert verify_delta_existence(k=k).overall
        assert lp.COUNTS.solves == before

    def test_unwitnessed_pairs_fall_back_to_free_dist(self, monkeypatch):
        # with no witness the 28 pairs of k = 12 are each one LP, and the
        # report is the same bytes
        witnessed = verify_delta_existence(k=12).dumps("exact")
        monkeypatch.setattr(reproduce, "_separation_witnessed", lambda space, uv, pq: False)
        before = lp.COUNTS.solves
        assert verify_delta_existence(k=12).dumps("exact") == witnessed
        assert lp.COUNTS.solves - before == 28


    @pytest.mark.parametrize("k", range(3, 25))
    def test_touching_scans_equal_the_full_norms(self, k):
        # every g_norm, dist and window dist of the report against the full
        # LipFunction.norm of the function it names
        hs = build_hat_space(k)
        fam = delta_hat_family(hs.space, hs.pairs, hs.scale, hs.tolerance)
        f = fam.f
        values = {c.description: c.values for c in verify_delta_existence(k=k).checks}
        for i in range(3, k + 1):
            got = values[f"companion distance i={i}"]
            assert got["g_norm"] == fam.g[i].norm
            assert got["dist"] == (f - fam.g[i]).norm
        for i in (4, 8, 12):
            if i + 1 <= k:
                average = (1 / rat(i)) * sum((fam.g[j] for j in range(3, i + 2)), fam.g[2])
                assert values[f"window average i={i}"]["dist"] == (f - average).norm


class TestSeparationWitness:
    """reproduce._separation_witnessed: a True is a proof of
    free_dist(m_uv, m_pq) >= 1, a False proves nothing."""

    def test_every_witnessed_pair_is_separated(self):
        proved = unproved = 0
        for space in spaces_for(36, 6, n_range=(4, 6)):
            for (u, v), (p, q) in permutations(permutations(space.points(), 2), 2):
                if len({u, v, p, q}) < 4:
                    continue
                if reproduce._separation_witnessed(space, (u, v), (p, q)):
                    proved += 1
                    assert free_dist(Molecule(space, u, v), Molecule(space, p, q)) >= 1
                else:
                    unproved += 1
        assert proved and unproved

    def test_parallel_pair_is_left_to_free_dist(self):
        # u, v, p, q = (0, 0), (10, 0), (0, 1), (10, 1) in the l1 plane: each
        # witness reads 0 on m_uv - m_pq, whose exact distance is 1/5
        d = [[0, 10, 1, 11], [10, 0, 11, 1], [1, 11, 0, 10], [11, 1, 10, 0]]
        space = FiniteMetricSpace.from_matrix(d)
        assert next(metric_violations(space), None) is None
        assert not reproduce._separation_witnessed(space, (0, 1), (2, 3))
        assert free_dist(Molecule(space, 0, 1), Molecule(space, 2, 3)) == Fraction(1, 5)

    def test_witness_that_is_not_1_lipschitz_proves_nothing(self):
        # d(u, v) = d(p, q) = 10 breaks the triangle inequality through the
        # other pair: both witnesses read 1 on m_uv - m_pq, but each changes
        # by 5 over a distance of 1, and the exact distance is 1/5
        d = [[0, 10, 1, 1], [10, 0, 1, 1], [1, 1, 0, 10], [1, 1, 10, 0]]
        space = FiniteMetricSpace.from_matrix(d)
        assert next(metric_violations(space)).kind == "triangle"
        assert not reproduce._separation_witnessed(space, (0, 1), (2, 3))
        assert free_dist(Molecule(space, 0, 1), Molecule(space, 2, 3)) == Fraction(1, 5)


class TestDaugavetRecursion:
    def test_small_run_passes(self):
        report = verify_daugavet_recursion(stages=3, samples=2, seed=2)
        assert report.overall
        stage_checks = [c for c in report.checks if c.description.startswith("stage")]
        assert len(stage_checks) == 3

    @pytest.mark.parametrize("seed", [443136, 172975])
    def test_sampled_element_with_mass_at_the_base(self, seed):
        # these seeds sample an element whose weights do not sum to zero, so
        # it meets the annulus holding the base point
        assert verify_daugavet_recursion(stages=9, samples=5, seed=seed).overall

    def test_hypothesis_is_checked_once(self, monkeypatch):
        calls = []
        real = metric.check_annuli_hypothesis

        def counting(*args):
            calls.append(args)
            return real(*args)

        for module in (metric, diametral, functions):
            monkeypatch.setattr(module, "check_annuli_hypothesis", counting)
        assert verify_daugavet_recursion(stages=6, samples=2).overall
        assert len(calls) == 1


def ref_nearest_site_hypothesis(space, f, sites, deltas) -> list:
    """reproduce._nearest_site_hypothesis as it was first written: the
    Fraction test of every point of every segment."""
    bad = []
    for u in sites:
        for delta in deltas:
            for v in space.points():
                if v == u:
                    continue
                found = any(
                    p != u
                    and f.values[p] - f.values[u] > (ONE - delta) * space.d[u][p]
                    for p in seg(space, u, v, delta)
                )
                if not found:
                    bad.append((u, delta, v))
    return bad


class TestTwoAnchor:
    @pytest.mark.parametrize("N", range(5, 13))
    def test_nearest_site_hypothesis_matches_the_reference(self, N):
        space = build_two_anchor_space(N)
        sites = [space.base] + [p for p in space.points() if p >= 2 and p != space.base]
        for grid in (("1/2", "1/4", "1/8"), ("1/3", "1/5")):
            deltas = [rat(x) for x in grid]
            f = nearest_point_function(space, sites)
            got = reproduce._nearest_site_hypothesis(space, f, sites, deltas)
            assert got == ref_nearest_site_hypothesis(space, f, sites, deltas)
            f = nearest_point_function(space, sites + [0])
            got = reproduce._nearest_site_hypothesis(space, f, [0], deltas)
            assert got and got == ref_nearest_site_hypothesis(space, f, [0], deltas)

    def test_small_run_passes(self):
        report = verify_two_anchor_daugavet(N=6, search_size=5, search_stages=3)
        assert report.overall
        # the infeasibility check records the two-stage witness it found
        last = report.checks[-1]
        assert last.values["two_stage_witness"] is not None
        assert last.values["witness"] is None

    @staticmethod
    def _factors():
        return [ONE - rat(f"1/{2 ** (i + 2)}") for i in range(3)]

    @pytest.mark.parametrize("N", [5, 6, 7])
    def test_shared_memo_gives_the_fresh_configurations(self, N):
        space, factors, memo = build_two_anchor_space(N), self._factors(), {}
        for k in (1, 2, 3):
            shared = reproduce._annuli_family_feasible(space, k, factors, memo)
            assert shared == reproduce._annuli_family_feasible(space, k, factors, {})

    def test_three_stage_search_evaluates_no_key_twice(self, monkeypatch):
        space, factors = build_two_anchor_space(6), self._factors()
        evaluated = Counter()  # (points outside A, factor, u, v) per quadruple scan
        real = reproduce.quadruple_failures

        def counting(space_, u, v, points, factor):
            evaluated[frozenset(points), factor, u, v] += 1
            return real(space_, u, v, points, factor)

        monkeypatch.setattr(reproduce, "quadruple_failures", counting)
        reproduce._annuli_family_feasible(space, 2, factors, {})
        reproduce._annuli_family_feasible(space, 3, factors, {})
        assert max(evaluated.values()) > 1  # fresh searches repeat keys

        evaluated.clear()
        memo = {}
        reproduce._annuli_family_feasible(space, 2, factors, memo)
        after_two = sum(evaluated.values())
        reproduce._annuli_family_feasible(space, 3, factors, memo)
        assert sum(evaluated.values()) > after_two
        assert max(evaluated.values()) == 1

        evaluated.clear()  # the certificate shares one memo between its two searches
        assert verify_two_anchor_daugavet(N=6, search_size=6, search_stages=3).overall
        assert max(evaluated.values()) == 1


class TestScan:
    def test_profiles_are_informational(self):
        space = build_two_anchor_space(6)
        f = nearest_point_function(space, [space.base])
        report = scan_theorem4_condition6(space, f, ["1/2", "1/4"], 2)
        assert report.overall
        assert len(report.checks) == 2

    def test_rejects_unnormalized(self):
        space = build_two_anchor_space(6)
        f = nearest_point_function(space, [space.base]) * rat("1/2")
        with pytest.raises(ValueError):
            scan_theorem4_condition6(space, f, ["1/2"], 2)


class TestDeterminism:
    def test_identical_reports_byte_for_byte(self):
        a = verify_example1(N=8, n=2, samples=2, seed=11).dumps("exact")
        b = verify_example1(N=8, n=2, samples=2, seed=11).dumps("exact")
        assert a == b

    def test_json_schema_fields(self):
        report = verify_delta_existence(k=5)
        obj = json.loads(report.dumps("exact"))
        assert {"claim", "parameters", "witnesses", "slack"} <= obj.keys()
        assert {"checks", "overall"} <= obj.keys()
        assert "verified" not in obj  # one verdict key, not two
        assert obj["overall"] is True

    def test_float_mode_renders_decimals(self):
        report = verify_example1(N=8, n=2, samples=1, seed=0)
        obj = json.loads(report.dumps("float"))
        # scalars render as decimal strings so the files stay byte-stable
        assert float(obj["parameters"]["alpha"]) == pytest.approx(1 / 18)
