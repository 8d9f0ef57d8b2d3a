import itertools
import random

import pytest

from lipfree import diametral, lp
from lipfree.cli import main
from lipfree.diametral import verify_separated_annuli, wstar_delta_radius
from lipfree.free import Molecule, free_norm
from lipfree.metric import build_annuli_space, build_recursion_space
from lipfree.sampling import random_lip_function, random_space
from lipfree.scalars import ONE, ZERO, rat
from test_free_space import fresh_subspace


def _vertex_oracle(space, f, mu, alpha):
    """Brute-force sup ||f - g|| over the dual slice by vertex enumeration.

    The feasible set lives in R^(n-1) (g(base) = 0) and is cut out by the
    Lipschitz inequalities plus the slice row; every vertex solves some
    (n-1)-subset of the rows with equality. Exact Gaussian elimination.
    """
    base = space.base
    vars_ = [p for p in space.points() if p != base]
    k = len(vars_)
    pos = {p: i for i, p in enumerate(vars_)}

    rows = []  # (coeffs, bound) meaning coeffs . g <= bound
    for p, q in space.pairs():
        co = [ZERO] * k
        if p != base:
            co[pos[p]] += ONE
        if q != base:
            co[pos[q]] -= ONE
        rows.append((tuple(co), space.d[p][q]))
        rows.append((tuple(-c for c in co), space.d[p][q]))
    slice_co = [ZERO] * k
    for p, w in mu.weight_dict().items():
        slice_co[pos[p]] -= w
    rows.append((tuple(slice_co), -(ONE - rat(alpha))))

    def solve(subset):
        # exact solve of the k x k system given by the chosen active rows
        m = [list(rows[i][0]) + [rows[i][1]] for i in subset]
        for col in range(k):
            piv = next((r for r in range(col, k) if m[r][col] != 0), None)
            if piv is None:
                return None
            m[col], m[piv] = m[piv], m[col]
            inv = ONE / m[col][col]
            m[col] = [x * inv for x in m[col]]
            for r in range(k):
                if r != col and m[r][col] != 0:
                    fac = m[r][col]
                    m[r] = [a - fac * b for a, b in zip(m[r], m[col])]
        return [m[r][k] for r in range(k)]

    best = None
    for subset in itertools.combinations(range(len(rows)), k):
        g = solve(subset)
        if g is None:
            continue
        if any(
            sum(c * x for c, x in zip(co, g)) > b for co, b in rows
        ):
            continue
        full = {p: g[pos[p]] for p in vars_}
        full[base] = ZERO
        val = max(
            (f.values[p] - full[p] - f.values[q] + full[q]) / space.d[p][q]
            for p in space.points()
            for q in space.points()
            if p != q
        )
        if best is None or val > best:
            best = val
    return best


class TestWstarRadius:
    def test_alpha_two_gives_two(self, triangle):
        mu = Molecule(triangle, 1, 2).element()
        f = free_norm(mu).witness
        res = wstar_delta_radius(triangle, f, mu, rat(2))
        assert res.value == 2
        assert res.witness.norm <= 1

    def test_monotone_in_alpha(self, triangle):
        mu = Molecule(triangle, 1, 2).element()
        f = free_norm(mu).witness
        small = wstar_delta_radius(triangle, f, mu, rat("1/4"))
        big = wstar_delta_radius(triangle, f, mu, rat(1))
        assert small.value <= big.value

    def test_membership_enforced(self, triangle):
        mu = Molecule(triangle, 1, 2).element()
        f = free_norm(mu).witness
        with pytest.raises(ValueError):
            wstar_delta_radius(triangle, -f, mu, rat("1/4"))
        # without the membership check the radius of -f is still exact
        res = wstar_delta_radius(triangle, -f, mu, rat("1/4"), require_membership=False)
        assert res.value == _vertex_oracle(triangle, -f, mu, rat("1/4"))

    def test_matches_vertex_enumeration_oracle(self):
        rng = random.Random(20240818)
        for _ in range(12):
            space = random_space(rng, rng.randint(2, 4))
            f = random_lip_function(rng, space)
            pts = [p for p in space.points() if p != space.base]
            u = rng.choice(pts)
            mu = Molecule(space, u, space.base).element()
            alpha = rat(rng.choice(["1/4", "1/2", "1", "3/2"]))
            try:
                res = wstar_delta_radius(
                    space, f, mu, alpha, require_membership=False
                )
            except ValueError:
                continue  # empty dual slice
            oracle = _vertex_oracle(space, f, mu, alpha)
            assert oracle == res.value

    def test_one_pair_is_one_program(self, triangle):
        mu = Molecule(triangle, 1, 2).element()
        f = free_norm(mu).witness
        res = wstar_delta_radius(triangle, f, mu, rat("1/2"), pairs=[(2, 0)])
        side = lp.SideConstraint(weights=mu.weight_dict(), relation=">=", bound=rat("1/2"))
        direct = lp.solve_lip_ball(
            lp.LipBallProgram(
                space=triangle,
                objective={k: -w for k, w in lp.molecule_weights(triangle, 2, 0).items()},
                side_constraints=(side,),
            )
        )
        assert (res.pair, res.value) == ((2, 0), f.molecule_value(2, 0) + direct.value)
        # a maximizer, not necessarily the vertex the simplex stops at
        g = res.witness
        assert g.norm <= 1
        assert mu.pairing(g) >= rat("1/2")
        assert -g.molecule_value(2, 0) == direct.value

    def test_default_is_every_ordered_pair(self):
        space = random_space(random.Random(11), 4)
        f = random_lip_function(random.Random(12), space)
        mu = Molecule(space, 1, 2).element()
        every = wstar_delta_radius(space, f, mu, 1, require_membership=False)
        given = wstar_delta_radius(
            space, f, mu, 1, require_membership=False, pairs=space.ordered_pairs()
        )
        assert every == given


class TestVerifySeparatedAnnuli:
    def test_recursion_space_passes(self):
        rs = build_recursion_space(3)
        report = verify_separated_annuli(
            rs.space, rs.pairs, rs.annuli, rs.eps, samples=4, seed=1
        )
        assert report.overall
        assert len(report.checks) >= 5  # hypothesis + one per sample

    @pytest.mark.parametrize("stages", [2, 3, 4])
    def test_recursion_certificate_passes_over_a_grid(self, stages, capsys):
        # the base u_1 lies in A_1, so an element avoiding A_1 must weigh to
        # zero; seed 0 once failed at stages 2 and at stages 3 with 2 samples
        for samples in (1, 2, 5):
            for seed in range(3):
                argv = ["certify", "daug-rec", "--stages", str(stages),
                        "--samples", str(samples), "--seed", str(seed)]
                assert main(argv) == 0, argv
        capsys.readouterr()

    def test_overlap_fails_hypothesis(self):
        rs = build_recursion_space(3)
        bad = (rs.annuli[0] | rs.annuli[1],) + rs.annuli[1:]
        report = verify_separated_annuli(
            rs.space, rs.pairs, bad, rs.eps, samples=2, seed=1
        )
        assert not report.overall
        assert not report.checks[0].passed

    def test_explicit_battery(self):
        rs = build_recursion_space(3)
        outside = [
            p
            for p in rs.space.points()
            if p not in rs.annuli[0]
        ]
        m = Molecule(rs.space, outside[0], outside[1]).element()
        report = verify_separated_annuli(
            rs.space, rs.pairs, rs.annuli, rs.eps, battery=[m]
        )
        assert report.overall


def _check_against_own_program(F, res):
    """lp's exact check of res's witness and plan, read as the solution of
    the ball program free_norm(F) solves: on a freshly built space on F's
    support and the base, unless that is the whole space."""
    space = F.space
    pts = sorted(set(F.support) | {space.base})
    prog = space if len(pts) == space.n else fresh_subspace(space, pts)
    pos = {p: i for i, p in enumerate(pts)}
    ball = prog.ball_rows
    c = [ZERO] * (prog.n - 1)
    for p, w in F.weights:
        c[ball.var[pos[p]]] = w
    witness = [ZERO] * (prog.n - 1)
    for p in pts:
        if ball.var[pos[p]] is not None:
            witness[ball.var[pos[p]]] = res.witness.values[p]
    row = {arc: r for r, arc in enumerate(ball.arcs)}
    multipliers = {row[pos[p], pos[q]]: mass for p, q, mass in res.plan.flows}
    lp._verify_lip_solution(ball.rows, c, witness, multipliers, res.value, ball)


class TestSampledBattery:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_the_sampling_solve_serves_the_norm_one_check(self, seed):
        asp = build_annuli_space(3)
        args = (asp.space, asp.pairs, asp.annuli, list(asp.eps))
        before = lp.COUNTS.solves
        sampled = verify_separated_annuli(*args, samples=20, seed=seed)
        assert lp.COUNTS.solves - before == 2 * 20  # ||F|| and ||F + m_uv||, not ||F / ||F|| || again

        drawn = diametral._sampled_battery(asp.space, asp.annuli, 20, random.Random(seed))
        supplied = verify_separated_annuli(*args, battery=[F for F, _ in drawn], samples=20, seed=seed)
        assert sampled.overall
        for mode in ("exact", "float"):
            assert sampled.dumps(mode) == supplied.dumps(mode)
        for F, res in drawn:
            assert res.value == 1
            _check_against_own_program(F, res)

    def test_scaled_result_is_the_solve_of_the_scaled_element(self):
        asp = build_annuli_space(2)
        rng = random.Random(5)
        for F, res in diametral._sampled_battery(asp.space, asp.annuli, 10, rng):
            again = free_norm(F)
            assert (res.value, res.plan, res.witness) == (again.value, again.plan, again.witness)
