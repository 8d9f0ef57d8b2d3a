"""End-to-end verifiers: rebuild each worked construction and certify its
displayed inequalities on the finite space, emitting CertificateReports.

Every check recomputes the quantities it asserts from raw values; nothing
is trusted from upstream flags. Strict inequalities over slices are
certified through their closures plus an explicit strictness LP where the
closed supremum sits exactly on the boundary.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from typing import Optional

# names from diametral and lp, not only the modules, which the package binds
# lazily: both then run with this module, before a certificate's first verifier
from . import lp
from .diametral import verify_separated_annuli, wstar_delta_radius
from .free import FreeElement, Molecule, free_dist, free_norm, molecule_distance_formula
from .functions import (
    LipFunction,
    daugavet_recursive_construction,
    delta_hat_family,
    example2_function,
    nearest_point_function,
    tail_plateau,
)
from .lp import INFEASIBLE, molecule_weights
from .metric import (
    FiniteMetricSpace,
    build_example1_space,
    build_example2_space,
    build_hat_space,
    build_recursion_space,
    build_two_anchor_space,
    example2_point,
    extract_separated_pairs,
    lip_constant,
    pair_sequence_failures,
    quadruple_failures,
    seg,
)
from .reports import CertificateReport
from .sampling import random_free_element
from .scalars import ONE, TWO, ZERO, rat


def _as_list(value) -> list:
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


def _rats(name: str, value) -> list:
    """One value or a sequence, as a non-empty list of rationals."""
    values = [rat(v) for v in _as_list(value)]
    if not values:
        raise ValueError(f"{name} must list at least one value")
    return values


# ---------------------------------------------------------------------------
# integers with d(n,k) = 3 - |1/n - 1/k|: no dual-Daugavet behavior


def verify_example1(
    N: int = 24,
    n: int = 3,
    samples: int = 50,
    seed: int = 0,
) -> CertificateReport:
    """No norm-one function on the 1/n-perturbed-integer space passes the
    dual-Daugavet test: functions far from f avoid the slice S(mu, alpha/n).
    """
    if not (2 <= n < N):
        raise ValueError("need 2 <= n < N")
    space = build_example1_space(N)
    alpha = rat(f"1/{3 * n}") - rat(f"1/{3 * (n + 1)}")
    mu_weights: dict = {}
    for i in range(1, n):
        for p, w in molecule_weights(space, i - 1, n - 1).items():
            mu_weights[p] = mu_weights.get(p, ZERO) + w / (n - 1)
    mu = FreeElement.make(space, mu_weights)
    report = CertificateReport(
        name="example1-not-dual-daugavet",
        parameters={"N": N, "n": n, "alpha": alpha, "samples": samples, "seed": seed},
    )
    norm = free_norm(mu).value
    report.add("averaged molecule functional has norm one", "||mu|| = 1", {"norm": norm}, norm == 1)

    rng = random.Random(seed)
    D, scale = space.int_view
    base = space.base
    others = [p for p in space.points() if p != base]
    fns = []
    attempts = 0
    while len(fns) < samples and attempts < 2000 * samples:
        attempts += 1
        L = ZERO
        while L == 0:  # the draws of sampling.random_lip_function
            v = [rng.randint(-10, 10) for _ in space.points()]
            v[base] = 0
            L = lip_constant(space, v, space.points())[0]
        # the first sign s of f = s v / L with f(m_k1) <= 3/4 for all k and some f(m_1j) >= 0;
        # two violations of the cap with opposite orientation would exceed the diameter
        lhs, rhs = 4 * L.denominator * scale, 3 * L.numerator
        for s in (1, -1):
            if all(s * v[k] * lhs <= rhs * D[k][base] for k in others):
                smallest = next((j for j in others if s * v[j] <= 0), None)
                if smallest is not None:
                    break
        else:
            raise ValueError("no sign normalization exists; is ||f|| <= 1?")
        if smallest == n - 1:  # point index of the integer n
            fns.append(LipFunction(space, tuple(Fraction(s * x * L.denominator, L.numerator) for x in v)))
    report.add(
        "rejection sampling matched the requested slice index",
        f"{samples} functions with smallest admissible index n = {n}",
        {"found": len(fns), "attempts": attempts},
        len(fns) == samples,
    )

    bound = ONE - alpha / n
    for idx, fn in enumerate(fns):
        res = lp.max_over_pairs(space, fn, TWO - alpha, mu)
        passed = res.status == INFEASIBLE or res.value < bound
        report.add(
            f"sample[{idx}]: far functions avoid the slice",
            "max mu(g) over g with ||f-g|| >= 2-alpha is < 1 - alpha/n",
            {
                "status": res.status,
                "value": res.value,
                "bound": bound,
                "pair": list(res.pair) if res.pair else None,
            },
            passed,
            slack=None if res.value is None else bound - res.value,
        )
    report.witnesses["mu"] = mu.to_json()["weights"]
    return report


# ---------------------------------------------------------------------------
# the four-family 1/2-valued space: dual-Daugavet but not Delta


def _core_points(space: FiniteMetricSpace, n: int) -> list:
    return [p for p in space.points() if int(space.labels[p][1:]) <= n]


def verify_example2(
    N: int = 7,
    n: int = 6,
    alpha="1/2",
    eps="1/5",
    samples: int = 20,
    seed: int = 0,
) -> CertificateReport:
    """The x/y/u/v space: plateau witnesses reach distance 2 inside every
    slice, yet no convex combination of far functions approaches f."""
    if N < n + 1:
        raise ValueError("need N >= n + 1")
    alphas = _rats("alpha", alpha)
    eps_list = _rats("eps", eps)
    if any(not (0 < a < 1) for a in alphas):
        raise ValueError("alpha must lie in (0, 1)")
    if any(not (0 < e < rat("1/2")) for e in eps_list):
        raise ValueError("eps must lie in (0, 1/2)")
    space = build_example2_space(N)
    f = example2_function(space)
    report = CertificateReport(
        name="example2-dual-daugavet-not-delta",
        parameters={
            "N": N,
            "n": n,
            "alpha": alphas,
            "eps": eps_list,
            "samples": samples,
            "seed": seed,
        },
    )
    report.add("f has norm one", "||f|| = 1", {"norm": f.norm}, f.norm == 1)

    core = _core_points(space, n)
    un1 = example2_point(space, "u", n + 1)
    vn1 = example2_point(space, "v", n + 1)
    xn1 = example2_point(space, "x", n + 1)
    yn1 = example2_point(space, "y", n + 1)

    # (a) plateau witnesses: distance 2 from f inside every sampled slice
    rng = random.Random(seed)
    mus = [
        random_free_element(rng, space, support_size=3, allowed=core)
        for _ in range(samples)
    ]
    plateaus = []  # per sample: the row values, and whether the checks but alpha pass
    for mu in mus:
        g = free_norm(mu).witness
        h = tail_plateau(g, n)
        at_mu = mu.pairing(h)
        diff = f - h
        witness_val = diff.molecule_value(xn1, yn1)
        values = {
            "h_norm": h.norm,
            "h_at_mu": at_mu,
            "dist": diff.norm,
            "witness_molecule_value": witness_val,
        }
        ok = h.norm <= 1 and at_mu == mu.pairing(g) and diff.norm == 2 and witness_val == 2
        plateaus.append((values, ok))
    for a in alphas:
        for idx, (values, ok) in enumerate(plateaus):
            report.add(
                f"plateau witness alpha={a} sample[{idx}]",
                "h in ball, h(mu) > 1-alpha, ||f-h|| = 2 at the (n+1) molecule",
                values,
                ok and values["h_at_mu"] > ONE - a,
            )

    # (b) no witness-far g gives the (n+1) molecule a large value. closed_max
    # is the best g(m_{u v}) over g with a core pair witnessing
    # (f - g)(m_pq) >= 2 - 2 eps; strict_max is the radius of the slice
    # {g : g(m_{u v}) >= 2 eps} over the core pairs, so no witness in that
    # slice is strict
    core_pairs = [(p, q) for p, q in permutations(core, 2) if f.molecule_value(p, q) > 0]
    target = Molecule(space, un1, vn1)
    for e in eps_list:
        closed_max = lp.max_over_pairs(space, f, TWO - 2 * e, target, pairs=core_pairs).value
        strict_max = wstar_delta_radius(
            space, f, target.element(), ONE - 2 * e, require_membership=False, pairs=core_pairs
        ).value
        passed = closed_max is not None and closed_max <= 2 * e and strict_max <= TWO - 2 * e
        report.add(
            f"no far g inflates the (n+1) molecule, eps={e}",
            "closed max g(m) <= 2 eps; witnesses with g(m) >= 2 eps are not strict",
            {
                "closed_max": closed_max,
                "bound": 2 * e,
                "strict_witness_cap": strict_max,
                "witness_bound": TWO - 2 * e,
                "pairs": len(core_pairs),
            },
            passed,
        )

    # (c) molecule distances: LP norm equals the closed form, value one
    bad = []
    for p, q in core_pairs:
        other = Molecule(space, p, q)
        via_lp = free_dist(target, other)
        via_formula = molecule_distance_formula(target, other)
        if not (via_lp == via_formula == 1):
            bad.append(((p, q), via_lp, via_formula))
    report.add(
        "core molecule distances",
        "free_dist(m_{u(n+1)v(n+1)}, m_pq) = formula value = 1",
        {"pairs": len(core_pairs), "mismatches": [repr(b) for b in bad[:5]]},
        not bad,
    )
    return report


# ---------------------------------------------------------------------------
# hat-function family on separated pairs


def verify_delta_existence(k: int = 16) -> CertificateReport:
    """Hat function and its swapped companions on k separated pairs: norm
    one, pairwise far companions, and window averages returning to f."""
    hs = build_hat_space(k)
    space, pairs, scale, tolerance = hs.space, hs.pairs, hs.scale, hs.tolerance
    report = CertificateReport(
        name="delta-existence-hat-family",
        parameters={"k": k, "scale": rat(scale), "tolerance": rat(tolerance)},
    )
    failures = pair_sequence_failures(space, scale, pairs, tolerance)
    report.add(
        "separated-pair inequalities (exhaustive)",
        "pair distances and ambient separations within tolerance",
        {"failures": [repr(x) for x in failures[:5]]},
        not failures,
    )
    extraction = extract_separated_pairs(space, tolerance)
    report.add(
        "independent greedy extraction finds a full family",
        f"extracted >= {k} pairs",
        {
            "extracted": len(extraction.pairs),
            "scale": extraction.scale,
        },
        len(extraction.pairs) >= k,
    )
    if failures:
        return report

    fam = delta_hat_family(space, pairs, scale, tolerance)
    f = fam.f
    report.add("hat function norm", "||f|| = 1", {"norm": f.norm}, f.norm == 1)
    for i in range(3, k + 1):
        g = fam.g[i]
        dist = (f - g).norm
        bound = 2 * rat(i - 2) / (i + 1)
        report.add(
            f"companion distance i={i}",
            "||f - g_i|| >= 2(i-2)/(i+1)",
            {"dist": dist, "bound": bound, "g_norm": g.norm},
            g.norm == 1 and dist >= bound,
            slack=dist - bound,
        )
    for i in (4, 8, 12):
        if i + 1 > k:
            continue
        inv = rat(f"1/{i}")
        acc = None
        for j in range(2, i + 2):
            acc = fam.g[j] if acc is None else acc + fam.g[j]
        dist = (f - inv * acc).norm
        bound = rat(f"4/{i}")
        report.add(
            f"window average i={i}",
            "||f - (1/i) sum g_j|| <= 4/i",
            {"dist": dist, "bound": bound},
            dist <= bound,
            slack=bound - dist,
        )
    bad = []
    for a in range(4, k):
        for b in range(a + 1, k):
            m1 = Molecule(space, *pairs[a])
            m2 = Molecule(space, *pairs[b])
            dist = free_dist(m1, m2)
            if dist < 1:
                bad.append((a + 1, b + 1, dist))
    report.add(
        "pairwise molecule separation",
        "free_dist(m_i, m_j) >= 1 for 5 <= i < j <= k",
        {"violations": [repr(x) for x in bad[:5]]},
        not bad,
    )
    return report


# ---------------------------------------------------------------------------
# recursive min/max construction on nested annuli


def verify_daugavet_recursion(
    stages: int = 10, samples: int = 5, seed: int = 0
) -> CertificateReport:
    """Stage invariants of the recursive construction, plus the separated-
    annuli certificate it rests on."""
    rs = build_recursion_space(stages)
    space, pairs, annuli = rs.space, rs.pairs, rs.annuli
    report = CertificateReport(
        name="daugavet-recursion",
        parameters={"stages": stages, "samples": samples, "seed": seed},
    )
    annuli_report = verify_separated_annuli(
        space, pairs, annuli, rs.eps, samples=samples, seed=seed
    )
    if not annuli_report.checks[0].passed:
        raise ValueError("separated-annuli hypothesis fails on this input")
    report.add(
        "separated-annuli certificate",
        "hypothesis and sampled conclusion both hold",
        {"checks": len(annuli_report.checks), "failing": len(annuli_report.failing())},
        annuli_report.overall,
    )

    f, log = daugavet_recursive_construction(space, pairs, annuli)
    for rec in log:
        report.add(
            f"stage {rec.stage} invariants",
            "Lip constant <= 1 - 1/2^s and molecule value >= 1 - 1/2^(s-1)",
            {
                "lip_constant": rec.lip_constant,
                "constant_bound": rec.constant_bound,
                "molecule_value": rec.molecule_value,
                "molecule_bound": rec.molecule_bound,
            },
            rec.ok,
            slack=min(
                rec.constant_bound - rec.lip_constant,
                rec.molecule_value - rec.molecule_bound,
            ),
        )
    report.add(
        "final extension has norm one",
        "||f|| = 1",
        {"norm": f.norm, "rooted": f.is_rooted},
        f.norm == 1 and f.is_rooted,
    )
    return report


# ---------------------------------------------------------------------------
# two-anchor space: nearest-point construction works, annuli criterion fails


def _nearest_site_hypothesis(space, f, sites, deltas) -> list:
    """Violations of: for each site u, delta, v != u there is p in the
    approximate segment with f(p) - f(u) > (1 - delta) d(u, p)."""
    bad = []
    site_set = set(sites)
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


def _annuli_family_feasible(space, k: int, factors) -> Optional[dict]:
    """Exhaustive search for k disjoint sets with admissible pairs.

    Returns a witness configuration or None. Exponential in the space size;
    intended for small instances.
    """
    pts = list(space.points())

    def admissible_pair(A, factor):
        out = [p for p in pts if p not in A]
        for u in sorted(A):
            for v in pts:
                if v != u and next(quadruple_failures(space, u, v, out, factor), None) is None:
                    return (u, v)
        return None

    def rec(i, used, chosen):
        if i == k:
            return dict(chosen)
        rest = [p for p in pts if p not in used]
        for bits in range(1, 1 << len(rest)):
            A = frozenset(rest[j] for j in range(len(rest)) if bits >> j & 1)
            pair = admissible_pair(A, factors[i])
            if pair is None:
                continue
            result = rec(i + 1, used | A, chosen + [(f"A{i + 1}", (sorted(A), pair))])
            if result is not None:
                return result
        return None

    return rec(0, frozenset(), [])


def verify_two_anchor_daugavet(
    N: int = 8,
    delta_grid=("1/2", "1/4", "1/8"),
    search_size: int = 6,
    search_stages: int = 3,
) -> CertificateReport:
    """Two anchors at distance 2 over a crowd of mutually-distant points:
    the nearest-point function passes the segment test at every site, while
    no family of three disjoint separated annuli exists at all."""
    if N < 5:
        raise ValueError("need N >= 5")
    deltas = _rats("delta_grid", delta_grid)
    space = build_two_anchor_space(N)
    sites = [space.base] + [p for p in space.points() if p >= 2 and p != space.base]
    f = nearest_point_function(space, sites)
    report = CertificateReport(
        name="two-anchor-daugavet",
        parameters={
            "N": N,
            "delta_grid": deltas,
            "search_size": search_size,
            "search_stages": search_stages,
        },
    )
    anchors = [0, 1]
    report.add(
        "nearest-point values",
        "f = 0 on sites, 1 on anchors, norm one",
        {"site_values": [f.values[s] for s in sites[:3]], "anchor_values": [f.values[a] for a in anchors], "norm": f.norm},
        all(f.values[s] == 0 for s in sites)
        and all(f.values[a] == 1 for a in anchors)
        and f.norm == 1,
    )
    bad = _nearest_site_hypothesis(space, f, sites, deltas)
    report.add(
        "segment witnesses at every site",
        "for all (site, delta, v): some p in seg has f(p)-f(u) > (1-delta)d(u,p)",
        {"violations": [repr(x) for x in bad[:5]], "sites": len(sites)},
        not bad,
    )
    f_with_anchor = nearest_point_function(space, sites + [0])
    bad_anchor = _nearest_site_hypothesis(space, f_with_anchor, [0], deltas)
    report.add(
        "anchors are not valid sites",
        "the segment test fails at an anchor site",
        {"violations_at_anchor": len(bad_anchor)},
        bool(bad_anchor),
    )

    small = build_two_anchor_space(min(N, search_size))
    factors = [ONE - rat(f"1/{2 ** (i + 2)}") for i in range(search_stages)]
    witness2 = _annuli_family_feasible(small, min(2, search_stages), factors)
    infeasible = _annuli_family_feasible(small, search_stages, factors)
    report.add(
        f"no {search_stages}-stage separated-annuli family exists",
        "exhaustive search over disjoint set families finds no admissible pairs",
        {
            "search_space_size": small.n,
            "factors": factors,
            "two_stage_witness": None if witness2 is None else {k: repr(v) for k, v in witness2.items()},
            "witness": None if infeasible is None else {k: repr(v) for k, v in infeasible.items()},
        },
        infeasible is None,
    )
    return report


# ---------------------------------------------------------------------------
# slice dichotomy diagnostic


def scan_theorem4_condition6(
    space: FiniteMetricSpace, f: LipFunction, eps_grid, radius
) -> CertificateReport:
    """Classify slice molecules per eps: smallest pair distance and farthest
    support point. A truncation diagnostic, not a decision procedure, so the
    entries are informational and always pass."""
    if f.norm != 1:
        raise ValueError("f must have norm exactly one")
    radius = rat(radius)
    eps_list = _rats("eps_grid", eps_grid)
    report = CertificateReport(
        name="slice-dichotomy-scan",
        parameters={"eps_grid": eps_list, "radius": radius},
    )
    base = space.base
    for e in eps_list:
        cut = ONE - e
        mols = [(u, v) for u, v in space.ordered_pairs() if f.molecule_value(u, v) > cut]
        if mols:
            min_pair = min(space.d[u][v] for u, v in mols)
            max_reach = max(max(space.d[base][u], space.d[base][v]) for u, v in mols)
        else:
            min_pair = None
            max_reach = None
        report.add(
            f"slice profile eps={e}",
            "informational: small-pair and escaping-support witnesses",
            {
                "molecules": len(mols),
                "min_pair_distance": min_pair,
                "max_support_radius": max_reach,
                "small_pair_witness": min_pair is not None and min_pair < e,
                "escaping_witness": max_reach is not None and max_reach >= radius,
            },
            True,
        )
    return report
