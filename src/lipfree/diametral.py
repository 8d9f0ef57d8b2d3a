"""Dual-slice radii and the separated-annuli criterion.

The radius of a weak*-slice is a supremum over a slice of the Lipschitz
ball; on a finite space it reduces to one linear program per ordered pair
of points, so every reported value is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from . import lp
from .free import FreeElement, Molecule, free_norm
from .functions import LipFunction, annulus_case_extension
from .metric import FiniteMetricSpace, check_annuli_hypothesis
from .reports import CertificateReport
from .sampling import random_free_element
from .scalars import ONE, Scalar, TWO, ZERO, rat


@dataclass(frozen=True)
class RadiusResult:
    value: Scalar
    witness: Optional[LipFunction]
    pair: Optional[tuple]


def wstar_delta_radius(
    space: FiniteMetricSpace,
    f: LipFunction,
    mu: FreeElement,
    alpha,
    require_membership: bool = True,
    pairs=None,
) -> RadiusResult:
    """Exact sup of ||f - g|| over the closed dual slice {g : mu(g) >= 1-alpha}.

    ||f - g|| is the maximum of (f - g)(m_pq) over ordered pairs, so the sup
    decomposes into one LP per pair: minimize g(m_pq) subject to the ball and
    the slice constraint. Given pairs, the sup of max (f - g)(m_pq) over
    just those pairs. mu must be w (delta_u - delta_v) with w != 0, a
    multiple of a molecule, its base weight restored; its slice row
    mu(g) >= 1 - alpha is then an arc (lp.side_arc), and each pair is an
    lp.solve_pair_program. Any other mu is a ValueError.
    """
    alpha = rat(alpha)
    if not (0 < alpha <= 2):
        raise ValueError("alpha must lie in (0, 2]")
    if f.norm != 1:
        raise ValueError("f must have norm exactly one")
    if require_membership and mu.pairing(f) <= ONE - alpha:
        raise ValueError("f does not lie in the slice")
    arc = lp.side_arc(space, lp.SideConstraint(weights=mu.weight_dict(), relation=">=", bound=ONE - alpha))
    best = None
    for p, q in space.ordered_pairs() if pairs is None else pairs:
        objective = {k: -w for k, w in lp.molecule_weights(space, p, q).items()}
        sol = lp.solve_pair_program(space, objective, arc)
        if sol.status != lp.OPTIMAL:
            break  # the slice misses the ball, whatever the objective
        value = f.molecule_value(p, q) + sol.value
        if best is None or value > best[0]:
            best = (value, sol.argument, (p, q))
    if best is None:
        raise ValueError("dual slice is empty")
    return RadiusResult(value=best[0], witness=best[1], pair=best[2])


def _support(F: FreeElement) -> set:
    """The support of F, with the base when F's weights do not sum to zero:
    the base then carries the opposite total weight."""
    support = set(F.support)
    if sum(w for _, w in F.weights) != 0:
        support.add(F.space.base)
    return support


def _sampled_battery(space: FiniteMetricSpace, annuli: Sequence, samples: int, rng) -> list:
    """samples norm-one elements, each with its norm result; element s has
    support avoiding annuli[s % len(annuli)].

    Each draw F is solved once: F / ||F|| has the witness of that solve and
    its plan scaled by 1/||F|| (FreeNormResult.scaled), so it is not solved
    again.
    """
    battery = []
    for s in range(samples):
        avoid = set(annuli[s % len(annuli)])
        allowed = [p for p in space.points() if p not in avoid]
        # the support can meet the avoided annulus only through the base:
        # redraw until the weights sum to zero, which takes two points
        redraw = space.base in avoid and len(set(allowed) - {space.base}) > 1
        while True:
            F = random_free_element(rng, space, support_size=3, norm_one=False, allowed=allowed)
            if not (redraw and _support(F) & avoid):
                break
        norm = free_norm(F)
        c = ONE / norm.value
        battery.append((F * c, norm.scaled(c)))
    return battery


def verify_separated_annuli(
    space: FiniteMetricSpace,
    pairs: Sequence,
    annuli: Sequence,
    eps: Sequence,
    battery: Optional[Sequence] = None,
    samples: int = 50,
    seed: int = 0,
) -> CertificateReport:
    """Hypothesis and conclusion of the disjoint-annuli criterion.

    Hypothesis: the annuli are pairwise disjoint, contain their pairs, and
    satisfy the quadruple inequality. Conclusion, on the battery of norm-one
    elements (sampled with support avoiding one annulus when not supplied):
    max_i ||F + m_{u_i v_i}|| >= 2 - 2 eps_i, certified both by the norm LP
    and by an explicitly constructed dual witness function.
    """
    pairs = [tuple(p) for p in pairs]
    eps_list = [rat(e) for e in eps]
    report = CertificateReport(
        name="separated-annuli",
        parameters={
            "pairs": pairs,
            "eps": eps_list,
            "samples": samples,
            "seed": seed,
            "tolerance": ZERO,  # the quadruple inequality is checked exactly
        },
    )
    ok, failures = check_annuli_hypothesis(space, pairs, annuli, eps_list)
    report.add(
        "hypothesis: disjoint annuli containing their pairs, quadruple inequality",
        "all quadruples satisfy d(u,x)+d(v,y) >= (1-eps)(d(u,v)+d(x,y))",
        {"failures": [repr(x) for x in failures[:10]], "failure_count": len(failures)},
        ok,
    )
    if not ok:
        return report

    if battery is None:
        sampled = _sampled_battery(space, annuli, samples, random.Random(seed))
    else:
        sampled = ((F, free_norm(F)) for F in battery)
    for idx, (F, norm_f) in enumerate(sampled):
        if norm_f.value != 1:
            report.add(
                f"battery[{idx}] norm one",
                "||F|| = 1",
                {"norm": norm_f.value},
                False,
            )
            continue
        support = _support(F)
        missed = [i for i, A in enumerate(annuli) if not (support & set(A))]
        if not missed:
            report.add(
                f"battery[{idx}] support misses some annulus",
                "exists i with supp(F) disjoint from A_i",
                {"support": sorted(support)},
                False,
            )
            continue
        i = missed[0]
        u, v = pairs[i]
        eps_i = eps_list[i]
        target = TWO - 2 * eps_i
        total = F + Molecule(space, u, v).element()
        norm_val = free_norm(total).value
        g = annulus_case_extension(norm_f.witness, annuli[i], u, v, eps_i)
        witness_val = total.pairing(g)
        report.add(
            f"battery[{idx}] conclusion via annulus {i + 1}",
            "||F + m_uv|| >= 2 - 2 eps and dual witness attains it",
            {
                "norm": norm_val,
                "witness_value": witness_val,
                "target": target,
                "witness_norm": g.norm,
            },
            norm_val >= target and witness_val >= target and g.norm <= 1,
            slack=norm_val - target,
        )
    return report
