"""Slice diagnostics: packings, separated chains, Δ-scores, dual-slice radii.

The interesting quantities are suprema over a slice of the unit ball; on a
finite space each one is reduced either to molecule enumeration or to one
linear program per ordered pair of points, so every reported value is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from . import lp
from .free import FreeElement, Molecule, all_molecules, free_dist, free_norm
from .functions import LipFunction, annulus_case_extension
from .metric import FiniteMetricSpace, check_annuli_hypothesis
from .reports import CertificateReport
from .sampling import random_free_element
from .scalars import ONE, Scalar, TWO, ZERO, rat


@dataclass(frozen=True)
class SliceSpec:
    """A slice of the free ball (functional: LipFunction) or of the Lipschitz
    ball (functional: FreeElement), at depth alpha."""

    side: str  # "free" or "lip"
    functional: object
    alpha: Scalar

    def __post_init__(self):
        if self.side not in ("free", "lip"):
            raise ValueError(f"unknown slice side: {self.side}")
        object.__setattr__(self, "alpha", rat(self.alpha))
        if not (0 < self.alpha <= 2):
            raise ValueError("alpha must lie in (0, 2]")
        if self.side == "free":
            norm = self.functional.norm
        else:
            norm = free_norm(self.functional).value
        if norm != 1:
            raise ValueError("slice functional must have norm exactly one")

    def value_at(self, element) -> Scalar:
        if self.side == "free":
            if isinstance(element, Molecule):
                return self.functional.molecule_value(element.u, element.v)
            return element.pairing(self.functional)
        return self.functional.pairing(element)

    def contains(self, element, closed: bool = False) -> bool:
        cut = ONE - self.alpha
        val = self.value_at(element)
        return val >= cut if closed else val > cut


@dataclass(frozen=True)
class PackingReport:
    items: tuple
    separation: Scalar
    distances: tuple  # row-major pairwise distance matrix of the kept items
    certified: bool


def greedy_packing(items: Sequence, dist, separation) -> PackingReport:
    """Greedy maximal subset with pairwise distances >= separation.

    The size is a lower bound for the packing number, hence for any covering
    argument; the claimed separation is re-verified on the kept items.
    """
    separation = rat(separation)
    if separation < 0:
        raise ValueError("separation must be non-negative")
    kept = []
    for it in items:
        if all(dist(it, other) >= separation for other in kept):
            kept.append(it)
    matrix = tuple(
        tuple(ZERO if i == j else dist(kept[i], kept[j]) for j in range(len(kept)))
        for i in range(len(kept))
    )
    certified = all(
        matrix[i][j] >= separation
        for i in range(len(kept))
        for j in range(len(kept))
        if i != j
    )
    return PackingReport(
        items=tuple(kept), separation=separation, distances=matrix, certified=certified
    )


@dataclass(frozen=True)
class SeparatedChain:
    center: FreeElement
    slice: SliceSpec
    elements: tuple  # FreeElements, center first
    functionals: tuple  # norming LipFunctions, aligned with elements
    separation: Scalar  # certified pairwise lower bound


def build_separated_chain(
    space: FiniteMetricSpace,
    center: FreeElement,
    slc: SliceSpec,
    alpha=None,
    max_len: int = 8,
    tolerance=0,
) -> SeparatedChain:
    """Greedy chain of slice molecules pairwise (2 - alpha)-separated.

    Each step maximizes the negated sum of the previous norming functionals
    over the slice molecules (the natural direction for being far from all
    previous elements) and accepts only after an exact distance re-check.
    """
    if slc.side != "free":
        raise ValueError("chains are built in the free ball")
    alpha = slc.alpha if alpha is None else rat(alpha)
    tolerance = rat(tolerance)
    if not slc.contains(center):
        raise ValueError("center does not lie in the slice")
    target = TWO - alpha - tolerance

    elements = [center]
    functionals = [free_norm(center).witness]
    candidates = [m for m in all_molecules(space) if slc.contains(m)]
    while len(elements) < max_len:
        best = None
        for m in candidates:
            score = sum((-f.molecule_value(m.u, m.v) for f in functionals), ZERO)
            key = (score, -m.u, -m.v)
            if best is None or key > best[0]:
                best = (key, m)
        if best is None:
            break
        mol = best[1]
        el = mol.element()
        if any(free_dist(el, prev) < target for prev in elements):
            break
        elements.append(el)
        functionals.append(free_norm(el).witness)
        candidates = [m for m in candidates if m.element() != el]

    # independent re-verification of the stated properties
    for el in elements:
        if not slc.contains(el):
            raise lp.SimplexError("chain element escaped the slice")
    achieved = None
    for i in range(len(elements)):
        if free_norm(elements[i]).value != 1:
            raise lp.SimplexError("chain element is not norm one")
        for j in range(i + 1, len(elements)):
            dij = free_dist(elements[i], elements[j])
            if achieved is None or dij < achieved:
                achieved = dij
    return SeparatedChain(
        center=center,
        slice=slc,
        elements=tuple(elements),
        functionals=tuple(functionals),
        separation=achieved if achieved is not None else TWO,
    )


@dataclass(frozen=True)
class DeltaScore:
    value: Scalar  # max distance from mu to a slice molecule
    witness: Optional[Molecule]
    min_pair_distance: Optional[Scalar]  # smallest d(u,v) among slice molecules


def delta_score_free(space: FiniteMetricSpace, mu: FreeElement, slc: SliceSpec) -> DeltaScore:
    """Molecule-restricted diametral radius of the slice at mu (a lower bound
    for the full radius; slices of the free ball always contain molecules)."""
    if slc.side != "free":
        raise ValueError("delta_score_free expects a free-ball slice")
    if not slc.contains(mu):
        raise ValueError("mu does not lie in the slice")
    best = ZERO
    witness = None
    min_sep = None
    for m in all_molecules(space):
        if not slc.contains(m):
            continue
        sep = m.separation
        if min_sep is None or sep < min_sep:
            min_sep = sep
        dist = free_dist(mu, m.element())
        if dist > best:
            best, witness = dist, m
    return DeltaScore(value=best, witness=witness, min_pair_distance=min_sep)


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
) -> RadiusResult:
    """Exact sup of ||f - g|| over the closed dual slice {g : mu(g) >= 1-alpha}.

    ||f - g|| is the maximum of (f - g)(m_pq) over ordered pairs, so the sup
    decomposes into one LP per pair: minimize g(m_pq) subject to the ball and
    the slice constraint.
    """
    alpha = rat(alpha)
    if not (0 < alpha <= 2):
        raise ValueError("alpha must lie in (0, 2]")
    if f.norm != 1:
        raise ValueError("f must have norm exactly one")
    if require_membership and mu.pairing(f) <= ONE - alpha:
        raise ValueError("f does not lie in the slice")
    slice_row = lp.SideConstraint(
        weights=mu.weight_dict(), relation=">=", bound=ONE - alpha
    )
    best = None
    for p in space.points():
        for q in space.points():
            if p == q:
                continue
            objective = {k: -w for k, w in lp.molecule_weights(space, p, q).items()}
            sol = lp.solve_lip_ball(
                lp.LipBallProgram(
                    space=space, objective=objective, side_constraints=(slice_row,)
                )
            )
            if sol.status != lp.OPTIMAL:
                continue  # slice constraint infeasible against this ball: skip
            value = f.molecule_value(p, q) + sol.value
            if best is None or value > best[0]:
                best = (value, sol.argument, (p, q))
    if best is None:
        raise ValueError("dual slice is empty")
    return RadiusResult(value=best[0], witness=best[1], pair=best[2])


def wstar_daugavet_profile(
    space: FiniteMetricSpace, f: LipFunction, family: Sequence
) -> list:
    """Radii of f against each (FreeElement, alpha) dual slice, membership not
    required: the Daugavet variant quantifies over every slice."""
    out = []
    for mu, alpha in family:
        out.append(
            wstar_delta_radius(space, f, mu, alpha, require_membership=False)
        )
    return out


def verify_separated_annuli(
    space: FiniteMetricSpace,
    pairs: Sequence,
    annuli: Sequence,
    eps,
    battery: Optional[Sequence] = None,
    samples: int = 50,
    seed: int = 0,
    tolerance=0,
) -> CertificateReport:
    """Hypothesis and conclusion of the disjoint-annuli criterion.

    Hypothesis: the annuli are pairwise disjoint, contain their pairs, and
    satisfy the quadruple inequality. Conclusion, on the battery of norm-one
    elements (sampled with support avoiding one annulus when not supplied):
    max_i ||F + m_{u_i v_i}|| >= 2 - 2 eps_i, certified both by the norm LP
    and by an explicitly constructed dual witness function.
    """
    pairs = [tuple(p) for p in pairs]
    eps_list = [rat(e) for e in (eps if isinstance(eps, (list, tuple)) else [eps] * len(pairs))]
    report = CertificateReport(
        name="separated-annuli",
        parameters={
            "pairs": pairs,
            "eps": eps_list,
            "samples": samples,
            "seed": seed,
            "tolerance": rat(tolerance),
        },
    )
    ok, failures = check_annuli_hypothesis(space, pairs, annuli, eps_list, tolerance)
    report.add(
        "hypothesis: disjoint annuli containing their pairs, quadruple inequality",
        "all quadruples satisfy d(u,x)+d(v,y) >= (1-eps)(d(u,v)+d(x,y))",
        {"failures": [repr(x) for x in failures[:10]], "failure_count": len(failures)},
        ok,
    )
    if not ok:
        return report

    rng = random.Random(seed)
    if battery is None:
        battery = []
        for s in range(samples):
            avoid = annuli[s % len(annuli)]
            allowed = [p for p in space.points() if p not in avoid]
            battery.append(random_free_element(rng, space, support_size=3, allowed=allowed))

    for idx, F in enumerate(battery):
        norm_f = free_norm(F)
        if norm_f.value != 1:
            report.add(
                f"battery[{idx}] norm one",
                "||F|| = 1",
                {"norm": norm_f.value},
                False,
            )
            continue
        support = set(F.support)
        if sum(w for _, w in F.weights) != 0:
            support.add(space.base)  # the base carries the opposite total weight
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
