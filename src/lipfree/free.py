"""Elements of the free space: molecules, norms, slice membership.

The norm of an element is the optimum of its pairing over the Lipschitz
unit ball, solved once. The norming function comes from that solve and the
transport plan from its row multipliers; the solve is accepted only after
the exact primal–dual check in lp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from . import lp
from .functions import LipFunction, mcshane_extend
from .metric import FiniteMetricSpace, ball_rows
from .scalars import ONE, Scalar, ZERO, json_field, parse_rat, rat, rat_str


@dataclass(frozen=True)
class FreeElement:
    """Finite linear combination of point evaluations, base normalized away.

    weights is a sorted tuple of (point, coefficient) with no base entry and
    no zero coefficients, so equal elements have equal representations.
    """

    space: FiniteMetricSpace
    weights: tuple

    @classmethod
    def make(cls, space: FiniteMetricSpace, weights) -> "FreeElement":
        acc = {}
        for p, w in dict(weights).items():
            if not (0 <= p < space.n):
                raise ValueError(f"point index {p} outside space")
            if p == space.base:
                continue
            w = rat(w)
            if w != 0:
                acc[p] = acc.get(p, ZERO) + w
        return cls._exact(space, acc)

    @classmethod
    def _exact(cls, space: FiniteMetricSpace, weights: dict) -> "FreeElement":
        """The element of weights, exact values on points of space other than
        the base: only drops the zeros and sorts, with no conversion or check
        (make is for outside input)."""
        return cls(space=space, weights=tuple(sorted((p, w) for p, w in weights.items() if w)))

    @classmethod
    def zero(cls, space: FiniteMetricSpace) -> "FreeElement":
        return cls(space=space, weights=())

    @classmethod
    def delta(cls, space: FiniteMetricSpace, p: int) -> "FreeElement":
        return cls.make(space, {p: ONE})

    def weight_dict(self) -> dict:
        return dict(self.weights)

    @property
    def support(self) -> tuple:
        return tuple(p for p, _ in self.weights)

    def is_zero(self) -> bool:
        return not self.weights

    def pairing(self, f: LipFunction) -> Scalar:
        """<self, f>; tolerates non-rooted f by pairing against f - f(base)."""
        off = f.values[f.space.base]
        return sum((w * (f.values[p] - off) for p, w in self.weights), ZERO)

    def __add__(self, other: "FreeElement") -> "FreeElement":
        self._same_space(other)
        acc = self.weight_dict()
        for p, w in other.weights:
            acc[p] = acc.get(p, ZERO) + w
        return FreeElement._exact(self.space, acc)

    def __sub__(self, other: "FreeElement") -> "FreeElement":
        return self + (-ONE) * other

    def __mul__(self, scalar) -> "FreeElement":
        s = rat(scalar)
        return FreeElement._exact(self.space, {p: s * w for p, w in self.weights})

    __rmul__ = __mul__

    def __neg__(self) -> "FreeElement":
        return (-ONE) * self

    def _same_space(self, other):
        if other.space is not self.space and other.space != self.space:
            raise ValueError("elements live on different spaces")

    def to_json(self) -> dict:
        labels = self.space.labels
        return {"weights": {labels[p]: rat_str(w) for p, w in self.weights}}

    @classmethod
    def from_json(cls, obj: dict, space: FiniteMetricSpace) -> "FreeElement":
        weights = json_field(obj, "weights", "element")
        if not isinstance(weights, dict):
            raise ValueError("element field 'weights' must be an object: label -> weight")
        # space.index checks each label, and distinct labels are distinct points
        parsed = {space.index(lbl): parse_rat(w, "weights") for lbl, w in weights.items()}
        parsed.pop(space.base, None)
        return cls._exact(space, parsed)


@dataclass(frozen=True)
class Molecule:
    """(delta_u - delta_v) / d(u, v); always of norm exactly one."""

    space: FiniteMetricSpace
    u: int
    v: int

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError("molecule endpoints must differ")

    def element(self) -> FreeElement:
        return FreeElement.make(self.space, lp.molecule_weights(self.space, self.u, self.v))

    def weight_dict(self) -> dict:
        return lp.molecule_weights(self.space, self.u, self.v)


def all_molecules(space: FiniteMetricSpace):
    return tuple(Molecule(space, u, v) for u, v in space.ordered_pairs())


@dataclass(frozen=True, eq=False)
class FreeNormResult:
    """A norm with its plan and witness, each built on first read; results
    compare by value and plan."""

    value: Scalar
    make_plan: Callable[[], lp.TransportPlan] = field(repr=False)
    lift: Callable[[], LipFunction] = field(repr=False)

    def __eq__(self, other):
        if not isinstance(other, FreeNormResult):
            return NotImplemented
        return (self.value, self.plan) == (other.value, other.plan)

    def __hash__(self):
        return hash((self.value, self.plan))

    @cached_property
    def plan(self) -> lp.TransportPlan:
        """Optimal transport plan of the norm, built on first read."""
        return self.make_plan()

    @cached_property
    def witness(self) -> LipFunction:
        """Norming function in the Lipschitz unit ball, built on first read."""
        return self.lift()

    def scaled(self, c: Scalar) -> "FreeNormResult":
        """The result of free_norm(c * mu) for this result's mu and c > 0:
        the same witness, the value and the flows times c. Scaling the
        objective by c > 0 leaves every pivot of the solve as it was: the
        checked witness stays optimal and the checked multipliers scale by c."""

        def plan():
            flows = tuple((p, q, c * mass) for p, q, mass in self.plan.flows)
            return lp.TransportPlan(flows, c * self.plan.cost)

        return FreeNormResult(c * self.value, plan, lambda: self.witness)


def free_norm(mu: FreeElement) -> FreeNormResult:
    """Exact norm with both certificates, a norming function and a plan.

    The program runs on the ball rows of the support and the base (the norm
    is unchanged there), read from the space's distances. The plan's arcs
    are points of the space, and the witness is lifted from those points by
    a 1-Lipschitz extension on first read of .witness, so both certificates
    are valid on the full space.
    """
    space = mu.space
    if mu.is_zero():
        zero_fn = LipFunction(space, (ZERO,) * space.n)
        return FreeNormResult(ZERO, lambda: lp.TransportPlan((), ZERO), lambda: zero_fn)
    pts = sorted(set(mu.support) | {space.base})
    whole = len(pts) == space.n
    ball = space.ball_rows if whole else ball_rows(space, pts)
    sol = lp.solve_lip_ball(lp.LipBallProgram(space=space, objective=mu), ball)
    witness = sol.argument

    def lift():
        if whole:
            return witness
        return mcshane_extend(space, pts, {p: witness.values[p] for p in pts}, ONE, "lower")

    return FreeNormResult(sol.value, lambda: lp.ball_plan(ball, sol), lift)


def free_dist(mu: FreeElement, nu) -> Scalar:
    if isinstance(nu, Molecule):
        nu = nu.element()
    if isinstance(mu, Molecule):
        mu = mu.element()
    mu._same_space(nu)
    return free_norm(mu - nu).value


def molecule_distance_formula(m1: Molecule, m2: Molecule) -> Scalar:
    """(d(u,p) + d(q,v) + |d(u,v) - d(p,q)|) / max{d(u,v), d(p,q)}.

    A closed form that matches free_dist on the configurations it is used
    for here; no general equality is asserted.
    """
    if m1.space != m2.space:
        raise ValueError("molecules live on different spaces")
    d = m1.space.d
    u, v, p, q = m1.u, m1.v, m2.u, m2.v
    return (d[u][p] + d[q][v] + abs(d[u][v] - d[p][q])) / max(d[u][v], d[p][q])


def molecules_in_slice(space: FiniteMetricSpace, f: LipFunction, alpha) -> tuple:
    """Molecules m with f(m) > 1 - alpha; f must have norm exactly one."""
    if f.norm != 1:
        raise ValueError("slice functional must have norm exactly one")
    alpha = rat(alpha)
    if not (0 < alpha <= 2):
        raise ValueError("alpha must lie in (0, 2]")
    cut = ONE - alpha
    return tuple(
        m for m in all_molecules(space) if f.molecule_value(m.u, m.v) > cut
    )
