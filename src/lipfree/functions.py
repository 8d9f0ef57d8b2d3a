"""Lipschitz functions and the explicit surgeries used by the constructions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .metric import (
    FiniteMetricSpace,
    check_annuli_hypothesis,
    lip_constant,
    pair_sequence_failures,
    quadruple_failures,
)
from .scalars import ONE, Scalar, ZERO, json_field, over_common_denominator, parse_rat, rat, rat_str


@dataclass(frozen=True)
class LipFunction:
    """Real values on the points of a finite metric space.

    A function is *rooted* when it vanishes at the base point; raw McShane
    extensions may carry a base offset, use :meth:`rooted` to shift. The
    Lipschitz norm is cached on first access.
    """

    space: FiniteMetricSpace
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.space.n:
            raise ValueError("value count does not match space size")

    @cached_property
    def norm(self) -> Scalar:
        return lip_constant(self.space, self.values, self.space.points())[0]

    def __call__(self, p: int) -> Scalar:
        return self.values[p]

    @property
    def is_rooted(self) -> bool:
        return self.values[self.space.base] == 0

    def rooted(self) -> "LipFunction":
        off = self.values[self.space.base]
        if off == 0:
            return self
        return LipFunction(self.space, tuple(v - off for v in self.values))

    def molecule_value(self, u: int, v: int) -> Scalar:
        return (self.values[u] - self.values[v]) / self.space.d[u][v]

    def __add__(self, other):
        self._same_space(other)
        return LipFunction(self.space, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other):
        self._same_space(other)
        return LipFunction(self.space, tuple(a - b for a, b in zip(self.values, other.values)))

    def __mul__(self, scalar):
        s = rat(scalar)
        return LipFunction(self.space, tuple(s * v for v in self.values))

    __rmul__ = __mul__

    def __neg__(self):
        return LipFunction(self.space, tuple(-v for v in self.values))

    def _same_space(self, other):
        if other.space is not self.space and other.space != self.space:
            raise ValueError("functions live on different spaces")

    def to_json(self, inline_space: bool = True) -> dict:
        obj = {"values": [rat_str(v) for v in self.values]}
        if inline_space:
            obj["space"] = self.space.to_json()
        return obj

    @classmethod
    def from_json(cls, obj: dict, space: Optional[FiniteMetricSpace] = None):
        if space is None:
            space = FiniteMetricSpace.from_json(json_field(obj, "space", "function"))
        values = json_field(obj, "values", "function")
        if not isinstance(values, list):
            raise ValueError("function field 'values' must be a list")
        return cls(space=space, values=tuple(parse_rat(v, "values") for v in values))


def mcshane_extend(
    space: FiniteMetricSpace,
    subset: Iterable,
    values: dict,
    L,
    direction: str = "lower",
    shift_base: bool = False,
) -> LipFunction:
    """McShane-Whitney extension of an L-Lipschitz partial assignment.

    lower: pointwise-minimal extension  max_s(values[s] - L d(s, p));
    upper: pointwise-maximal extension  min_s(values[s] + L d(s, p)).
    The partial assignment is checked to be L-Lipschitz first. This is the
    package's only McShane formula: every other extension calls its kernel.
    """
    subset = sorted(set(subset))
    if not subset:
        raise ValueError("subset must be non-empty")
    L = rat(L)
    if L < 0:
        raise ValueError("L must be non-negative")
    vals = {s: rat(values[s]) for s in subset}
    lipc, pair = lip_constant(space, vals, subset)
    if lipc > L:
        raise ValueError(
            f"values are not {rat_str(L)}-Lipschitz on the subset: witness pair {pair}"
        )
    if direction not in ("lower", "upper"):
        raise ValueError(f"unknown direction: {direction}")
    f = LipFunction(space, tuple(_mcshane(space, vals, L, direction, space.points())))
    return f.rooted() if shift_base else f


def _mcshane(space: FiniteMetricSpace, values: dict, L, direction: str, points) -> list:
    """The lower or upper McShane value of values (site -> value) at each point,
    on ints: the values over their common denominator, d from the int_view."""
    D, scale = space.int_view
    nums, den = over_common_denominator(values.values())
    sgn = 1 if direction == "lower" else -1
    k, m = sgn * L.denominator * scale, L.numerator * den
    sites = [(k * a, D[s]) for a, s in zip(nums, values)]
    out_den = den * L.denominator * scale
    return [Fraction(sgn * max(a - m * Ds[p] for a, Ds in sites), out_den) for p in points]


def _example2_layout(space: FiniteMetricSpace):
    """kind/index per point of an x/y/u/v-labelled space, or None."""
    layout = []
    for lbl in space.labels:
        kind, idx = lbl[0], lbl[1:]
        if kind not in "xyuv" or not idx.isdigit():
            return None
        layout.append((kind, int(idx)))
    return layout


def example2_function(space: FiniteMetricSpace) -> LipFunction:
    """The norm-one function separating x/u from y/v (rooted at x_1)."""
    layout = _example2_layout(space)
    if layout is None:
        raise ValueError("space does not have the x/y/u/v layout")
    vals = tuple(ZERO if kind in "xu" else rat(-2) for kind, _ in layout)
    return LipFunction(space, vals)


def tail_plateau(g: LipFunction, core_size: int) -> LipFunction:
    """Extend g from the index-<=core_size core by constant tail plateaus."""
    space = g.space
    layout = _example2_layout(space)
    if layout is None:
        raise ValueError("space does not have the x/y/u/v layout")
    core = [p for p, (_, i) in enumerate(layout) if i <= core_size]
    if not core or all(i <= core_size for _, i in layout):
        raise ValueError("core must be a proper non-empty index prefix")
    if lip_constant(space, g.values, core)[0] > 1:
        raise ValueError("g exceeds Lipschitz constant 1 on the core")
    core_vals = [g.values[p] for p in core]
    a = (max(core_vals) + min(core_vals)) / 2
    out = []
    for p, (kind, i) in enumerate(layout):
        if i <= core_size:
            out.append(g.values[p])
        elif kind == "x":
            out.append(a - 1)
        elif kind == "y":
            out.append(a + 1)
        else:
            out.append(a)
    return LipFunction(space, tuple(out))


def nearest_point_function(space: FiniteMetricSpace, sites: Sequence) -> LipFunction:
    """f(p) = min over sites of d(site, p); vanishes on the sites."""
    sites = list(sites)
    if not sites:
        raise ValueError("sites must be non-empty")
    if sites[0] != space.base:
        raise ValueError("first site must be the base point")
    zeros = dict.fromkeys(sites, ZERO)
    return LipFunction(space, tuple(_mcshane(space, zeros, ONE, "upper", space.points())))


@dataclass(frozen=True)
class StageRecord:
    stage: int
    lip_constant: Scalar
    constant_bound: Scalar  # 1 - 1/2^stage
    molecule_value: Scalar
    molecule_bound: Scalar  # 1 - 1/2^(stage-1)

    @property
    def ok(self) -> bool:
        return (
            self.lip_constant <= self.constant_bound
            and self.molecule_value >= self.molecule_bound
        )


def daugavet_recursive_construction(
    space: FiniteMetricSpace,
    pairs: Sequence,
    annuli: Sequence,
):
    """Recursive min/max assignment along separated pairs, then extension.

    Stage n keeps the partial Lipschitz constant at most 1 - 1/2^n while
    pushing the n-th molecule value to at least 1 - 1/2^(n-1). The final
    function is the lower McShane extension with constant 1, so its norm is
    exactly one whenever the space has points beyond the pairs.
    """
    pairs = [tuple(p) for p in pairs]
    if pairs[0][0] != space.base:
        raise ValueError("u_1 must be the base point")
    eps_list = [rat(1) / (2 ** (i + 1)) for i in range(1, len(pairs) + 1)]
    ok, failures = check_annuli_hypothesis(space, pairs, annuli, eps_list)
    if not ok:
        raise ValueError(f"separated-annuli hypothesis fails: {failures[0]}")
    return _recursive_stages(space, pairs)


def _recursive_stages(space: FiniteMetricSpace, pairs: Sequence):
    """The stages and the final extension of daugavet_recursive_construction,
    for pairs (tuples, u_1 the base) whose annuli hypothesis the caller has
    checked at eps_i = 1/2^(i+1)."""
    f = {pairs[0][0]: ZERO, pairs[0][1]: ZERO}
    log = []
    half = rat("1/2")
    for n, (u_n, v_n) in enumerate(pairs, start=1):
        if n > 1:
            c = ONE - half**n
            f[u_n] = _mcshane(space, f, c, "upper", [u_n])[0]
            f[v_n] = _mcshane(space, f, c, "lower", [v_n])[0]
        log.append(
            StageRecord(
                stage=n,
                lip_constant=lip_constant(space, f, sorted(f))[0],
                constant_bound=ONE - half**n,
                molecule_value=(f[u_n] - f[v_n]) / space.d[u_n][v_n],
                molecule_bound=ONE - half ** (n - 1),
            )
        )
    final = mcshane_extend(space, f.keys(), f, ONE, direction="lower", shift_base=True)
    return final, tuple(log)


@dataclass(frozen=True)
class HatFamily:
    f: LipFunction
    g: dict  # index i (>= 2) -> sign-swapped companion
    scale: Scalar
    pairs: tuple


def delta_hat_family(space: FiniteMetricSpace, pairs: Sequence, a, tolerance=0) -> HatFamily:
    """Hat function f with value a(i-2)/(2i) at u_i and its swapped companions."""
    a = rat(a)
    pairs = tuple(tuple(p) for p in pairs)
    failures = pair_sequence_failures(space, a, pairs, tolerance)
    if failures:
        raise ValueError(f"separated-pair inequalities fail: {failures[0]}")

    def hat_values(swap_at: Optional[int]):
        vals = [ZERO] * space.n
        for idx, (u, v) in enumerate(pairs):
            i = idx + 1
            if i == 1:
                continue
            height = a * (i - 2) / (2 * i)
            if i == swap_at:
                vals[u], vals[v] = -height, height
            else:
                vals[u], vals[v] = height, -height
        return LipFunction(space, tuple(vals))

    f = hat_values(None)
    g = {i: hat_values(i) for i in range(2, len(pairs) + 1)}
    return HatFamily(f=f, g=g, scale=a, pairs=pairs)


def annulus_case_extension(f: LipFunction, A, u: int, v: int, eps) -> LipFunction:
    """Rescale f off A and rebuild it inside so the (u,v) molecule is nearly normed.

    g(u) is g(v) + (1-eps) d(u,v) when v is outside A (case 1), else the upper
    extension of g off A (case 2); both extend lower into A. Both yield
    ||g|| <= 1 and g(m_uv) >= 1 - eps, verified before returning.
    """
    space = f.space
    eps = rat(eps)
    A = set(A)
    if u not in A:
        raise ValueError("u must belong to A")
    outside = [p for p in space.points() if p not in A]
    if not outside:
        raise ValueError("A must not cover the whole space")
    one_m_eps = ONE - eps
    failure = next(quadruple_failures(space, u, v, outside, one_m_eps), None)
    if failure is not None:
        raise ValueError(f"annulus hypothesis fails at quadruple {(u, v, *failure[:2])}")

    g = {p: one_m_eps * f.values[p] for p in outside}
    if v not in A:
        g[u] = g[v] + one_m_eps * space.d[u][v]
    else:
        g[u] = _mcshane(space, g, ONE, "upper", [u])[0]
    out = mcshane_extend(space, g, g, ONE, direction="lower").rooted()
    if out.norm > 1:
        raise ValueError("extension left the Lipschitz unit ball")
    if out.molecule_value(u, v) < one_m_eps:
        raise ValueError("extension failed to norm the target molecule")
    return out
