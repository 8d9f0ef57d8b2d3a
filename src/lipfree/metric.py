"""Finite pointed metric spaces: validation, segments, builders, extraction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, permutations
from operator import lshift
from typing import NamedTuple, Optional, Sequence

from .scalars import ONE, Scalar, ZERO, json_field, over_common_denominator, parse_rat, rat, rat_str


class BallRows(NamedTuple):
    """The rows of the Lipschitz unit ball f(base) = 0, ||f|| <= 1 on a
    sorted point list holding the base (see :func:`ball_rows`).

    The variables are the listed non-base points in order. Rows 2k and 2k + 1
    are f(p) - f(q) <= d(p, q) and f(q) - f(p) <= d(p, q) for the k-th pair
    p < q of the list. Each row is stored once, as its coefficients
    ((variable, +-1), ...) sorted by variable and its bound d(p, q): the
    simplex reads the coefficients as the row's dual column and the
    certificate checker reads the rows of the nonzero multipliers. The
    simplex prices rows 2k and 2k + 1 together through pairs[k].
    """

    rows: tuple  # (((variable, +-1), ...), d(p, q)) per row
    var: tuple  # var[p] is the variable of point p, None for the base and points off the list
    arcs: tuple  # arcs[r] = (p, q): row r bounds f(p) - f(q)
    pairs: tuple  # pairs[k] = (a, b): the variables of the k-th pair, the base as len(points) - 1
    points: Sequence  # the sorted point list, of space's points
    space: FiniteMetricSpace


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite pointed metric space: labels, base point index, distance matrix.

    The matrix is stored exactly (rationals). Construction checks only the
    structural shape and that labels are distinct; use :func:`validate` for
    the metric axioms.

    Two integer forms of the matrix are built on first use and kept:
    :attr:`int_view` is (D, scale) with d[i][j] = D[i][j] / scale over one
    common denominator, which the inequality kernels compare cross-multiplied
    as Python ints, and :attr:`ball_rows` holds the rows of the Lipschitz
    unit ball on every point, which every full ball program shares.
    """

    labels: tuple
    base: int
    d: tuple

    def __post_init__(self):
        n = len(self.labels)
        if n < 1:
            raise ValueError("space needs at least one point")
        if len(self.d) != n or any(len(row) != n for row in self.d):
            raise ValueError("distance matrix shape does not match label count")
        if not (0 <= self.base < n):
            raise ValueError("base index out of range")
        try:
            distinct = len(set(self.labels)) == n
        except TypeError:
            raise ValueError("point labels must be hashable") from None
        if not distinct:
            dup = next(lbl for i, lbl in enumerate(self.labels) if lbl in self.labels[:i])
            raise ValueError(f"duplicate point label: {dup!r}")

    @property
    def n(self) -> int:
        return len(self.labels)

    def dist(self, i: int, j: int) -> Scalar:
        return self.d[i][j]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown point label: {label!r}") from None

    def points(self) -> range:
        return range(self.n)

    def pairs(self):
        return combinations(range(self.n), 2)

    def ordered_pairs(self):
        """Every ordered pair (p, q) of distinct points, p-major."""
        return permutations(range(self.n), 2)

    @cached_property
    def int_view(self) -> tuple:
        """(D, scale): D[i][j] = d[i][j] * scale as ints, scale the least
        common denominator of the matrix. :meth:`from_json` and
        :meth:`from_ints` set it at build."""
        n = self.n
        nums, scale = over_common_denominator(x for row in self.d for x in row)
        return tuple(tuple(nums[i : i + n]) for i in range(0, n * n, n)), scale

    @cached_property
    def ball_rows(self) -> BallRows:
        """The unit-ball rows on every point, which every full ball program
        of the space shares, so callers only read them."""
        return ball_rows(self, range(self.n))

    def ball(self, center: int, radius: Scalar) -> frozenset:
        """Closed ball around a point."""
        return frozenset(p for p in self.points() if self.d[center][p] <= radius)

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "base": self.base,
            "d": [[rat_str(x) for x in row] for row in self.d],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteMetricSpace":
        """The space of a JSON object. A matrix of strings is parsed one
        distinct string at a time, in first-seen order (so the first bad entry
        in row-major order is the one named), and its int_view is set from
        the distinct values; any other entry sends the whole matrix through
        parse_rat entry by entry."""
        if not isinstance(obj, dict):
            raise ValueError("a space must be an object with 'labels', 'base' and 'd'")
        labels, base, d = (json_field(obj, name, "space") for name in ("labels", "base", "d"))
        if not isinstance(labels, list):
            raise ValueError("space field 'labels' must be a list")
        if type(base) is not int:
            raise ValueError("space field 'base' must be an integer point index")
        if not isinstance(d, list) or not all(isinstance(row, list) for row in d):
            raise ValueError("space field 'd' must be a list of rows, each a list")
        labels = tuple(labels)
        if set(map(type, chain.from_iterable(d))) - {str}:
            return cls(labels=labels, base=base, d=tuple(tuple(parse_rat(x, "d") for x in row) for row in d))
        parsed = {x: parse_rat(x, "d") for x in dict.fromkeys(chain.from_iterable(d))}
        space = cls(labels=labels, base=base, d=tuple(tuple(map(parsed.__getitem__, row)) for row in d))
        nums, scale = over_common_denominator(parsed.values())
        ints = dict(zip(parsed, nums)).__getitem__
        space.__dict__["int_view"] = tuple(tuple(map(ints, row)) for row in d), scale
        return space

    @classmethod
    def from_ints(cls, D, scale: int, labels, base: int = 0) -> "FiniteMetricSpace":
        """The space with d[i][j] = D[i][j] / scale (D a square matrix of ints,
        scale > 0) and its int_view set at build: D and scale are first
        divided by their gcd, so the scale is the least, as int_view would
        compute it. The Fraction of each distinct value is made once."""
        values = set(chain.from_iterable(D))
        g = math.gcd(scale, *values)
        if g > 1:
            D = [[x // g for x in row] for row in D]
            values, scale = {x // g for x in values}, scale // g
        frac = {x: Fraction(x, scale) for x in values}
        space = cls(labels=tuple(labels), base=base, d=tuple(tuple(map(frac.__getitem__, row)) for row in D))
        space.__dict__["int_view"] = tuple(map(tuple, D)), scale
        return space

    @classmethod
    def from_matrix(cls, d, labels=None, base: int = 0) -> "FiniteMetricSpace":
        n = len(d)
        if labels is None:
            labels = tuple(f"p{i}" for i in range(n))
        return cls(
            labels=tuple(labels),
            base=base,
            d=tuple(tuple(rat(x) for x in row) for row in d),
        )


def ball_rows(space: FiniteMetricSpace, points) -> BallRows:
    """The :class:`BallRows` of the sorted point list, the base among them:
    the rows of the space on those points alone, in its order, with the
    parent's indices in var and arcs. F(N) sits isometrically in F(M) for a
    point set N holding the base, so an objective on N has the same optimum."""
    base, d = space.base, space.d
    var = [None] * space.n
    unit = []  # per listed point: its pairs entry and the coefficients +1 and -1 of its variable
    for p in points:
        if p == base:
            unit.append((len(points) - 1, (), ()))
        else:
            v = var[p] = len(unit) - (p > base)
            unit.append((v, ((v, 1),), ((v, -1),)))
    rows, arcs, pairs = [], [], []
    for i, p in enumerate(points):
        dp, (a, up, down) = d[p], unit[i]
        # p < q, so a variable of p comes before one of q: the coefficients come sorted
        for q, (b, q_up, q_down) in zip(points[i + 1 :], unit[i + 1 :]):
            rows += ((up + q_down, dp[q]), (down + q_up, dp[q]))
            arcs += ((p, q), (q, p))
            pairs.append((a, b))
    return BallRows(tuple(rows), tuple(var), tuple(arcs), tuple(pairs), points, space)


@dataclass(frozen=True)
class Violation:
    kind: str  # diagonal | symmetry | positivity | triangle
    indices: tuple
    slack: Scalar


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"kind": v.kind, "indices": list(v.indices), "slack": rat_str(v.slack)}
                for v in self.violations
            ],
        }


def metric_violations(space: FiniteMetricSpace):
    """Lazily yield each diagonal, then symmetry and positivity (per pair),
    then triangle violation (i, j, k): d(i, k) > d(i, j) + d(j, k), with its
    exact slack. The comparisons run on the ints of the space's int_view.

    Rows i, j are scanned only if the packed screen flags (i, j). Row i is
    packed as P[i] = sum_k D[i][k] 2^(w k); with ones and guard the sums of
    2^(w k) and 2^(w k + w - 1), P[j] - P[i] + D[i][j] ones + guard is
    sum_k (D[j][k] - D[i][k] + D[i][j] + 2^(w - 1)) 2^(w k). The width w,
    from the least and greatest entries lo and hi, puts every coefficient in
    [1, 2^w), so they are the digits of that int in base 2^w, and the guard
    bit of digit k is clear exactly when d(i, k) > d(i, j) + d(j, k): the
    pair is flagged iff some guard bit is.
    """
    D, scale = space.int_view
    for i, Di in enumerate(D):
        if Di[i]:
            yield Violation("diagonal", (i,), Fraction(Di[i], scale))
    lo, hi = min(map(min, D)), max(map(max, D))
    w = (hi - lo + max(hi, -lo)).bit_length() + 2
    shifts = range(0, w * space.n, w)
    ones = sum(1 << s for s in shifts)
    guard = ones << (w - 1)
    packed = [sum(map(lshift, Di, shifts)) for Di in D]
    suspects = []
    for i, j in space.pairs():
        Di, Dj = D[i], D[j]
        if Di[j] != Dj[i]:
            yield Violation("symmetry", (i, j), Fraction(Di[j] - Dj[i], scale))
        if Di[j] <= 0:
            yield Violation("positivity", (i, j), Fraction(-Di[j], scale))
        gap = packed[j] - packed[i]
        if (gap + Di[j] * ones + guard) & guard != guard:
            suspects.append((i, j))
        if (Dj[i] * ones + guard - gap) & guard != guard:
            suspects.append((j, i))
    for i, j in sorted(suspects):
        dij = D[i][j]
        for k, (dik, djk) in enumerate(zip(D[i], D[j])):
            slack = dik - dij - djk
            if slack > 0 and k != i and k != j:
                yield Violation("triangle", (i, j, k), Fraction(slack, scale))


def validate(space: FiniteMetricSpace) -> ValidationReport:
    """Report every metric_violations entry of the space."""
    bad = tuple(metric_violations(space))
    return ValidationReport(ok=not bad, violations=bad)


def seg(space: FiniteMetricSpace, u: int, v: int, delta: Scalar) -> frozenset:
    """Points p with d(u,p) + d(v,p) < d(u,v) + delta (delta-approximate segment),
    compared cross-multiplied on the ints of the space's int_view."""
    if u == v:
        raise ValueError("seg endpoints must differ")
    delta = rat(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    D, scale = space.int_view
    Du, Dv, dden = D[u], D[v], delta.denominator
    cut = Du[v] * dden + delta.numerator * scale
    return frozenset(p for p in space.points() if (Du[p] + Dv[p]) * dden < cut)


def lip_constant(space: FiniteMetricSpace, values, points, touching=None) -> tuple:
    """Largest |values[p] - values[q]| / d(p, q) over pairs of the given points,
    with the first pair attaining it (0 and None below two points). Given a
    set touching, only the pairs with an endpoint in it are scanned.

    The values are put over one common denominator den, and each pair's
    ratio |dV| / D[p][q] is compared cross-multiplied on the ints of the
    space's int_view. A scanned distance that is not positive is a
    ValueError; a pair that touching skips is not checked, so a caller that
    needs every distance checked makes one full scan (verify_delta_existence
    reads ||f|| in full before its touching scans).
    """
    D, scale = space.int_view
    points = list(points)
    nums, den = over_common_denominator(values[p] for p in points)
    entries = list(zip(points, nums))
    if touching is not None:
        hits = [(j, e) for j, e in enumerate(entries) if e[0] in touching]
    best_gap, best_D, pair = 0, 1, None
    for i, (p, vp) in enumerate(entries):
        Dp = D[p]
        if touching is None or p in touching:
            later = entries[i + 1 :]
        else:
            later = [e for j, e in hits if j > i]
        for q, vq in later:
            Dpq = Dp[q]
            if Dpq <= 0:
                lbl_p, lbl_q = space.labels[p], space.labels[q]
                raise ValueError(f"distance d({lbl_p!r}, {lbl_q!r}) = {space.d[p][q]} is not positive")
            gap = abs(vp - vq)
            if gap * best_D > best_gap * Dpq:
                best_gap, best_D, pair = gap, Dpq, (p, q)
    return Fraction(best_gap * scale, den * best_D), pair


def quadruple_failures(space: FiniteMetricSpace, u: int, v: int, points, factor):
    """Lazily yield (x, y, slack), x-major over points, wherever
    d(u,x) + d(v,y) >= factor (d(u,v) + d(x,y)) fails; slack < 0 is exact.

    Both sides are compared as ints of the space's int_view, times the
    denominator of factor; the slack is made a Fraction only on a failure.
    """
    D, scale = space.int_view
    fnum, fden = factor.numerator, factor.denominator
    points = list(points)
    Du, Duv = D[u], D[u][v]
    vy = [fden * D[v][y] for y in points]
    for x in points:
        ux, Dx = fden * Du[x], D[x]
        for y, vyy in zip(points, vy):
            diff = ux + vyy - fnum * (Duv + Dx[y])
            if diff < 0:
                yield x, y, Fraction(diff, fden * scale)


def annulus_sweep(space: FiniteMetricSpace, eps, a):
    """Exhaustive quadruple scan of the annuli inequality hypothesis set.

    u in B(0,8a), v in B(0,8a)\\B(0,4a), x,y outside B(0,32a/eps) or inside
    B(0,a*eps). Returns (checked_count, failures).

    On a metric the sweep cannot fail: the triangle inequality through the
    base point alone gives every such quadruple a slack of at least
    2a*eps^2 (the least case is x, y both inside B(0,a*eps)), so a failure
    shows that the matrix is no metric, not that the hypothesis is false.
    """
    eps = rat(eps)
    a = rat(a)
    if not (0 < eps < 1):
        raise ValueError("eps must be in (0,1)")
    if a <= 0:
        raise ValueError("a must be positive")
    base = space.base
    inner = space.ball(base, 8 * a)
    outer_cut = space.ball(base, 4 * a)
    us = sorted(inner)
    vs = sorted(inner - outer_cut)
    far = set(space.points()) - space.ball(base, 32 * a / eps)
    near = space.ball(base, a * eps)
    xs = sorted(far | near)
    failures = [
        ((u, v, x, y), slack)
        for u in us
        for v in vs
        for x, y, slack in quadruple_failures(space, u, v, xs, ONE - eps)
    ]
    return len(us) * len(vs) * len(xs) ** 2, failures


# ---------------------------------------------------------------------------
# builders


def build_example1_space(N: int) -> FiniteMetricSpace:
    """Integers 1..N with d(n,k) = 3 - |1/n - 1/k|; base is the point 1.
    Over L = lcm(1..N), d(a, b) = (3L - L/a + L/b) / L for a < b."""
    if N < 2:
        raise ValueError("N must be >= 2")
    L = math.lcm(*range(1, N + 1))
    inv = [L // a for a in range(1, N + 1)]
    D = [[3 * L - abs(ia - ib) if a != b else 0 for b, ib in enumerate(inv)] for a, ia in enumerate(inv)]
    return FiniteMetricSpace.from_ints(D, L, labels=[str(i + 1) for i in range(N)], base=0)


def _example2_dist(kind_p, ip, kind_q, iq) -> int:
    if kind_p == kind_q and ip == iq:
        return 0
    for (ku, iu), (kw, iw) in (((kind_p, ip), (kind_q, iq)), ((kind_q, iq), (kind_p, ip))):
        if ku == "u" and kw in ("x", "u") and iu > iw:
            return 1
        if ku == "v" and kw in ("y", "v") and iu > iw:
            return 1
    return 2


def build_example2_space(N: int) -> FiniteMetricSpace:
    """Four families x/y/u/v of size N; 0/1/2-valued metric; base is x_1."""
    if N < 1:
        raise ValueError("N must be >= 1")
    pts = [(kind, i) for kind in ("x", "y", "u", "v") for i in range(1, N + 1)]
    D = [[_example2_dist(*p, *q) for q in pts] for p in pts]
    return FiniteMetricSpace.from_ints(D, 1, labels=[f"{k}{i}" for k, i in pts], base=0)


def example2_point(space: FiniteMetricSpace, kind: str, i: int) -> int:
    return space.index(f"{kind}{i}")


def build_two_anchor_space(N: int) -> FiniteMetricSpace:
    """Two anchors x,y at mutual distance 2; every anchor/non-anchor pair at 1.

    Base is the first non-anchor point.
    """
    if N < 3:
        raise ValueError("N must be >= 3")
    labels = ["x", "y"] + [f"p{i}" for i in range(1, N - 1)]
    D = [[0 if a == b else 1 if (a < 2) != (b < 2) else 2 for b in range(N)] for a in range(N)]
    return FiniteMetricSpace.from_ints(D, 1, labels=labels, base=2)


def build_half_line_space(coords: Sequence) -> FiniteMetricSpace:
    """Points on the real half-line with |s-t|; base is the smallest coordinate."""
    cs = sorted(rat(c) for c in coords)
    if len(set(cs)) != len(cs):
        raise ValueError("coordinates must be distinct")
    nums, den = over_common_denominator(cs)
    D = [[abs(s - t) for t in nums] for s in nums]
    return FiniteMetricSpace.from_ints(D, den, labels=[str(c) for c in cs], base=0)


def build_simplex_space(n: int, a=1) -> FiniteMetricSpace:
    """Regular simplex: all off-diagonal distances equal to a."""
    a = rat(a)
    D = [[0 if i == j else a.numerator for j in range(n)] for i in range(n)]
    return FiniteMetricSpace.from_ints(D, a.denominator, labels=[f"p{i}" for i in range(n)])


@dataclass(frozen=True)
class HatSpace:
    """Generated space admitting the hat-function family at exact norm one."""

    space: FiniteMetricSpace
    pairs: tuple  # ((u_i, v_i) point indices), i = 1..k
    scale: Scalar
    tolerance: Scalar


def build_hat_space(k: int, a=2) -> HatSpace:
    """2k points u_1..u_k, v_1..v_k; d(u_i,v_i) shrunk to a(i-2)/i for i >= 3.

    All other distances equal a. u_1 is the base. The pair distances are
    chosen so the hat function attains Lipschitz norm exactly one; the
    separated-pair inequalities then hold with slack a/3.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    a = rat(a)
    if a <= 0:
        raise ValueError("scale a must be positive")
    labels = [f"u{i}" for i in range(1, k + 1)] + [f"v{i}" for i in range(1, k + 1)]
    n = 2 * k
    # a, then d(u_i, v_i) for i = 1..k, over one denominator
    (A, *duv), scale = over_common_denominator([a, a, a / 2, *(a * (i - 2) / i for i in range(3, k + 1))])
    D = [[0 if i == j else A for j in range(n)] for i in range(n)]
    pairs = tuple((i, k + i) for i in range(k))
    for (u, v), x in zip(pairs, duv):
        D[u][v] = D[v][u] = x
    space = FiniteMetricSpace.from_ints(D, scale, labels=labels, base=0)
    return HatSpace(space=space, pairs=pairs, scale=a, tolerance=a / 3)


@dataclass(frozen=True)
class AnnuliSpace:
    """Half-line space with pairwise disjoint annuli around geometric scales."""

    space: FiniteMetricSpace
    pairs: tuple  # (u_i, v_i) point indices
    annuli: tuple  # frozensets of point indices
    eps: tuple  # per-pair eps_i

    @property
    def k(self) -> int:
        return len(self.pairs)


def _annuli_from_scales(coords, scales, eps_list, first_full_ball):
    """Shared assembly for the synthetic annuli builders: a point is found by
    its position in the sorted coordinates, and annulus membership is
    compared cross-multiplied on the base row of the int_view."""
    cs = sorted(coords)
    space = build_half_line_space(cs)
    at = {c: i for i, c in enumerate(cs)}.__getitem__
    D, view_scale = space.int_view
    D0 = D[space.base]

    def ball(r):
        """The points p with d(base, p) <= r."""
        num, den = r.numerator * view_scale, r.denominator
        return frozenset(p for p, x in enumerate(D0) if x * den <= num)

    pairs = []
    annuli = []
    for i, (a_i, eps_i) in enumerate(zip(scales, eps_list), start=1):
        outer = 32 * a_i / eps_i
        if i == 1 and first_full_ball:
            annuli.append(ball(outer))
            pairs.append((space.base, at(8 * a_i)))
        else:
            annuli.append(ball(outer) - ball(a_i * eps_i))
            pairs.append((at(5 * a_i), at(8 * a_i)))
    return AnnuliSpace(space=space, pairs=tuple(pairs), annuli=tuple(annuli), eps=tuple(eps_list))


def build_annuli_space(k: int = 3, eps="1/4") -> AnnuliSpace:
    """k disjoint annuli at a uniform eps, each holding one separated pair."""
    if k < 1:
        raise ValueError("k must be >= 1")
    eps = rat(eps)
    if not (0 < eps < 1):
        raise ValueError("eps must be in (0,1)")
    ratio = 64 / eps / eps  # > 32/eps^2 keeps consecutive annuli disjoint
    scales = [ONE]
    for _ in range(k - 1):
        scales.append(scales[-1] * ratio)
    coords = [ZERO]
    for a_i in scales:
        coords.extend([5 * a_i, 8 * a_i])
    coords.append(64 * scales[-1] / eps)  # far point outside every annulus
    return _annuli_from_scales(coords, scales, [eps] * k, first_full_ball=False)


def build_recursion_space(k: int) -> AnnuliSpace:
    """Nested annuli with per-stage eps_i = 1/2^(i+1); u_1 is the base point."""
    if k < 1:
        raise ValueError("k must be >= 1")
    eps_list = [rat(1) / (2 ** (i + 1)) for i in range(1, k + 1)]
    scales = [1]
    for i in range(1, k):
        # inner radius of A_{i+1} must clear the outer radius of A_i
        scales.append(scales[-1] * (2 ** (2 * i + 9)))
    coords = [0]
    for i, a_i in enumerate(scales, start=1):
        if i > 1:
            coords.append(5 * a_i)
        coords.append(8 * a_i)
    coords.append(128 * scales[-1] * (2 ** k))  # far point, outside every annulus
    return _annuli_from_scales(coords, scales, eps_list, first_full_ball=True)


# ---------------------------------------------------------------------------
# separated-pair extraction (finite analogue of the bounded uniformly discrete case)


@dataclass(frozen=True)
class ExtractionResult:
    scale: Optional[Scalar]
    pairs: tuple  # (u, v) pairs


def _population_scale(space: FiniteMetricSpace, m: int) -> Optional[Scalar]:
    """Largest distance b such that some closed ball of radius b holds < m points.

    For m >= 1, B(c, b) holds fewer than m points exactly when b is below the
    m-th smallest entry of row c: one sort of each int-view row decides all b.
    """
    D, view_scale = space.int_view
    distances = {D[i][j] for i, j in space.pairs()}
    if m <= space.n:
        cut = max(sorted(row)[m - 1] for row in D)
        distances = [b for b in distances if b < cut]
    return Fraction(max(distances), view_scale) if distances else None


def _pair_bounds(space, scale, tolerance, k: int) -> list:
    """The separated-pair bounds of pairs 1..k in int_view units.

    Pair j needs scale (j-1)/j - tol <= d(u_j, v_j) <= scale (j+1)/j + tol,
    and other points at least scale (j-1)/(2j) - tol from u_j and v_j. Each
    bound b becomes ints (den, num), den > 0, with b * view scale = num / den,
    so that a view distance D is below b exactly when D * den < num: with
    scale = s/sd and tol = t/td, den is sd td j (2 sd td j for the third).
    """
    view_scale = space.int_view[1]
    s, t = scale.numerator * tolerance.denominator, tolerance.numerator * scale.denominator
    den = scale.denominator * tolerance.denominator
    return [
        (
            (den * j, (s * (j - 1) - t * j) * view_scale),
            (den * j, (s * (j + 1) + t * j) * view_scale),
            (2 * den * j, (s * (j - 1) - 2 * t * j) * view_scale),
        )
        for j in range(1, k + 1)
    ]


def _pair_failures(space, pairs, bounds, j: int):
    """Lazily yield the separated-pair violations that pair j (1-based) adds to
    pairs[:j - 1]: its distance, the ambient points, then the earlier pairs.
    bounds is _pair_bounds for at least j pairs."""
    D = space.int_view[0]
    u, v = pairs[j - 1]
    Du, Dv = D[u], D[v]
    (lo_den, lo), (hi_den, hi), (q_den, qbound) = bounds[j - 1]
    if not (lo <= Du[v] * lo_den and Du[v] * hi_den <= hi):
        yield ("pair-distance", (j, u, v))
    for q in space.points():
        if q != u and q != v and min(Du[q], Dv[q]) * q_den < qbound:
            yield ("ambient-separation", (j, u, v, q))
    for i, (ui, vi) in enumerate(pairs[: j - 1], start=1):
        lo_den, lo = bounds[i - 1][0]
        for p in (u, v):
            if min(D[ui][p], D[vi][p]) * lo_den < lo:
                yield ("later-separation", (i, ui, vi, p))


def pair_sequence_failures(space, scale, pairs, tolerance) -> list:
    """Every separated-pair inequality violation, as (kind, data) records."""
    return _sequence_failures(space, pairs, _pair_bounds(space, rat(scale), rat(tolerance), len(pairs)))


def _sequence_failures(space, pairs, bounds) -> list:
    """pair_sequence_failures with bounds, _pair_bounds for at least
    len(pairs) pairs."""
    flat = [p for uv in pairs for p in uv]
    if len(set(flat)) != len(flat):
        return [("overlap", tuple(flat))]
    return [
        bad
        for j in range(1, len(pairs) + 1)
        for bad in _pair_failures(space, pairs, bounds, j)
    ]


def check_annuli_hypothesis(space, pairs, annuli, eps_list):
    """Disjoint annuli, each containing its pair, with the quadruple inequality.

    For every i and all x, y outside A_i we need
    d(u_i,x) + d(v_i,y) >= (1-eps_i)(d(u_i,v_i) + d(x,y)).
    Returns (ok, failures) where failures are (kind, data) records.
    """
    bad = []
    annuli = [frozenset(A) for A in annuli]
    if not (len(pairs) == len(annuli) == len(eps_list)):
        raise ValueError("pairs, annuli and eps_list must have equal length")
    for a in range(len(annuli)):
        for b in range(a + 1, len(annuli)):
            common = annuli[a] & annuli[b]
            if common:
                bad.append(("annuli-overlap", (a + 1, b + 1, tuple(sorted(common)))))
    for idx, ((u, v), A, eps) in enumerate(zip(pairs, annuli, eps_list), start=1):
        if u not in A or v not in A:
            bad.append(("pair-outside-annulus", (idx, u, v)))
            continue
        outside = [p for p in space.points() if p not in A]
        bad.extend(
            ("quadruple", (idx, u, v, x, y))
            for x, y, _ in quadruple_failures(space, u, v, outside, ONE - rat(eps))
        )
    return not bad, bad


def extract_separated_pairs(space: FiniteMetricSpace, tolerance) -> ExtractionResult:
    """Greedy search for a separated-pair family.

    The heuristic may miss families but never returns an invalid one: the
    result is re-verified exhaustively before returning. Empty result when
    no pair is found.
    """
    tolerance = rat(tolerance)
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if space.n < 2:
        return ExtractionResult(scale=None, pairs=())

    D, view_scale = space.int_view
    anchor = _population_scale(space, math.ceil(space.n / 4))
    candidates = sorted({D[i][j] for i, j in space.pairs()})
    if anchor is not None:
        at = int(anchor * view_scale)
        candidates.sort(key=lambda b: (abs(b - at), b))

    all_pairs = list(space.ordered_pairs())
    best = ()
    best_scale = None
    for b in candidates:
        a = Fraction(b, view_scale)
        bounds = _pair_bounds(space, a, tolerance, space.n // 2)
        chosen = []
        used = set()
        for u, v in all_pairs:
            if u in used or v in used:
                continue
            trial = chosen + [(u, v)]
            if next(_pair_failures(space, trial, bounds, len(trial)), None) is None:
                chosen = trial
                used.update((u, v))
        if len(chosen) > len(best) and not _sequence_failures(space, chosen, bounds):
            best = tuple(chosen)
            best_scale = a
            if len(best) == space.n // 2:
                break  # the pairs are disjoint, so no later scale finds more
    return ExtractionResult(scale=best_scale, pairs=best)
