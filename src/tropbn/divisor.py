"""Divisors and piecewise-linear functions on tropical curves.

div(f) assigns to each point the sum of the incoming slopes of f, so a
local maximum of a tent function carries positive multiplicity.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .curve import Point, PointMap, Subcurve, TropicalCurve, _is_int, rat


def _nonzero(data: Dict[Point, int]) -> Dict[Point, int]:
    """data without its zero entries, removed in place."""
    for p in [p for p, m in data.items() if not m]:
        del data[p]
    return data


def _point_key(p: Point):
    if p.is_vertex:
        return (0, p.vertex, 0)
    return (1, p.edge, p.offset)


class Divisor:
    """Finite formal sum of points with integer coefficients.

    A `Point` inside a divisor of curve c is canonical on c, and so on any
    curve equal to c: a vertex, or an edge with a `Fraction` offset strictly
    inside it.  User input is checked once, where it enters: here, when
    ``Divisor(curve, chips)`` passes each point through
    `TropicalCurve.point`, and in `io.point_from_json` and
    `io.divisor_from_json`.  Internal paths trust a divisor's points:
    `_of_canonical` takes points that are already canonical (the arithmetic
    below, `PLFunction.divisor`, `restrict` and `star`, the lattice points
    and the marks of `models.reduced_divisor`, and `rank.canonical`, from
    the curve's shared vertex points), `_of_sums` takes the summed chips
    of `io.divisor_from_json` once it has checked each one, and
    `models.IntegerModel` reads them without checking them again.
    """

    def __init__(self, curve: TropicalCurve, chips=()):
        self.curve = curve
        data: Dict[Point, int] = {}
        items = chips.items() if isinstance(chips, Mapping) else chips
        for p, m in items:
            p = curve.point(p)
            # `curve._is_int` with one isinstance call: this runs per chip
            if type(m) is bool or not isinstance(m, int):
                raise ValueError(f"multiplicity at {p} must be an integer")
            data[p] = data.get(p, 0) + m
        self._chips = _nonzero(data)

    @classmethod
    def _of_canonical(cls, curve: TropicalCurve,
                      chips: Iterable[Tuple[Point, int]]) -> "Divisor":
        """The divisor of (point, int) pairs whose points are canonical on
        the curve: repeated points sum and zeros drop, nothing is checked."""
        data: Dict[Point, int] = {}
        for p, m in chips:
            data[p] = data.get(p, 0) + m
        return cls._of_sums(curve, data)

    @classmethod
    def _of_sums(cls, curve: TropicalCurve, sums: Dict[Point, int]) -> "Divisor":
        """The divisor of a dict from points canonical on the curve to
        their summed multiplicities; the dict is taken over, zeros drop."""
        D = cls.__new__(cls)
        D.curve = curve
        D._chips = _nonzero(sums)
        return D

    @classmethod
    def zero(cls, curve: TropicalCurve) -> "Divisor":
        return cls(curve)

    def items(self) -> List[Tuple[Point, int]]:
        return sorted(self._chips.items(), key=lambda kv: _point_key(kv[0]))

    def support(self) -> List[Point]:
        return [p for p, _ in self.items()]

    def multiplicity(self, p) -> int:
        p = self.curve.point(p)
        return self._chips.get(p, 0)

    __getitem__ = multiplicity

    def degree(self) -> int:
        return sum(self._chips.values())

    def is_effective(self) -> bool:
        return all(m > 0 for m in self._chips.values())

    def is_zero(self) -> bool:
        return not self._chips

    def __add__(self, other: "Divisor") -> "Divisor":
        if not isinstance(other, Divisor):
            return NotImplemented
        if other.curve != self.curve:
            raise ValueError("divisors on different curves")
        return Divisor._of_canonical(
            self.curve, [*self._chips.items(), *other._chips.items()])

    def __neg__(self) -> "Divisor":
        return Divisor._of_canonical(
            self.curve, [(p, -m) for p, m in self._chips.items()])

    def __sub__(self, other: "Divisor") -> "Divisor":
        if not isinstance(other, Divisor):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, k: int) -> "Divisor":
        if not _is_int(k):
            return NotImplemented
        return Divisor._of_canonical(
            self.curve, [(p, k * m) for p, m in self._chips.items()])

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return self.curve == other.curve and self._chips == other._chips

    def __hash__(self):
        return hash(frozenset(self._chips.items()))

    def __repr__(self):
        if not self._chips:
            return "Divisor(0)"
        parts = []
        for p, m in self.items():
            at = p.vertex if p.is_vertex else f"{p.edge}@{p.offset}"
            parts.append(f"{m}·{at}")
        return "Divisor(" + " + ".join(parts) + ")"


class PLFunction:
    """Continuous piecewise-linear function with integer slopes.

    Stored as one rational value per vertex and, per edge, its pieces: the
    profile ``(offset, value)`` from the first end (offset 0) to the second
    (offset ℓ) with the knots in between, and the integer slope of each
    piece.  The constructor works both out once: it checks that every slope
    is an integer and drops each knot where the slope does not change, so
    neighbouring pieces differ in slope.  Evaluation, `divisor`,
    `max_abs_slope` and the arithmetic read this table.
    """

    def __init__(self, curve: TropicalCurve,
                 vertex_values: Mapping[str, Union[Fraction, int, str]],
                 knots: Optional[Mapping[str, Iterable[Tuple]]] = None):
        self.curve = curve
        self._vv: Dict[str, Fraction] = {}
        for v in curve.vertices():
            if v not in vertex_values:
                raise ValueError(f"missing value at vertex {v!r}")
            self._vv[v] = rat(vertex_values[v])
        # edge -> (profile, slopes); slopes[i] is the slope from profile[i]
        # to profile[i + 1]
        self._pieces: Dict[str, Tuple[Tuple[Tuple[Fraction, Fraction], ...],
                                      Tuple[int, ...]]] = {}
        knots = knots or {}
        for e in knots:
            if not curve.has_edge(e):
                raise ValueError(f"unknown edge {e!r}")
        for e in curve.edges():
            ks = [(rat(o), rat(val)) for o, val in knots.get(e, ())]
            ks.sort()
            ell = curve.length(e)
            for i, (o, _) in enumerate(ks):
                if not (0 < o < ell):
                    raise ValueError(f"knot offset {o} not interior to edge {e!r}")
                if i and ks[i - 1][0] == o:
                    raise ValueError(f"duplicate knot offset {o} on edge {e!r}")
            u, v = curve.ends(e)
            prof = [(Fraction(0), self._vv[u])]
            slopes: List[int] = []
            for o1, v1 in ks + [(ell, self._vv[v])]:
                o0, v0 = prof[-1]
                s = (v1 - v0) / (o1 - o0)
                if s.denominator != 1:
                    raise ValueError(
                        f"non-integer slope {s} on edge {e!r} near offset {o0}")
                if slopes and slopes[-1] == s:
                    prof[-1] = (o1, v1)     # o0 was a knot without a bend
                else:
                    prof.append((o1, v1))
                    slopes.append(s.numerator)
            self._pieces[e] = (tuple(prof), tuple(slopes))

    @classmethod
    def constant(cls, curve: TropicalCurve, c=0) -> "PLFunction":
        return cls(curve, {v: rat(c) for v in curve.vertices()})

    def vertex_values(self) -> Dict[str, Fraction]:
        return dict(self._vv)

    def knots(self, e: str) -> Tuple[Tuple[Fraction, Fraction], ...]:
        return self._pieces[e][0][1:-1]

    def _at(self, e: str, offsets: Sequence[Fraction]) -> List[Fraction]:
        """Values at ascending offsets of edge e, in one walk along it."""
        prof, slopes = self._pieces[e]
        out = []
        i = 0
        for o in offsets:
            while prof[i + 1][0] < o:
                i += 1
            o0, v0 = prof[i]
            out.append(v0 + slopes[i] * (o - o0))
        return out

    def value(self, p) -> Fraction:
        return self._value(self.curve.point(p))

    def _value(self, p: Point) -> Fraction:
        """`value` at a point that is canonical on the curve."""
        if p.is_vertex:
            return self._vv[p.vertex]
        return self._at(p.edge, [p.offset])[0]

    def crossings(self, e: str, level) -> List[Fraction]:
        """Ascending offsets inside edge e where f crosses the level: points
        of a linear piece whose ends lie strictly on either side of it."""
        c = rat(level)
        prof, slopes = self._pieces[e]
        return [o0 + (c - v0) / s
                for (o0, v0), (_, v1), s in zip(prof, prof[1:], slopes)
                if (v0 - c) * (v1 - c) < 0]

    def max_abs_slope(self) -> int:
        return max((abs(s) for _, slopes in self._pieces.values() for s in slopes),
                   default=0)

    def divisor(self) -> Divisor:
        """div(f): at each point, the sum of the incoming slopes of f.  An
        edge gives minus its first slope to its first end and its last slope
        to its second end, and each knot the drop in slope across it."""
        chips: List[Tuple[Point, int]] = []
        for e, (prof, slopes) in self._pieces.items():
            u, v = self.curve.ends(e)
            chips += [(Point(vertex=u), -slopes[0]), (Point(vertex=v), slopes[-1])]
            chips += [(Point(edge=e, offset=o), s0 - s1)
                      for (o, _), s0, s1 in zip(prof[1:-1], slopes, slopes[1:])]
        return Divisor._of_canonical(self.curve, chips)

    # -- arithmetic ------------------------------------------------------

    def _pointwise(self, op, *others, cuts=None) -> "PLFunction":
        """op(f, *others) pointwise; a constant among the others is lifted.

        The result is affine between the knots of its inputs and the
        offsets ``cuts(e)`` on edge e, where op may switch branches (a min
        switches where its arguments cross), so it is sampled there."""
        fs = [self]
        for g in others:
            if not isinstance(g, PLFunction):
                g = PLFunction.constant(self.curve, g)
            elif g.curve != self.curve:
                raise ValueError("functions on different curves")
            fs.append(g)
        vv = {v: op(*(g._vv[v] for g in fs)) for v in self._vv}
        knots = {}
        for e in self.curve.edges():
            # ascending runs, so the sort merges them in linear time
            offs = sorted([o for g in fs for o, _ in g.knots(e)]
                          + (cuts(e) if cuts else []))
            offs = [o for k, o in enumerate(offs) if not k or o != offs[k - 1]]
            if offs:
                knots[e] = list(zip(offs, map(op, *(g._at(e, offs) for g in fs))))
        return PLFunction(self.curve, vv, knots)

    def __add__(self, other):
        return self._pointwise(operator.add, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._pointwise(operator.sub, other)

    def __neg__(self):
        return self._pointwise(operator.neg)

    def __rmul__(self, k: int):
        if not _is_int(k):
            return NotImplemented
        return self._pointwise(lambda a: k * a)

    __mul__ = __rmul__

    def min_const(self, c) -> "PLFunction":
        """Pointwise min with a constant."""
        c = rat(c)
        return self._pointwise(lambda a: min(a, c),
                               cuts=lambda e: self.crossings(e, c))

    def __eq__(self, other):
        if not isinstance(other, PLFunction):
            return NotImplemented
        return (self.curve == other.curve and self._vv == other._vv
                and self._pieces == other._pieces)

    def __repr__(self):
        nk = sum(len(prof) - 2 for prof, _ in self._pieces.values())
        return f"PLFunction({len(self._vv)} vertex values, {nk} knots)"


def star(E: Divisor) -> Divisor:
    """E* : each coefficient b at p becomes b + min{b, w(p)}."""
    if not E.is_effective():
        raise ValueError("star is defined for effective divisors")
    curve = E.curve
    return Divisor._of_canonical(curve, [
        (p, b + min(b, curve.weight(p.vertex) if p.is_vertex else 0))
        for p, b in E._chips.items()])


def restrict(D: Divisor, lam: Subcurve) -> Divisor:
    """Keep only the chips lying on the (closed) subcurve."""
    if lam.parent != D.curve:
        raise ValueError("subcurve of a different curve")
    return Divisor._of_canonical(
        D.curve, [(p, m) for p, m in D._chips.items() if lam._contains(p)])


def pushforward(pm: PointMap, D: Divisor) -> Divisor:
    """Image divisor under a point map (coefficients accumulate)."""
    if pm.source != D.curve:
        raise ValueError("divisor does not live on the map's source")
    return Divisor(pm.target, [(pm(p), m) for p, m in D.items()])


def clamp(f: PLFunction, mu, region: Subcurve) -> PLFunction:
    """f̄ = μ on the region and min{f, μ} outside.

    A region that is a single point is not flattened (the pointwise min
    alone keeps continuity there); otherwise f must not dip below μ at the
    region's boundary, which the construction asserts.
    """
    mu = rat(mu)
    if region.parent != f.curve:
        raise ValueError("region on a different curve")
    g = f.min_const(mu)
    # a connected region without an interval of positive length is a point
    if all(a == b for ivs in region.intervals.values() for a, b in ivs):
        return g
    for bp in region.boundary_points():
        if f._value(bp) < mu:
            raise ValueError(f"clamp would be discontinuous at {bp}: f < mu")
    vv = g.vertex_values()
    for v in region.vertices:
        vv[v] = mu
    knots = {}
    for e in f.curve.edges():
        ivs = [iv for iv in region.covered_intervals(e) if iv[0] < iv[1]]
        ks = [k for k in g.knots(e) if not any(a <= k[0] <= b for a, b in ivs)]
        ell = f.curve.length(e)
        for a, b in ivs:
            if a > 0:
                ks.append((a, mu))
            if b < ell:
                ks.append((b, mu))
        knots[e] = sorted(ks)
    return PLFunction(f.curve, vv, knots)
