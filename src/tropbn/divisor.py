"""Divisors and piecewise-linear functions on tropical curves.

div(f) assigns to each point the sum of the incoming slopes of f, so a
local maximum of a tent function carries positive multiplicity.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .curve import Point, PointMap, Subcurve, TropicalCurve, _is_int, rat


def _point_key(p: Point):
    if p.is_vertex:
        return (0, p.vertex, 0)
    return (1, p.edge, p.offset)


class Divisor:
    """Finite formal sum of points with integer coefficients."""

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
        self._chips = {p: m for p, m in data.items() if m != 0}

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
        if other.curve != self.curve:
            raise ValueError("divisors on different curves")
        out = dict(self._chips)
        for p, m in other._chips.items():
            out[p] = out.get(p, 0) + m
        return Divisor(self.curve, out)

    def __neg__(self) -> "Divisor":
        return Divisor(self.curve, {p: -m for p, m in self._chips.items()})

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def __rmul__(self, k: int) -> "Divisor":
        if not _is_int(k):
            return NotImplemented
        return Divisor(self.curve, {p: k * m for p, m in self._chips.items()})

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

    Stored as one rational value per vertex plus sorted interior knots
    (offset, value) per edge; affine in between.  Construction validates
    continuity implicitly and integrality of every slope, and prunes knots
    where the slope does not actually change.
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
        self._knots: Dict[str, Tuple[Tuple[Fraction, Fraction], ...]] = {}
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
            pts = [(Fraction(0), self._vv[u])] + ks + [(ell, self._vv[v])]
            slopes = []
            for (o0, v0), (o1, v1) in zip(pts, pts[1:]):
                s = (v1 - v0) / (o1 - o0)
                if s.denominator != 1:
                    raise ValueError(
                        f"non-integer slope {s} on edge {e!r} near offset {o0}")
                slopes.append(s)
            kept = [ks[i] for i in range(len(ks)) if slopes[i] != slopes[i + 1]]
            if kept:
                self._knots[e] = tuple(kept)

    @classmethod
    def constant(cls, curve: TropicalCurve, c=0) -> "PLFunction":
        return cls(curve, {v: rat(c) for v in curve.vertices()})

    def vertex_values(self) -> Dict[str, Fraction]:
        return dict(self._vv)

    def knots(self, e: str) -> Tuple[Tuple[Fraction, Fraction], ...]:
        return self._knots.get(e, ())

    def _profile(self, e: str) -> List[Tuple[Fraction, Fraction]]:
        u, v = self.curve.ends(e)
        ell = self.curve.length(e)
        return ([(Fraction(0), self._vv[u])] + list(self._knots.get(e, ()))
                + [(ell, self._vv[v])])

    def _at(self, e: str, offsets: Sequence[Fraction]) -> List[Fraction]:
        """Values at ascending offsets of edge e, in one walk along it."""
        prof = self._profile(e)
        out = []
        i = 0
        for o in offsets:
            while prof[i + 1][0] < o:
                i += 1
            (o0, v0), (o1, v1) = prof[i], prof[i + 1]
            out.append(v1 if o == o1 else v0 + (v1 - v0) * (o - o0) / (o1 - o0))
        return out

    def value(self, p) -> Fraction:
        p = self.curve.point(p)
        if p.is_vertex:
            return self._vv[p.vertex]
        return self._at(p.edge, [p.offset])[0]

    def crossings(self, e: str, level) -> List[Fraction]:
        """Ascending offsets inside edge e where f crosses the level: points
        of a linear piece whose ends lie strictly on either side of it."""
        c = rat(level)
        prof = self._profile(e)
        return [o0 + (c - v0) * (o1 - o0) / (v1 - v0)
                for (o0, v0), (o1, v1) in zip(prof, prof[1:])
                if (v0 - c) * (v1 - c) < 0]

    def outgoing_slopes(self, p) -> List[Fraction]:
        """One-sided derivatives in every direction leaving p."""
        p = self.curve.point(p)
        out = []
        if p.is_vertex:
            for e in dict.fromkeys(e for e, _ in self.curve.incident(p.vertex)):
                u, v = self.curve.ends(e)
                prof = self._profile(e)
                if u == p.vertex:
                    (o0, v0), (o1, v1) = prof[0], prof[1]
                    out.append((v1 - v0) / (o1 - o0))
                if v == p.vertex:
                    (o0, v0), (o1, v1) = prof[-2], prof[-1]
                    out.append(-(v1 - v0) / (o1 - o0))
            return out
        prof = self._profile(p.edge)
        for i in range(len(prof) - 1):
            (o0, v0), (o1, v1) = prof[i], prof[i + 1]
            if o0 <= p.offset <= o1:
                s = (v1 - v0) / (o1 - o0)
                if o0 < p.offset:
                    out.append(-s)   # toward offset 0
                    break
        for i in range(len(prof) - 1):
            (o0, v0), (o1, v1) = prof[i], prof[i + 1]
            if o0 <= p.offset < o1:
                s = (v1 - v0) / (o1 - o0)
                out.append(s)        # toward offset ell
                break
        return out

    def max_abs_slope(self) -> int:
        best = 0
        for e in self.curve.edges():
            prof = self._profile(e)
            for (o0, v0), (o1, v1) in zip(prof, prof[1:]):
                s = abs((v1 - v0) / (o1 - o0))
                if s > best:
                    best = s
        return int(best)

    def divisor(self) -> Divisor:
        """div(f): at each point, the sum of incoming slopes of f."""
        chips: Dict[Point, int] = {}
        for v in self.curve.vertices():
            c = -sum(self.outgoing_slopes(Point(vertex=v)))
            if c:
                chips[Point(vertex=v)] = int(c)
        for e, ks in self._knots.items():
            for o, _ in ks:
                p = Point(edge=e, offset=o)
                c = -sum(self.outgoing_slopes(p))
                if c:
                    chips[p] = int(c)
        return Divisor(self.curve, chips)

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
            offs = sorted([o for g in fs for o, _ in g._knots.get(e, ())]
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
                and self._knots == other._knots)

    def __repr__(self):
        nk = sum(len(k) for k in self._knots.values())
        return f"PLFunction({len(self._vv)} vertex values, {nk} knots)"


def star(E: Divisor) -> Divisor:
    """E* : each coefficient b at p becomes b + min{b, w(p)}."""
    if not E.is_effective():
        raise ValueError("star is defined for effective divisors")
    chips = {}
    for p, b in E.items():
        w = E.curve.point_weight(p)
        chips[p] = b + min(b, w)
    return Divisor(E.curve, chips)


def restrict(D: Divisor, lam: Subcurve) -> Divisor:
    """Keep only the chips lying on the (closed) subcurve."""
    if lam.parent != D.curve:
        raise ValueError("subcurve of a different curve")
    return Divisor(D.curve, {p: m for p, m in D.items() if lam.contains_point(p)})


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
        if f.value(bp) < mu:
            raise ValueError(f"clamp would be discontinuous at {bp}: f < mu")
    vv = g.vertex_values()
    for v in region.vertices:
        vv[v] = mu
    knots = {e: list(ks) for e, ks in g._knots.items()}
    for e in f.curve.edges():
        ivs = [iv for iv in region.covered_intervals(e) if iv[0] < iv[1]]
        if not ivs:
            continue
        ell = f.curve.length(e)
        ks = [k for k in knots.get(e, ())
              if not any(a <= k[0] <= b for a, b in ivs)]
        for a, b in ivs:
            if a > 0:
                ks.append((a, mu))
            if b < ell:
                ks.append((b, mu))
        ks.sort()
        if ks:
            knots[e] = ks
        elif e in knots:
            del knots[e]
    return PLFunction(f.curve, vv, knots)
