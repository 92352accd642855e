"""Integer chip-firing models of tropical curves.

A curve with rational edge lengths is cut at its interior marks and at the
midpoint of every loop that carries no mark, which leaves a loopless model;
each piece of that model is then divided into unit steps of length 1/λ.
Chip-firing on the resulting multigraph decides linear equivalence exactly:
ranks survive subdivision (Hladký–Kráľ–Norine, arXiv:0709.4485), and the
vertices of the loopless model form a rank-determining set (Luo,
arXiv:0906.2807).  Firing vectors convert back into piecewise-linear
witnesses on the original curve.

The model is never built as a curve: lattice points are numbered by a fixed
layout (see `IntegerModel`), and each edge keeps one list, the lattice
index at each tick, so index ↔ point conversions are integer arithmetic.
Subcurve diameters need no lattice: `subcurve_diameter` takes them in
closed form from vertex distances.

`reduced_divisor` and `is_equivalent` are the divisor-level entry points:
they are the only routes from a `Divisor` to the chip-firing kernel.  The
rank search, Brill–Noether enumeration and confinement search work on
lattice vectors through `divisor_vector`, `reduce_vector`,
`effective_class` and `sigma_to_pl`.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import combinations
from math import ceil, floor, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from . import kernel
from .curve import Point, Subcurve, TropicalCurve, _is_int
from .divisor import Divisor, PLFunction

# Largest lattice a model may have.  A lattice point costs about 200 bytes
# (adjacency lists, CSR arrays, kernel vectors), so this is about 400 MB.
# The kernel's rounds work on runs of points rather than on points, but its
# vectors, in and out, still hold one entry per point, and it contracts the
# lattice in one pass over them; so n still bounds a call's memory and time.
MAX_LATTICE_POINTS = 2_000_000


class IntegerModel:
    """Unit-step model of a curve on the lattice (1/λ)ℤ of each edge.

    marks: points of the curve that must become lattice vertices.
    scale: a positive integer that multiplies λ, refining the lattice;
    `transport.confinement_search` searches the lattice at scale 2.

    The stops of an edge are its interior marks, merged and ascending, or
    its midpoint when it is a loop without interior marks.  A piece runs
    between consecutive stops (or an endpoint); λ is ``scale`` times the lcm
    of the denominators of all piece lengths, so every stop is a lattice
    point.  The stop offsets are partial sums of the piece lengths, so that
    lcm is also the lcm of the stop offsets' denominators, which is how λ is
    computed; a stop at offset a/b is then the integer tick a·(λ/b).
    Lattice points are numbered in this order:

    1. the curve's vertices, in curve order;
    2. the interior marks, edge by edge in curve order, offsets ascending;
    3. the midpoint of each loop without interior marks, in edge order;
    4. all other lattice points, edge by edge, then piece by piece, with
       offsets t/λ ascending.

    Indices of the first three groups are ``split_indices``: the vertices of
    the loopless model.  The graph joins points 1/λ apart along an edge; the
    CSR arrays ``indptr``/``nbrs`` list each point's neighbours in the order
    in which a walk over the edges (curve order, each from its first end to
    its second) meets the unit steps.  A model of more than
    ``MAX_LATTICE_POINTS`` points raises ``ValueError`` before it allocates.

    The lattice depends only on ``scale`` and the set of interior cuts
    (edge, offset) that the marks make; vertex marks do not change it.  The
    curve keeps the last lattice built on it in one slot,
    ``TropicalCurve._lattice_slot``, as (key, fields) with that pair as the
    key, so a model built again on the same curve object and cuts, as the
    Riemann–Roch pair rank(D), rank(K − D) does, copies the stored fields
    instead of rebuilding them.  A model with another key empties the slot
    before it builds and then takes it over, so a curve never holds two
    lattices.  The fields are curve-free (``n``, ``lam``, the numbering, the
    paths, the piece tables and the CSR arrays), so the slot holds no
    reference back to the curve, a model or a divisor: there is no cycle,
    and a dropped curve is freed by reference counting.  The stored lists
    are shared between the models of one key and are never mutated.
    """

    def __init__(self, curve: TropicalCurve, marks=(), scale: int = 1):
        if not _is_int(scale) or scale < 1:
            raise ValueError("scale must be a positive integer")
        self.curve = curve
        cuts = frozenset((p.edge, p.offset) for p in map(curve.point, marks)
                         if not p.is_vertex)
        key = (scale, cuts)
        slot = curve._lattice_slot
        if slot is None or slot[0] != key:
            curve._lattice_slot = None   # never hold two lattices at once
            slot = curve._lattice_slot = (key, _lattice(curve, cuts, scale))
        self.__dict__.update(slot[1])

    # -- conversions -------------------------------------------------------

    def vertex_index(self, p) -> int:
        """Lattice index of a curve point; the point must be on the lattice."""
        p = self.curve.point(p)
        if p.is_vertex:
            return self._vindex[p.vertex]
        t = p.offset * self.lam
        if t.denominator != 1:
            raise ValueError(f"{p} is not a lattice point of this model")
        return self._paths[p.edge][t.numerator]

    def point_of_index(self, i: int) -> Point:
        if not 0 <= i < self.n:
            raise IndexError(f"lattice index {i} out of range")
        if i < len(self._stops):
            return self._stops[i]
        k = bisect_right(self._piece_first, i) - 1
        e, s = self._piece_at[k]
        return Point(edge=e, offset=Fraction(s + 1 + i - self._piece_first[k],
                                             self.lam))

    def divisor_vector(self, D: Divisor) -> List[int]:
        vec = [0] * self.n
        for p, m in D.items():
            vec[self.vertex_index(p)] += m
        return vec

    def sigma_to_pl(self, sigma: Sequence[int]) -> PLFunction:
        """f with div(f) = -L·σ, i.e. f = -σ/λ; reduction yields D + div(f).

        f is affine on each unit step; a knot goes only where the slope
        changes."""
        factor = Fraction(-1, self.lam)
        vv = {v: factor * sigma[i] for v, i in self._vindex.items()}
        knots: Dict[str, List[Tuple[Fraction, Fraction]]] = {}
        for e, path in self._paths.items():
            ks = []
            for t in range(1, len(path) - 1):
                a, b, c = sigma[path[t - 1]], sigma[path[t]], sigma[path[t + 1]]
                if b - a != c - b:
                    ks.append((Fraction(t, self.lam), factor * b))
            if ks:
                knots[e] = ks
        return PLFunction(self.curve, vv, knots)

    # -- reduction ---------------------------------------------------------

    def reduce_vector(self, vec: Sequence[int], qi: int) -> Tuple[List[int], List[int]]:
        return kernel.reduce_divisor(self.indptr, self.nbrs, list(vec), qi)

    def effective_class(self, vec: Sequence[int], qi: int) -> bool:
        """Whether the class of vec contains an effective divisor."""
        red, _ = self.reduce_vector(vec, qi)
        return red[qi] >= 0

    def indices_in(self, sub: Subcurve) -> List[int]:
        """Sorted indices of the lattice points that lie on the subcurve."""
        # an interval that reaches an end of its edge puts that end into
        # sub.vertices (closure), so the slices may include the ends
        out = {self._vindex[v] for v in sub.vertices}
        for e, ivs in sub.intervals.items():
            path = self._paths[e]
            for a, b in ivs:
                out.update(path[ceil(a * self.lam):floor(b * self.lam) + 1])
        return sorted(out)


def _lattice(curve: TropicalCurve, cuts, scale: int) -> dict:
    """The curve-free fields of an `IntegerModel`: its lattice for the
    interior cuts, a set of (edge, offset) pairs, at this scale."""
    verts = curve.vertices()
    vindex = {v: i for i, v in enumerate(verts)}
    offsets_on: Dict[str, List[Fraction]] = {}
    for e, o in cuts:
        offsets_on.setdefault(e, []).append(o)
    # points of the indices below len(stops), and per edge its stop
    # offsets (ends included) with the index of each
    stops: List[Point] = [Point(vertex=v) for v in verts]
    layout: Dict[str, Tuple[list, List[int]]] = {}

    def add_stops(e, offs):
        u, v = curve.ends(e)
        first = len(stops)
        stops.extend(Point(edge=e, offset=o) for o in offs)
        layout[e] = ([0, *offs, curve.length(e)],
                     [vindex[u], *range(first, len(stops)), vindex[v]])

    for e in curve.edges():
        if e in offsets_on:
            add_stops(e, sorted(offsets_on[e]))
    for e in curve.edges():
        if e not in layout:
            add_stops(e, [curve.length(e) / 2] if curve.is_loop(e) else [])

    # the stop offsets are the partial sums of the piece lengths, so the lcm
    # of their denominators is that of the piece lengths' denominators
    lam = scale * lcm(*(o.denominator for offs, _ in layout.values()
                        for o in offs))
    ticks_of = {e: [o.numerator * (lam // o.denominator) for o in offs]
                for e, (offs, _) in layout.items()}
    # n is counted piece by piece before anything is allocated: a piece
    # whose tick gap is at most 1 has no interior points
    n = len(stops) + sum(t - s - 1 for ticks in ticks_of.values()
                         for s, t in zip(ticks, ticks[1:]) if t - s > 1)
    if n > MAX_LATTICE_POINTS:
        raise ValueError(f"integer model needs {n} lattice points, more "
                         f"than the limit of {MAX_LATTICE_POINTS}")

    # per edge, the lattice index at each tick t (offset t/λ) from its
    # first end on; plus, for every piece with interior points, its first
    # index, edge and start tick
    paths: Dict[str, List[int]] = {}
    piece_first: List[int] = []
    piece_at: List[Tuple[str, int]] = []
    first = len(stops)
    for e in curve.edges():
        ticks, nodes = ticks_of[e], layout[e][1]
        path = [nodes[0]]
        for s, t, node in zip(ticks, ticks[1:], nodes[1:]):
            if t - s > 1:
                piece_first.append(first)
                piece_at.append((e, s))
                path.extend(range(first, first + t - s - 1))
                first += t - s - 1
            path.append(node)
        paths[e] = path

    adj: List[List[int]] = [[] for _ in range(n)]
    for path in paths.values():
        for a, b in zip(path, path[1:]):
            adj[a].append(b)
            adj[b].append(a)
    indptr = [0] * (n + 1)
    for i, nb in enumerate(adj):
        indptr[i + 1] = indptr[i] + len(nb)
    return {"n": n, "lam": lam, "_vindex": vindex, "_stops": stops,
            "split_indices": list(range(len(stops))), "_paths": paths,
            "_piece_first": piece_first, "_piece_at": piece_at,
            "indptr": indptr, "nbrs": [w for nb in adj for w in nb]}


def reduced_divisor(curve: TropicalCurve, D: Divisor, q) -> Tuple[Divisor, PLFunction]:
    """q-reduced form of D and witness f with reduced = D + div(f), f(q) = 0."""
    q = curve.point(q)
    model = IntegerModel(curve, marks=list(D.support()) + [q])
    red, sigma = model.reduce_vector(model.divisor_vector(D), model.vertex_index(q))
    chips = [(model.point_of_index(i), m) for i, m in enumerate(red) if m]
    return Divisor(curve, chips), model.sigma_to_pl(sigma)


def is_equivalent(D1: Divisor, D2: Divisor) -> Tuple[bool, Optional[PLFunction]]:
    """Linear equivalence test with witness.

    Returns (True, f) with D1 − D2 = div(f), or (False, None).  D1 ~ D2
    exactly when D1 − D2 reduces to 0 at the first vertex; f is then minus
    the reduction's witness, the one function with divisor D1 − D2 that
    vanishes there.
    """
    if D1.curve != D2.curve:
        raise ValueError("divisors on different curves")
    if D1.degree() != D2.degree():
        return False, None
    if D1 == D2:
        return True, PLFunction.constant(D1.curve)
    red, f = reduced_divisor(D1.curve, D1 - D2, D1.curve.vertices()[0])
    if not red.is_zero():
        return False, None
    return True, -f


def subcurve_diameter(sub: Subcurve) -> Fraction:
    """Largest ambient distance between two points of the subcurve.

    Closed form from the distances D between curve vertices
    (`TropicalCurve.vertex_distances`, Dijkstra on |V| points, cached per
    curve); no lattice is built.  A connected subcurve is a single vertex,
    of diameter 0, or the union of its covered intervals, so its pieces are
    those intervals: [a, b] on an edge, whose point at offset s has legs s
    and ℓ − s to the edge's ends.  For a point at s on one piece and t on
    another, the distance is the least of the terms leg(s) + D(w, w') +
    leg(t), one per pair of ends w, w', and of |s − t| when both pieces lie
    on one edge.  Every term is affine in (s, t) with coefficients in
    {−1, 0, 1}.

    Writing |s − t| = max(s − t, t − s) turns the maximum over the box
    [a, b] × [c, d] into two linear programs in (s, t, z): maximise z with
    z at most each term.  Their feasible sets contain no line, so each
    optimum sits at a vertex, where three independent constraints are
    tight: a corner of the box, a point on a side where two terms are
    equal, or an interior point where three are equal.  Each candidate
    solves a linear system with integer coefficients in {−2, …, 2}, so it
    is rational.  The largest distance among the candidates, over every
    pair of pieces (a piece with itself included), is the diameter.  The
    arithmetic is exact and done in integers: every length is scaled by the
    common denominator m of the edge lengths and the interval ends, and a
    candidate is kept as integer numerators over one positive denominator.
    """
    curve = sub.parent
    m = lcm(*(curve.length(e).denominator for e in curve.edges()),
            *(x.denominator for ivs in sub.intervals.values()
              for iv in ivs for x in iv))

    def dist(u, v):
        return (curve.vertex_distances(u)[v] * m).numerator

    # (edge, ends as (vertex, sign, c) with leg c + sign·s, lo, hi), all
    # scaled by m
    pieces = []
    for e, ivs in sub.intervals.items():
        u, v = curve.ends(e)
        ends = ((u, 1, 0), (v, -1, (curve.length(e) * m).numerator))
        pieces += [(e, ends, (a * m).numerator, (b * m).numerator)
                   for a, b in ivs]
    best, best_q = 0, 1
    for i, (e, ends_p, a, b) in enumerate(pieces):
        for f, ends_q, c, d in pieces[i:]:
            terms = [(sp, sq, kp + dist(wp, wq) + kq)
                     for wp, sp, kp in ends_p for wq, sq, kq in ends_q]
            same = e == f
            split = terms + [(1, -1, 0), (-1, 1, 0)] if same else terms
            for s, t, q in set(_lp_vertices(split, a, b, c, d)):
                val = min(cs * s + ct * t + k * q for cs, ct, k in terms)
                if same:
                    val = min(val, abs(s - t))
                if val * best_q > best * q:
                    best, best_q = val, q
    return Fraction(best, best_q * m)


def _lp_vertices(terms, a, b, c, d):
    """Candidate optima of max min(terms) over the box [a, b] × [c, d].

    A term (cs, ct, k) is cs·s + ct·t + k, with integers throughout.
    Yields (S, T, q) with q > 0 for the point (S/q, T/q): the box's
    corners, the points of its sides where two terms are equal, and the
    interior points where three are equal.  Negating an equation keeps its
    solutions, so each is turned to give a positive q.
    """
    for s in (a, b):
        for t in (c, d):
            yield s, t, 1
    for (s1, t1, k1), (s2, t2, k2) in combinations(terms, 2):
        # the two terms are equal on ds·s + dt·t + dk = 0
        ds, dt, dk = s1 - s2, t1 - t2, k1 - k2
        if dt < 0:
            ds, dt, dk = -ds, -dt, -dk
        for s in ((a, b) if dt else ()):
            t = -(ds * s + dk)
            if c * dt <= t <= d * dt:
                yield s * dt, t, dt
        if ds < 0:
            ds, dt, dk = -ds, -dt, -dk
        for t in ((c, d) if ds else ()):
            s = -(dt * t + dk)
            if a * ds <= s <= b * ds:
                yield s, t * ds, ds
    for (s1, t1, k1), (s2, t2, k2), (s3, t3, k3) in combinations(terms, 3):
        # the first term equal to the other two: Cramer's rule
        a1, b1, c1 = s1 - s2, t1 - t2, k1 - k2
        a2, b2, c2 = s1 - s3, t1 - t3, k1 - k3
        det = a1 * b2 - a2 * b1
        if det < 0:
            a1, b1, c1, det = -a1, -b1, -c1, -det
        if det:
            s, t = b1 * c2 - b2 * c1, a2 * c1 - a1 * c2
            if a * det <= s <= b * det and c * det <= t <= d * det:
                yield s, t, det
