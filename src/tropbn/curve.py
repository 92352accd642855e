"""Weighted tropical curves: metric multigraphs with vertex weights.

A curve is a connected multigraph (loops and parallel edges allowed) with a
non-negative integer weight on each vertex and a positive rational length on
each edge.  All geometry is exact: offsets, lengths and distances are
`fractions.Fraction` values, never floats.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

RatLike = Union[Fraction, int, str]


def _is_int(x) -> bool:
    """The integer rule of every entry point: an int that is not a bool.
    `rat`, `io.parse_int` and the vertex check, which parsing calls per
    number, spell it out."""
    return isinstance(x, int) and not isinstance(x, bool)


def rat(x: RatLike) -> Fraction:
    """Coerce ints, strings like '3/2', and Fractions to an exact rational.

    Anything else (booleans included), and a string with a zero
    denominator, is a ValueError.  Strings of ASCII digits, or two such
    separated by '/' with a nonzero denominator, skip `Fraction`'s regular
    expression; every other string goes through ``Fraction(x)``.  Strings
    are tested first: they are what parsing hands in, once per number.
    """
    if isinstance(x, str):
        num, slash, den = x.partition("/")
        if num.isascii() and num.isdigit():
            if not slash:
                return Fraction(int(num))
            if den.isascii() and den.isdigit() and den.strip("0"):
                return Fraction(int(num), int(den))
        try:
            return Fraction(x)
        except ZeroDivisionError:
            pass
    elif isinstance(x, Fraction):
        return x
    elif isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise ValueError(f"not a rational: {x!r}")


# a Point's fields are set through object's own __setattr__: its own refuses
_setattr = object.__setattr__


class Point:
    """A location on a curve: a vertex, or an interior position on an edge.

    Interior offsets are measured from the edge's first endpoint and lie
    strictly between 0 and the edge length.  Use ``TropicalCurve.point`` to
    build canonicalized points (endpoint offsets collapse to vertices).

    A point is immutable: assigning or deleting a field raises
    `AttributeError`.  Two points are equal when their fields are, and the
    hash is that of the tuple ``(vertex, edge, offset)``.  It is worked out
    on the first `hash` and stored in a slot, so a point that keys many
    dicts hashes its `Fraction` offset, which takes a modular inverse, only
    once.  It is not worked out in the constructor, so a point with a field
    that cannot be hashed still reaches `TropicalCurve.point`'s check.
    """

    __slots__ = ("vertex", "edge", "offset", "_hash")

    def __init__(self, vertex: Optional[str] = None, edge: Optional[str] = None,
                 offset: Optional[Fraction] = None):
        if (vertex is None) == (edge is None):
            raise ValueError("point is either a vertex or an edge interior")
        if edge is not None and offset is None:
            raise ValueError("interior point needs an offset")
        _setattr(self, "vertex", vertex)
        _setattr(self, "edge", edge)
        _setattr(self, "offset", offset)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a Point")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a Point")

    def __reduce__(self):
        # copy and pickle rebuild the point through the constructor
        return Point, (self.vertex, self.edge, self.offset)

    def __eq__(self, other):
        if other.__class__ is not Point:
            return NotImplemented
        return ((self.vertex, self.edge, self.offset)
                == (other.vertex, other.edge, other.offset))

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.vertex, self.edge, self.offset))
            _setattr(self, "_hash", h)
            return h

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None

    def __repr__(self):
        if self.is_vertex:
            return f"Point({self.vertex!r})"
        return f"Point({self.edge!r}@{self.offset})"


def _vertex_fault(vid, w, weights: Dict[str, int]) -> Optional[ValueError]:
    """The error the curve constructor raises for a vertex ``(vid, w)``
    that follows the vertices of `weights`, or None."""
    if not isinstance(vid, str) or not vid:
        return ValueError(f"vertex id must be a non-empty string: {vid!r}")
    if vid in weights:
        return ValueError(f"duplicate vertex id {vid!r}")
    if not isinstance(w, int) or isinstance(w, bool) or w < 0:
        return ValueError(f"weight of {vid!r} must be a non-negative integer")
    return None


def _edge_entry(eid, ends, length, weights: Dict[str, int],
                edges: Dict[str, Tuple[str, str, Fraction]]):
    """The table entry ``(u, v, ℓ)`` of an edge that follows the given
    vertices and edges, checked as the curve constructor checks it; the
    error it raises is returned in place of the entry.  A `Fraction`
    length is taken as it is."""
    if not isinstance(eid, str) or not eid:
        return ValueError(f"edge id must be a non-empty string: {eid!r}")
    if eid in edges:
        return ValueError(f"duplicate edge id {eid!r}")
    try:
        u, v = ends
    except ValueError as exc:
        return exc
    if u not in weights or v not in weights:
        return ValueError(f"edge {eid!r} has unknown endpoint")
    ell = length if isinstance(length, Fraction) else rat(length)
    if ell.numerator <= 0:   # one int test, not a Fraction comparison
        return ValueError(f"edge {eid!r} must have positive length")
    return u, v, ell


class TropicalCurve:
    """Connected weighted metric multigraph.

    Values are immutable after construction; every transformation returns a
    new curve.  Vertex and edge iteration order is the insertion order of the
    constructor arguments, which keeps downstream computations deterministic.

    Two caches ride on a curve and never change its value, equality or hash:
    vertex distances per source (``_dist_cache``), and one slot,
    ``_lattice_slot``, with the last integer lattice built on it.  The slot
    is keyed by the lattice's scale and interior cuts and replaced when a
    model with another key is built (see `models.IntegerModel`).  It holds
    only curve-free data, so it makes no reference cycle with the curve.
    The vertex `Point`s that `point` hands out are kept as well
    (``_vpoints``), one per vertex, so that vertex points are shared.
    """

    def __init__(
        self,
        vertices: Union[Mapping[str, int], Iterable[Tuple[str, int]]],
        edges: Iterable[Tuple[str, Tuple[str, str], RatLike]] = (),
    ):
        if isinstance(vertices, Mapping):
            vitems = list(vertices.items())
        else:
            vitems = list(vertices)
        weights: Dict[str, int] = {}
        for vid, w in vitems:
            fault = _vertex_fault(vid, w, weights)
            if fault is not None:
                raise fault
            weights[vid] = w
        if not weights:
            raise ValueError("curve needs at least one vertex")

        edge_table: Dict[str, Tuple[str, str, Fraction]] = {}
        for eid, ends, length in edges:
            entry = _edge_entry(eid, ends, length, weights, edge_table)
            if isinstance(entry, ValueError):
                raise entry
            edge_table[eid] = entry
        self._build(weights, edge_table)

    @classmethod
    def _of_tables(cls, weights: Dict[str, int],
                   edges: Dict[str, Tuple[str, str, Fraction]]) -> "TropicalCurve":
        """The curve of tables that are checked as the public constructor
        checks its arguments: a non-empty dict of vertex weights, and a dict
        ``eid -> (u, v, length)`` of edges between those vertices with
        positive `Fraction` lengths.  Only connectivity is checked here.
        The curve takes both dicts over; `io.curve_from_json` builds them."""
        curve = cls.__new__(cls)
        curve._build(weights, edges)
        return curve

    def _build(self, weights: Dict[str, int],
               edges: Dict[str, Tuple[str, str, Fraction]]):
        """Take over the checked tables, build the adjacency lists and the
        empty caches, and check that the curve is connected."""
        self._weights = weights
        self._edges = edges
        self._adj: Dict[str, List[Tuple[str, str]]] = {v: [] for v in weights}
        for eid, (u, v, _) in edges.items():
            # a loop is listed twice at its vertex
            self._adj[u].append((eid, v))
            self._adj[v].append((eid, u))
        self._check_connected()
        self._vpoints: Dict[str, Point] = {}
        self._dist_cache: Dict[str, Dict[str, Fraction]] = {}
        # the last integer lattice built on this curve, as (key, curve-free
        # fields); see `models.IntegerModel`
        self._lattice_slot: Optional[Tuple[tuple, dict]] = None

    def _check_connected(self):
        first = next(iter(self._weights))
        seen = {first}
        stack = [first]
        while stack:
            for _, w in self._adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(self._weights):
            raise ValueError("curve must be connected")

    # -- inspection ------------------------------------------------------

    def vertices(self) -> List[str]:
        return list(self._weights)

    def edges(self) -> List[str]:
        return list(self._edges)

    def weight(self, v: str) -> int:
        return self._weights[v]

    def weights(self) -> Dict[str, int]:
        return dict(self._weights)

    def has_vertex(self, v: str) -> bool:
        return v in self._weights

    def has_edge(self, e: str) -> bool:
        return e in self._edges

    def ends(self, e: str) -> Tuple[str, str]:
        u, v, _ = self._edges[e]
        return u, v

    def length(self, e: str) -> Fraction:
        return self._edges[e][2]

    def is_loop(self, e: str) -> bool:
        u, v, _ = self._edges[e]
        return u == v

    def incident(self, v: str) -> List[Tuple[str, str]]:
        """(edge id, other endpoint) pairs; loops appear twice."""
        return list(self._adj[v])

    def degree(self, v: str) -> int:
        return len(self._adj[v])

    def betti(self) -> int:
        return len(self._edges) - len(self._weights) + 1

    def total_weight(self) -> int:
        return sum(self._weights.values())

    # -- points ----------------------------------------------------------

    def point(self, spec, offset: Optional[RatLike] = None) -> Point:
        """Canonical point: a `Point`, a vertex id, or (edge id, offset), with
        endpoint offsets collapsed to the corresponding vertex.  This is the
        one place that canonicalizes points; an interior `Point` that is
        already canonical (a known edge with a `Fraction` offset strictly
        inside it) is returned as it is.

        Vertex points are shared: the first `Point` of a vertex that this
        returns is kept, and every later vertex point it returns for that
        vertex, endpoint collapses included, is that object.  It is made on
        first use, not when the curve is built, so a curve that is never
        asked for a point allocates none."""
        if offset is None and isinstance(spec, str):
            p = self._vpoints.get(spec)
            if p is not None:
                return p
            if spec not in self._weights:
                raise ValueError(f"unknown vertex {spec!r}")
            return self._vertex_point(spec)
        if isinstance(spec, Point):
            if spec.is_vertex:
                if spec.vertex not in self._weights:
                    raise ValueError(f"unknown vertex {spec.vertex!r}")
                return self._vpoints.setdefault(spec.vertex, spec)
            spec, offset, pt = spec.edge, spec.offset, spec
            if (isinstance(spec, str) and spec in self._edges
                    and isinstance(offset, Fraction)
                    and 0 < offset < self._edges[spec][2]):
                return pt   # already canonical
        elif offset is None:
            raise ValueError(f"unknown vertex {spec!r}")
        if not isinstance(spec, str) or spec not in self._edges:
            raise ValueError(f"unknown edge {spec!r}")
        u, v, ell = self._edges[spec]
        off = offset if isinstance(offset, Fraction) else rat(offset)
        if 0 < off < ell:
            return Point(edge=spec, offset=off)
        if off == 0:
            return self._vertex_point(u)
        if off == ell:
            return self._vertex_point(v)
        raise ValueError(f"offset {off} outside [0, {ell}] on edge {spec!r}")

    def _vertex_point(self, v: str) -> Point:
        p = self._vpoints.get(v)
        if p is None:
            p = self._vpoints[v] = Point(vertex=v)
        return p

    # -- metric ----------------------------------------------------------

    def vertex_distances(self, source: str) -> Dict[str, Fraction]:
        """Exact shortest-path distances from a vertex to every vertex."""
        if source not in self._dist_cache:
            self._dist_cache[source] = self._dijkstra({source: Fraction(0)})
        return self._dist_cache[source]

    def _dijkstra(self, sources: Mapping[str, Fraction]) -> Dict[str, Fraction]:
        """Exact distances to every vertex from sources that start at the
        given distances (Dijkstra with several sources)."""
        dist = dict(sources)
        heap = [(d, v) for v, d in dist.items()]
        heapq.heapify(heap)
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            for eid, w in self._adj[v]:
                nd = d + self._edges[eid][2]
                if w not in dist or nd < dist[w]:
                    dist[w] = nd
                    heapq.heappush(heap, (nd, w))
        return dist

    def _legs(self, p: Point) -> Dict[str, Fraction]:
        """Distance from p to each endpoint of its edge along that edge."""
        if p.is_vertex:
            return {p.vertex: Fraction(0)}
        u, v, ell = self._edges[p.edge]
        legs = {u: p.offset}
        other = ell - p.offset
        legs[v] = min(legs[v], other) if v in legs else other
        return legs

    def distance(self, p, q) -> Fraction:
        """Exact shortest-path distance between two points."""
        p, q = self.point(p), self.point(q)
        best: Optional[Fraction] = None
        if not p.is_vertex and not q.is_vertex and p.edge == q.edge:
            best = abs(p.offset - q.offset)
        lp, lq = self._legs(p), self._legs(q)
        for a, da in lp.items():
            dist_a = self.vertex_distances(a)
            for b, db in lq.items():
                cand = da + dist_a[b] + db
                if best is None or cand < best:
                    best = cand
        return best

    # -- derived curves ---------------------------------------------------

    def with_weights(self, weights: Mapping[str, int]) -> "TropicalCurve":
        new = {v: weights.get(v, 0) for v in self._weights}
        return TropicalCurve(new, [(e, (u, v), ell) for e, (u, v, ell) in self._edges.items()])

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, TropicalCurve):
            return NotImplemented
        return self._weights == other._weights and self._edges == other._edges

    def __hash__(self):
        return hash((tuple(self._weights.items()), tuple(self._edges.items())))

    def __repr__(self):
        return (
            f"TropicalCurve({len(self._weights)} vertices, {len(self._edges)} edges, "
            f"genus {genus(self)})"
        )


def genus(curve: TropicalCurve) -> int:
    """g(Γ) = |E| − |V| + 1 + Σ w(v)."""
    return curve.betti() + curve.total_weight()


def underlying_pure(curve: TropicalCurve) -> TropicalCurve:
    """The same metric graph with all weights set to zero."""
    return curve.with_weights({})


def attach_loops(curve: TropicalCurve, eps: RatLike) -> TropicalCurve:
    """Replace each weight w(v) by w(v) loops of length eps at v.

    The result is a pure curve of the same genus.
    """
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    edges = [(e, (u, v), ell) for e, (u, v, ell) in curve._edges.items()]
    for v in curve.vertices():
        for i in range(curve.weight(v)):
            edges.append((f"{v}!loop{i}", (v, v), eps))
    return TropicalCurve({v: 0 for v in curve.vertices()}, edges)


# -- point maps ------------------------------------------------------------


class PointMap:
    """Piecewise-affine map of points between two curves.

    ``vertex_images`` sends each source vertex to a target point.
    ``edge_rules`` sends each source edge to a list of interval rules
    ``(a, b, target_edge_or_None, ta, tb)``: offsets in [a, b] map affinely
    onto [ta, tb] of the target edge (tb < ta flips orientation); a rule with
    target ``None`` collapses the interval to the target point ``ta``.

    Maps are one-way: a map refers to its two curves and to no other map
    that points back, so a dropped curve is freed by reference counting.
    A construction that needs both directions returns two maps.
    """

    def __init__(self, source: TropicalCurve, target: TropicalCurve,
                 vertex_images: Dict[str, Point],
                 edge_rules: Dict[str, List[tuple]]):
        self.source = source
        self.target = target
        self.vertex_images = vertex_images
        self.edge_rules = edge_rules

    def __call__(self, p) -> Point:
        return self._image(self.source.point(p))

    def _image(self, p: Point) -> Point:
        """Image of a canonical source point: the rule loop of every map."""
        if p.is_vertex:
            return self.vertex_images[p.vertex]
        for a, b, te, ta, tb in self.edge_rules[p.edge]:
            if a <= p.offset <= b:
                if te is None:
                    return ta
                t = ta + (tb - ta) * (p.offset - a) / (b - a)
                return self.target.point(te, t)
        raise ValueError(f"offset {p.offset} not covered by rules of edge {p.edge!r}")

    def then(self, other: "PointMap") -> "PointMap":
        """Composite map: apply self, then other (resolved pointwise)."""
        if other.source is not self.target:
            raise ValueError("maps do not compose")
        return _ComposedMap(self, other)


class _ComposedMap(PointMap):
    def __init__(self, first: PointMap, second: PointMap):
        self.source = first.source
        self.target = second.target
        self._first = first
        self._second = second

    def __call__(self, p) -> Point:
        return self._second(self._first(p))


def subdivide(curve: TropicalCurve,
              marks: Iterable) -> Tuple[TropicalCurve, PointMap, PointMap]:
    """Promote interior marks to weight-0 vertices.

    Returns ``(refined, to_refined, to_original)``: the refined curve and
    the point maps old → new and new → old; the metric space is unchanged.
    """
    by_edge: Dict[str, set] = {}
    for m in marks:
        p = curve.point(m)
        if p.is_vertex:
            continue
        by_edge.setdefault(p.edge, set()).add(p.offset)

    vertices = list(curve._weights.items())
    taken = set(curve._weights)
    edge_ids = {e for e in curve.edges() if e not in by_edge}
    edges = []
    fwd_rules: Dict[str, List[tuple]] = {}
    bwd_vmap: Dict[str, Point] = {v: Point(vertex=v) for v in curve.vertices()}
    bwd_rules: Dict[str, List[tuple]] = {}

    for e, (u, v, ell) in curve._edges.items():
        cuts = sorted(by_edge.get(e, []))
        if not cuts:
            edges.append((e, (u, v), ell))
            fwd_rules[e] = [(Fraction(0), ell, e, Fraction(0), ell)]
            bwd_rules[e] = [(Fraction(0), ell, e, Fraction(0), ell)]
            continue
        stops = [Fraction(0)] + cuts + [ell]
        names = [u]
        for off in cuts:
            nid = f"{e}@{off}"
            while nid in taken:
                nid += "'"
            taken.add(nid)
            vertices.append((nid, 0))
            bwd_vmap[nid] = Point(edge=e, offset=off)
            names.append(nid)
        names.append(v)
        rules = []
        for i in range(len(stops) - 1):
            a, b = stops[i], stops[i + 1]
            pid = f"{e}:{i}"
            while pid in edge_ids:
                pid += "'"
            edge_ids.add(pid)
            edges.append((pid, (names[i], names[i + 1]), b - a))
            rules.append((a, b, pid, Fraction(0), b - a))
            bwd_rules[pid] = [(Fraction(0), b - a, e, a, b)]
        fwd_rules[e] = rules

    new_curve = TropicalCurve(vertices, edges)
    fwd_vmap = {v: Point(vertex=v) for v in curve.vertices()}
    return (new_curve, PointMap(curve, new_curve, fwd_vmap, fwd_rules),
            PointMap(new_curve, curve, bwd_vmap, bwd_rules))


def loopless_model(curve: TropicalCurve) -> Tuple[TropicalCurve, PointMap, PointMap]:
    """Split every loop at its midpoint; the result has no loop edges.

    Returns ``(refined, to_refined, to_original)`` as `subdivide` does.
    """
    marks = [
        Point(edge=e, offset=curve.length(e) / 2)
        for e in curve.edges()
        if curve.is_loop(e)
    ]
    return subdivide(curve, marks)


# -- combinatorial types and realizations -----------------------------------


class CombinatorialType:
    """(G, w): a weighted multigraph with a fixed edge order, no lengths.

    The type is held as its reference realization Γ_(1,…,1), so curve
    validation is its only validation and the type reads everything else
    from that curve.
    """

    def __init__(self, vertices: Iterable[Tuple[str, int]],
                 edges: Iterable[Tuple[str, Tuple[str, str]]]):
        self._ones = TropicalCurve(vertices, [(e, uv, 1) for e, uv in edges])

    @property
    def weights(self) -> Dict[str, int]:
        return self._ones.weights()

    @property
    def edge_ends(self) -> Dict[str, Tuple[str, str]]:
        return {e: self._ones.ends(e) for e in self._ones.edges()}

    @property
    def edge_order(self) -> List[str]:
        return self._ones.edges()

    def vertices(self) -> List[str]:
        return self._ones.vertices()

    def genus(self) -> int:
        return genus(self._ones)

    def ones(self) -> TropicalCurve:
        """The reference realization with every edge of length 1."""
        return self._ones

    def cone_vector(self, s) -> List[Fraction]:
        """Validate and order a length assignment (sequence or mapping)."""
        order = self.edge_order
        if isinstance(s, Mapping):
            for e in s:
                if not self._ones.has_edge(e):
                    raise ValueError(f"unknown edge {e!r} in cone vector")
            for e in order:
                if e not in s:
                    raise ValueError(f"cone vector has no length for edge {e!r}")
            vals = [rat(s[e]) for e in order]
        else:
            vals = [rat(x) for x in s]
            if len(vals) != len(order):
                raise ValueError(
                    f"expected {len(order)} entries, got {len(vals)}")
        if any(x < 0 for x in vals):
            raise ValueError("cone vector entries must be >= 0")
        return vals

    def __eq__(self, other):
        if not isinstance(other, CombinatorialType):
            return NotImplemented
        return self._ones == other._ones

    def __repr__(self):
        return (f"CombinatorialType({len(self._ones.vertices())} vertices, "
                f"{len(self._ones.edges())} edges, genus {self.genus()})")


def _collapse(source: TropicalCurve,
              vals: Sequence[Fraction]) -> Tuple[TropicalCurve, PointMap]:
    """Give the edges of `source` the lengths `vals` (in edge order),
    contracting the zero ones, and return the curve with the map from
    `source`; the one builder behind `realize`, `rescale` and `contract`.

    Each contracted component collapses to its lexicographically smallest
    vertex id, whose weight becomes the sum of the collapsed weights plus the
    first Betti number of the collapsed subgraph (so genus is preserved).
    Every point of a contracted edge goes to the image of its first end; a
    point at offset t of a kept edge of length ℓ and new length x goes to
    offset t·x/ℓ.
    """
    order = source.edges()
    zero = [e for e, x in zip(order, vals) if x == 0]

    # union by smallest id, so every root is the smallest id of its component
    rep: Dict[str, str] = {v: v for v in source.vertices()}

    def find(v):
        while rep[v] != v:
            rep[v] = rep[rep[v]]
            v = rep[v]
        return v

    for e in zero:
        ru, rv = (find(v) for v in source.ends(e))
        rep[max(ru, rv)] = min(ru, rv)
    for v in rep:
        rep[v] = find(v)

    # a component of k vertices and z contracted edges has b1 = z − k + 1
    weights = {v: 1 for v in rep if rep[v] == v}
    for v in rep:
        weights[rep[v]] += source.weight(v) - 1
    for e in zero:
        weights[rep[source.ends(e)[0]]] += 1

    target = TropicalCurve(weights, [
        (e, (rep[source.ends(e)[0]], rep[source.ends(e)[1]]), x)
        for e, x in zip(order, vals) if x != 0])
    vmap = {v: Point(vertex=rep[v]) for v in rep}
    rules: Dict[str, List[tuple]] = {}
    for e, x in zip(order, vals):
        ell = source.length(e)
        if x == 0:
            rules[e] = [(Fraction(0), ell, None, vmap[source.ends(e)[0]], None)]
        else:
            rules[e] = [(Fraction(0), ell, e, Fraction(0), x)]
    return target, PointMap(source, target, vmap, rules)


def realize(ctype: CombinatorialType, s) -> Tuple[TropicalCurve, PointMap]:
    """Assign lengths s to the type's edges, contracting the zero ones.

    Returns the curve Γ_s and the map β from the all-ones realization
    ``ctype.ones()``; see `_collapse` for the contraction.
    """
    return _collapse(ctype.ones(), ctype.cone_vector(s))


def rescale(ctype: CombinatorialType, s) -> Tuple[TropicalCurve, PointMap]:
    """`realize` for lengths s that are all positive: the curve of the given
    type with lengths s, and the scaling map from the all-ones realization."""
    vals = ctype.cone_vector(s)
    if any(x == 0 for x in vals):
        raise ValueError("rescale needs strictly positive lengths; use realize")
    return realize(ctype, vals)


def contract(curve: TropicalCurve, edge_ids: Iterable[str]) -> Tuple[TropicalCurve, PointMap]:
    """Contract the listed edges of a curve; other lengths are kept.

    Returns the contracted curve and the point map from `curve` itself.
    """
    if isinstance(edge_ids, str):
        raise TypeError(f"edge_ids must be a collection of ids, "
                        f"not the string {edge_ids!r}")
    dead = set()
    for e in edge_ids:
        if not curve.has_edge(e):
            raise ValueError(f"unknown edge {e!r}")
        dead.add(e)
    return _collapse(curve, [Fraction(0) if e in dead else curve.length(e)
                             for e in curve.edges()])


# -- subcurves ---------------------------------------------------------------


class Subcurve:
    """A closed connected sub-metric-space of a curve.

    One encoding: ``vertices``, the curve vertices on the subcurve, and
    ``intervals``, a dict sorted by edge that maps every edge the subcurve
    meets to its covered closed intervals ``(a, b)``, merged and ascending.
    A whole edge is ``((0, ℓ),)``, and ``a == b`` is an isolated interior
    point.  The constructor takes whole edges and segments ``[a, b]`` alike:
    it merges overlapping intervals, adds the endpoint of every interval
    that reaches 0 or ℓ (closure), and verifies connectivity.  The
    read-only views ``whole_edges`` and ``segments`` split the intervals
    into entire edges and the rest, for JSON.
    """

    def __init__(self, parent: TropicalCurve, vertices: Iterable[str] = (),
                 whole_edges: Iterable[str] = (), segments: Optional[Mapping] = None):
        for name, ids in (("vertices", vertices), ("whole_edges", whole_edges)):
            if isinstance(ids, str):
                raise TypeError(f"{name} must be a collection of ids, "
                                f"not the string {ids!r}")
        self.parent = parent
        vset = set()
        for v in vertices:
            if not parent.has_vertex(v):
                raise ValueError(f"unknown vertex {v!r}")
            vset.add(v)
        raw: Dict[str, List[Tuple[Fraction, Fraction]]] = {}
        for e in whole_edges:
            if not parent.has_edge(e):
                raise ValueError(f"unknown edge {e!r}")
            raw.setdefault(e, []).append((Fraction(0), parent.length(e)))
        for e, ivs in (segments or {}).items():
            if not parent.has_edge(e):
                raise ValueError(f"unknown edge {e!r}")
            ell = parent.length(e)
            for a, b in ivs:
                a, b = rat(a), rat(b)
                if a > b:
                    a, b = b, a
                if a < 0 or b > ell:
                    raise ValueError(f"segment [{a},{b}] outside edge {e!r}")
                raw.setdefault(e, []).append((a, b))

        self.intervals: Dict[str, Tuple[Tuple[Fraction, Fraction], ...]] = {}
        for e in sorted(raw):
            u, v = parent.ends(e)
            ell = parent.length(e)
            merged: List[Tuple[Fraction, Fraction]] = []
            for a, b in sorted(raw[e]):
                if merged and a <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], b))
                else:
                    merged.append((a, b))
            # closure: an interval reaching an end pulls in that vertex, and
            # an interval that is only that vertex goes
            if merged[0][0] == 0:
                vset.add(u)
            if merged[-1][1] == ell:
                vset.add(v)
            kept = tuple((a, b) for a, b in merged if a < b or 0 < a < ell)
            if kept:
                self.intervals[e] = kept
        if not vset and not self.intervals:
            raise ValueError("empty subcurve")
        self.vertices = frozenset(vset)
        self._check_connected()

    @classmethod
    def whole(cls, parent: TropicalCurve) -> "Subcurve":
        return cls(parent, parent.vertices(), parent.edges())

    def _check_connected(self):
        """Join each interval to the vertices it reaches; one class must remain."""
        par: Dict[object, object] = {v: v for v in self.vertices}

        def find(x):
            while par[x] != x:
                par[x] = par[par[x]]
                x = par[x]
            return x

        for e, ivs in self.intervals.items():
            u, v = self.parent.ends(e)
            ell = self.parent.length(e)
            for a, b in ivs:
                piece = (e, a)
                par[piece] = piece
                if a == 0:
                    par[find(piece)] = find(u)
                if b == ell:
                    par[find(piece)] = find(v)
        if len({find(x) for x in list(par)}) != 1:
            raise ValueError("subcurve is not connected")

    # -- views for JSON --------------------------------------------------

    def _is_whole(self, e: str) -> bool:
        return self.intervals.get(e) == ((0, self.parent.length(e)),)

    @property
    def whole_edges(self) -> frozenset:
        """Edges covered entirely."""
        return frozenset(e for e in self.intervals if self._is_whole(e))

    @property
    def segments(self) -> Dict[str, Tuple[Tuple[Fraction, Fraction], ...]]:
        """Intervals of the edges not covered entirely, sorted by edge."""
        return {e: ivs for e, ivs in self.intervals.items() if not self._is_whole(e)}

    # -- membership ------------------------------------------------------

    def covered_intervals(self, e: str) -> List[Tuple[Fraction, Fraction]]:
        return list(self.intervals.get(e, ()))

    def contains_point(self, p) -> bool:
        return self._contains(self.parent.point(p))

    def _contains(self, p: Point) -> bool:
        """`contains_point` for a point that is canonical on the parent."""
        if p.is_vertex:
            return p.vertex in self.vertices
        for a, b in self.covered_intervals(p.edge):
            if a <= p.offset <= b:
                return True
        return False

    def contains_subcurve(self, other: "Subcurve") -> bool:
        if other.parent is not self.parent and other.parent != self.parent:
            return False
        return other.vertices <= self.vertices and all(
            any(x <= a and b <= y for x, y in self.intervals.get(e, ()))
            for e, ivs in other.intervals.items() for a, b in ivs)

    def exits(self) -> List[Tuple[str, Fraction, int]]:
        """Directions that leave the subcurve, as (edge, offset, ±1).

        The base is the point at that offset of the edge (a vertex at 0 or
        ℓ), and +1 points toward larger offsets.  Bases come vertices first,
        sorted, each with its edges sorted; then interval ends, edge by edge.
        """
        cands = []
        for v in sorted(self.vertices):
            for e in sorted({e for e, _ in self.parent.incident(v)}):
                u, w = self.parent.ends(e)
                if u == v:
                    cands.append((e, Fraction(0), 1))
                if w == v:
                    cands.append((e, self.parent.length(e), -1))
        for e, ivs in self.intervals.items():
            ell = self.parent.length(e)
            for t in dict.fromkeys(t for iv in ivs for t in iv if 0 < t < ell):
                cands += [(e, t, 1), (e, t, -1)]

        def leaves(e, t, d):
            ivs = self.intervals.get(e, ())
            if d > 0:
                return not any(a <= t < b for a, b in ivs)
            return not any(a < t <= b for a, b in ivs)

        return [x for x in cands if leaves(*x)]

    def boundary_points(self) -> List[Point]:
        """Points of the subcurve with a curve-direction leaving it."""
        return list(dict.fromkeys(self.parent.point(e, t) for e, t, _ in self.exits()))

    def betti(self) -> int:
        """First Betti number of the subcurve as a topological graph."""
        nodes = set(self.vertices)
        edges = 0
        for e, ivs in self.intervals.items():
            u, v = self.parent.ends(e)
            ell = self.parent.length(e)
            for a, b in ivs:
                nodes.add(u if a == 0 else (e, a))
                nodes.add(v if b == ell else (e, b))
                if a < b:
                    edges += 1
        return edges - len(nodes) + 1

    def genus(self) -> int:
        """Weighted genus: Betti number plus weights of contained vertices."""
        return self.betti() + sum(self.parent.weight(v) for v in self.vertices)

    def grown(self, intervals: Mapping) -> "Subcurve":
        """The subcurve plus the given per-edge intervals."""
        segs: Dict[str, list] = {e: list(ivs) for e, ivs in self.intervals.items()}
        for e, ivs in intervals.items():
            segs.setdefault(e, []).extend(ivs)
        return Subcurve(self.parent, self.vertices, segments=segs)

    def is_whole_curve(self) -> bool:
        return (self.vertices == frozenset(self.parent.vertices())
                and all(self._is_whole(e) for e in self.parent.edges()))

    # -- extraction ------------------------------------------------------

    def as_curve(self) -> Tuple[TropicalCurve, "_PartialBack"]:
        """Extract the subcurve as a standalone curve.

        Returns ``(curve, pull)`` where ``pull`` maps the parent's points on
        the subcurve to the extracted curve and refuses any other point.
        Whole edges come first and keep their ids; an interval [a, b] of
        edge e that is not all of it becomes ``e[a..b]``, and a point at
        offset t of it lands at offset t − a.
        """
        vertices: List[Tuple[str, int]] = [
            (v, self.parent.weight(v)) for v in self.parent.vertices()
            if v in self.vertices]
        taken = {v for v, _ in vertices}
        names: Dict[Tuple[str, Fraction], str] = {}

        def node(e, off):
            u, v = self.parent.ends(e)
            if off == 0:
                return u
            if off == self.parent.length(e):
                return v
            if (e, off) not in names:
                nid = f"{e}@{off}"
                while nid in taken:
                    nid += "'"
                taken.add(nid)
                names[(e, off)] = nid
                vertices.append((nid, 0))
            return names[(e, off)]

        edges = []
        used = set()
        back_rules: Dict[str, List[tuple]] = {}
        for e, ivs in sorted(self.intervals.items(),
                             key=lambda item: not self._is_whole(item[0])):
            rules = []
            for a, b in ivs:
                if a == b:
                    rules.append((a, a, None, Point(vertex=node(e, a)), None))
                    continue
                eid = e if self._is_whole(e) else f"{e}[{a}..{b}]"
                while eid in used:
                    eid += "'"
                used.add(eid)
                edges.append((eid, (node(e, a), node(e, b)), b - a))
                rules.append((a, b, eid, Fraction(0), b - a))
            back_rules[e] = rules

        sub = TropicalCurve(vertices, edges)
        return sub, _PartialBack(self.parent, sub, self,
                                 {v: Point(vertex=v) for v in self.vertices}, back_rules)

    def diameter(self) -> Fraction:
        """Largest parent-metric distance between two points of the subcurve."""
        from . import models

        return models.subcurve_diameter(self)

    def __eq__(self, other):
        if not isinstance(other, Subcurve):
            return NotImplemented
        return (self.parent == other.parent and self.vertices == other.vertices
                and self.intervals == other.intervals)

    def __repr__(self):
        nseg = sum(len(v) for v in self.segments.values())
        return (f"Subcurve({len(self.vertices)} vertices, "
                f"{len(self.whole_edges)} whole edges, {nseg} segments)")


class _PartialBack(PointMap):
    """Parent → extracted curve of `Subcurve.as_curve`: defined only on
    the subcurve's points."""

    def __init__(self, source, target, subcurve, vertex_images, edge_rules):
        super().__init__(source, target, vertex_images, edge_rules)
        self._subcurve = subcurve

    def __call__(self, p) -> Point:
        p = self.source.point(p)
        if not self._subcurve._contains(p):
            raise ValueError(f"{p} lies outside the subcurve")
        return self._image(p)


def neighborhood(curve: TropicalCurve, lam: Subcurve, delta: RatLike) -> Subcurve:
    """Closed delta-neighborhood N_delta(Λ) as a subcurve."""
    delta = rat(delta)
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if lam.parent is not curve and lam.parent != curve:
        raise ValueError("subcurve belongs to a different curve")

    # distance from every vertex to Λ
    sources: Dict[str, Fraction] = {v: Fraction(0) for v in lam.vertices}
    for e, ivs in lam.intervals.items():
        u, v = curve.ends(e)
        for vtx, d0 in ((u, ivs[0][0]), (v, curve.length(e) - ivs[-1][1])):
            if vtx not in sources or d0 < sources[vtx]:
                sources[vtx] = d0
    dist = curve._dijkstra(sources)

    # the constructor merges the grown intervals and promotes full covers
    segs: Dict[str, list] = {}
    for e in curve.edges():
        u, v = curve.ends(e)
        ell = curve.length(e)
        grown = [(max(Fraction(0), a - delta), min(ell, b + delta))
                 for a, b in lam.covered_intervals(e)]
        du, dv = dist.get(u), dist.get(v)
        if du is not None and delta - du >= 0:
            grown.append((Fraction(0), min(ell, delta - du)))
        if dv is not None and delta - dv >= 0:
            grown.append((max(Fraction(0), ell - (delta - dv)), ell))
        if grown:
            segs[e] = grown
    vset = {v for v, d in dist.items() if d <= delta}
    return Subcurve(curve, vset, segments=segs)


def deformation_retracts(n: Subcurve, lam: Subcurve) -> bool:
    """True iff n deformation-retracts onto lam.

    Both subcurves are connected, so each component C of the closure of
    n minus lam meets lam in k >= 1 points and adds b1(C) + k - 1 >= 0 to
    b1(n).  The Betti numbers are therefore equal exactly when every such
    component is a tree meeting lam in one point, which is the retraction.
    """
    return n.contains_subcurve(lam) and n.betti() == lam.betti()
