"""Weighted tropical curves: metric multigraphs with vertex weights.

A curve is a connected multigraph (loops and parallel edges allowed) with a
non-negative integer weight on each vertex and a positive rational length on
each edge.  All geometry is exact: offsets, lengths and distances are
`fractions.Fraction` values, never floats.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

RatLike = Union[Fraction, int, str]


def rat(x: RatLike) -> Fraction:
    """Coerce ints, strings like '3/2', and Fractions to an exact rational.

    Anything else, and a string with a zero denominator, is a ValueError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            pass
    raise ValueError(f"not a rational: {x!r}")


@dataclass(frozen=True)
class Point:
    """A location on a curve: a vertex, or an interior position on an edge.

    Interior offsets are measured from the edge's first endpoint and lie
    strictly between 0 and the edge length.  Use ``TropicalCurve.point`` to
    build canonicalized points (endpoint offsets collapse to vertices).
    """

    vertex: Optional[str] = None
    edge: Optional[str] = None
    offset: Optional[Fraction] = None

    def __post_init__(self):
        if (self.vertex is None) == (self.edge is None):
            raise ValueError("point is either a vertex or an edge interior")
        if self.edge is not None and self.offset is None:
            raise ValueError("interior point needs an offset")

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None

    def __repr__(self):
        if self.is_vertex:
            return f"Point({self.vertex!r})"
        return f"Point({self.edge!r}@{self.offset})"


class TropicalCurve:
    """Connected weighted metric multigraph.

    Values are immutable after construction; every transformation returns a
    new curve.  Vertex and edge iteration order is the insertion order of the
    constructor arguments, which keeps downstream computations deterministic.
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
        self._weights: Dict[str, int] = {}
        for vid, w in vitems:
            if not isinstance(vid, str) or not vid:
                raise ValueError(f"vertex id must be a non-empty string: {vid!r}")
            if vid in self._weights:
                raise ValueError(f"duplicate vertex id {vid!r}")
            if not isinstance(w, int) or w < 0:
                raise ValueError(f"weight of {vid!r} must be a non-negative integer")
            self._weights[vid] = w
        if not self._weights:
            raise ValueError("curve needs at least one vertex")

        self._edges: Dict[str, Tuple[str, str, Fraction]] = {}
        self._adj: Dict[str, List[Tuple[str, str]]] = {v: [] for v in self._weights}
        for eid, ends, length in edges:
            if not isinstance(eid, str) or not eid:
                raise ValueError(f"edge id must be a non-empty string: {eid!r}")
            if eid in self._edges:
                raise ValueError(f"duplicate edge id {eid!r}")
            u, v = ends
            if u not in self._weights or v not in self._weights:
                raise ValueError(f"edge {eid!r} has unknown endpoint")
            ell = rat(length)
            if ell <= 0:
                raise ValueError(f"edge {eid!r} must have positive length")
            self._edges[eid] = (u, v, ell)
            self._adj[u].append((eid, v))
            if u != v:
                self._adj[v].append((eid, u))
            else:
                self._adj[u].append((eid, u))

        self._check_connected()
        self._dist_cache: Dict[str, Dict[str, Fraction]] = {}

    def _check_connected(self):
        seen = set()
        stack = [next(iter(self._weights))]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            for _, w in self._adj[v]:
                if w not in seen:
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

    def total_length(self) -> Fraction:
        return sum((ell for _, _, ell in self._edges.values()), Fraction(0))

    # -- points ----------------------------------------------------------

    def point(self, spec, offset: Optional[RatLike] = None) -> Point:
        """Canonical point: vertex id, or (edge id, offset) with endpoint
        offsets collapsed to the corresponding vertex."""
        if isinstance(spec, Point):
            return self._canon(spec)
        if offset is None:
            if spec not in self._weights:
                raise ValueError(f"unknown vertex {spec!r}")
            return Point(vertex=spec)
        if spec not in self._edges:
            raise ValueError(f"unknown edge {spec!r}")
        u, v, ell = self._edges[spec]
        off = rat(offset)
        if off < 0 or off > ell:
            raise ValueError(f"offset {off} outside [0, {ell}] on edge {spec!r}")
        if off == 0:
            return Point(vertex=u)
        if off == ell:
            return Point(vertex=v)
        return Point(edge=spec, offset=off)

    def _canon(self, p: Point) -> Point:
        if p.is_vertex:
            if p.vertex not in self._weights:
                raise ValueError(f"unknown vertex {p.vertex!r}")
            return p
        return self.point(p.edge, p.offset)

    def point_weight(self, p: Point) -> int:
        """Vertex weight at p; interior points weigh 0."""
        p = self._canon(p)
        return self._weights[p.vertex] if p.is_vertex else 0

    # -- metric ----------------------------------------------------------

    def vertex_distances(self, source: str) -> Dict[str, Fraction]:
        """Exact shortest-path distances from a vertex to every vertex."""
        if source in self._dist_cache:
            return self._dist_cache[source]
        dist: Dict[str, Fraction] = {source: Fraction(0)}
        heap = [(Fraction(0), source)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            for eid, w in self._adj[v]:
                nd = d + self._edges[eid][2]
                if w not in dist or nd < dist[w]:
                    dist[w] = nd
                    heapq.heappush(heap, (nd, w))
        self._dist_cache[source] = dist
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
        p = self.point(p) if not isinstance(p, Point) else self._canon(p)
        q = self.point(q) if not isinstance(q, Point) else self._canon(q)
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

    def combinatorial_type(self) -> "CombinatorialType":
        return CombinatorialType(
            list(self._weights.items()),
            [(e, (u, v)) for e, (u, v, _) in self._edges.items()],
        )

    def __eq__(self, other):
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
    """

    def __init__(self, source: TropicalCurve, target: TropicalCurve,
                 vertex_images: Dict[str, Point],
                 edge_rules: Dict[str, List[tuple]],
                 inverse: Optional["PointMap"] = None):
        self.source = source
        self.target = target
        self.vertex_images = vertex_images
        self.edge_rules = edge_rules
        self.inverse = inverse

    @classmethod
    def identity(cls, curve: TropicalCurve) -> "PointMap":
        vmap = {v: Point(vertex=v) for v in curve.vertices()}
        rules = {
            e: [(Fraction(0), curve.length(e), e, Fraction(0), curve.length(e))]
            for e in curve.edges()
        }
        m = cls(curve, curve, vmap, rules)
        m.inverse = m
        return m

    def __call__(self, p) -> Point:
        p = self.source.point(p) if not isinstance(p, Point) else self.source._canon(p)
        if p.is_vertex:
            return self.vertex_images[p.vertex]
        for a, b, te, ta, tb in self.edge_rules[p.edge]:
            if a <= p.offset <= b:
                if te is None:
                    return ta if isinstance(ta, Point) else Point(vertex=ta)
                if b == a:
                    return self.target.point(te, ta)
                t = ta + (tb - ta) * (p.offset - a) / (b - a)
                return self.target.point(te, t)
        raise ValueError(f"offset {p.offset} not covered by rules of edge {p.edge!r}")

    def then(self, other: "PointMap") -> "PointMap":
        """Composite map: apply self, then other (resolved pointwise)."""
        if other.source is not self.target:
            raise ValueError("maps do not compose")
        return _ComposedMap(self, other)


class _ComposedMap(PointMap):
    def __init__(self, first: PointMap, second: PointMap,
                 inverse: Optional[PointMap] = None):
        self.source = first.source
        self.target = second.target
        self._first = first
        self._second = second
        self.inverse = inverse
        if inverse is None and first.inverse is not None and second.inverse is not None:
            self.inverse = _ComposedMap(second.inverse, first.inverse, inverse=self)

    def __call__(self, p) -> Point:
        return self._second(self._first(p))


def subdivide(curve: TropicalCurve, marks: Iterable) -> Tuple[TropicalCurve, PointMap]:
    """Promote interior marks to weight-0 vertices.

    Returns the refined curve and the point map old → new (with inverse set);
    the metric space is unchanged.
    """
    by_edge: Dict[str, set] = {}
    for m in marks:
        p = curve.point(m) if not isinstance(m, Point) else curve._canon(m)
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
    fwd = PointMap(curve, new_curve, fwd_vmap, fwd_rules)
    bwd = PointMap(new_curve, curve, bwd_vmap, bwd_rules, inverse=fwd)
    fwd.inverse = bwd
    return new_curve, fwd


def loopless_model(curve: TropicalCurve) -> Tuple[TropicalCurve, PointMap]:
    """Split every loop at its midpoint; the result has no loop edges."""
    marks = [
        Point(edge=e, offset=curve.length(e) / 2)
        for e in curve.edges()
        if curve.is_loop(e)
    ]
    return subdivide(curve, marks)


# -- combinatorial types and realizations -----------------------------------


class CombinatorialType:
    """(G, w): a weighted multigraph with a fixed edge order, no lengths."""

    def __init__(self, vertices: Iterable[Tuple[str, int]],
                 edges: Iterable[Tuple[str, Tuple[str, str]]]):
        self.weights: Dict[str, int] = {}
        for vid, w in vertices:
            if vid in self.weights:
                raise ValueError(f"duplicate vertex id {vid!r}")
            if not isinstance(w, int) or w < 0:
                raise ValueError("weights must be non-negative integers")
            self.weights[vid] = w
        self.edge_ends: Dict[str, Tuple[str, str]] = {}
        for eid, (u, v) in edges:
            if eid in self.edge_ends:
                raise ValueError(f"duplicate edge id {eid!r}")
            if u not in self.weights or v not in self.weights:
                raise ValueError(f"edge {eid!r} has unknown endpoint")
            self.edge_ends[eid] = (u, v)
        # validity check: connected when all edges present
        TropicalCurve({v: 0 for v in self.weights},
                      [(e, uv, 1) for e, uv in self.edge_ends.items()])

    @property
    def edge_order(self) -> List[str]:
        return list(self.edge_ends)

    def vertices(self) -> List[str]:
        return list(self.weights)

    def genus(self) -> int:
        b1 = len(self.edge_ends) - len(self.weights) + 1
        return b1 + sum(self.weights.values())

    def ones(self) -> TropicalCurve:
        """The reference realization with every edge of length 1."""
        return rescale(self, [1] * len(self.edge_ends))[0]

    def cone_vector(self, s) -> List[Fraction]:
        """Validate and order a length assignment (sequence or mapping)."""
        order = self.edge_order
        if isinstance(s, Mapping):
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
        return self.weights == other.weights and self.edge_ends == other.edge_ends

    def __repr__(self):
        return (f"CombinatorialType({len(self.weights)} vertices, "
                f"{len(self.edge_ends)} edges, genus {self.genus()})")


def rescale(ctype: CombinatorialType, s) -> Tuple[TropicalCurve, PointMap]:
    """Curve of the given type with lengths s (all positive), and the scaling
    map from the all-ones realization."""
    vals = ctype.cone_vector(s)
    if any(x == 0 for x in vals):
        raise ValueError("rescale needs strictly positive lengths; use realize")
    order = ctype.edge_order
    target = TropicalCurve(
        list(ctype.weights.items()),
        [(e, ctype.edge_ends[e], vals[i]) for i, e in enumerate(order)],
    )
    if all(x == 1 for x in vals):
        return target, PointMap.identity(target)
    source = TropicalCurve(
        list(ctype.weights.items()),
        [(e, ctype.edge_ends[e], 1) for e in order],
    )
    vmap = {v: Point(vertex=v) for v in ctype.weights}
    rules = {
        e: [(Fraction(0), Fraction(1), e, Fraction(0), vals[i])]
        for i, e in enumerate(order)
    }
    bwd_rules = {
        e: [(Fraction(0), vals[i], e, Fraction(0), Fraction(1))]
        for i, e in enumerate(order)
    }
    alpha = PointMap(source, target, vmap, rules)
    alpha.inverse = PointMap(target, source, dict(vmap), bwd_rules, inverse=alpha)
    return target, alpha


def realize(ctype: CombinatorialType, s) -> Tuple[TropicalCurve, PointMap]:
    """Assign lengths s to the type's edges, contracting the zero ones.

    Each contracted component collapses to its lexicographically smallest
    vertex id, whose weight becomes the sum of the collapsed weights plus the
    first Betti number of the collapsed subgraph (so genus is preserved).
    Returns the curve and the map β from the all-ones realization.
    """
    vals = ctype.cone_vector(s)
    order = ctype.edge_order
    zero = {e for i, e in enumerate(order) if vals[i] == 0}

    parent: Dict[str, str] = {v: v for v in ctype.weights}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in zero:
        u, v = ctype.edge_ends[e]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)

    comp: Dict[str, List[str]] = {}
    for v in ctype.weights:
        comp.setdefault(find(v), []).append(v)
    rep = {v: min(comp[find(v)]) for v in ctype.weights}

    new_weights: Dict[str, int] = {}
    for root, members in sorted(comp.items(), key=lambda kv: min(kv[1])):
        rid = min(members)
        wsum = sum(ctype.weights[m] for m in members)
        internal = sum(
            1 for e in zero
            if rep[ctype.edge_ends[e][0]] == rid and rep[ctype.edge_ends[e][1]] == rid
        )
        b1 = internal - (len(members) - 1)
        new_weights[rid] = wsum + b1

    # preserve original vertex order among representatives
    ordered = [(v, new_weights[v]) for v in ctype.weights if rep[v] == v and v in new_weights]
    kept = [
        (e, (rep[ctype.edge_ends[e][0]], rep[ctype.edge_ends[e][1]]), vals[i])
        for i, e in enumerate(order)
        if e not in zero
    ]
    target = TropicalCurve(ordered, kept)

    source = ctype.ones()
    vmap = {v: Point(vertex=rep[v]) for v in ctype.weights}
    rules: Dict[str, List[tuple]] = {}
    for i, e in enumerate(order):
        if e in zero:
            rules[e] = [(Fraction(0), Fraction(1), None,
                         Point(vertex=rep[ctype.edge_ends[e][0]]), None)]
        else:
            rules[e] = [(Fraction(0), Fraction(1), e, Fraction(0), vals[i])]
    beta = PointMap(source, target, vmap, rules)
    return target, beta


def contract(curve: TropicalCurve, edge_ids: Iterable[str]) -> Tuple[TropicalCurve, PointMap]:
    """Contract the listed edges of a curve; other lengths are kept.

    Returns the contracted curve and the point map from `curve` itself.
    """
    ctype = curve.combinatorial_type()
    dead = set(edge_ids)
    for e in dead:
        if not curve.has_edge(e):
            raise ValueError(f"unknown edge {e!r}")
    s = [Fraction(0) if e in dead else curve.length(e) for e in ctype.edge_order]
    target, beta = realize(ctype, s)
    vmap = {v: beta.vertex_images[v] for v in curve.vertices()}
    rules: Dict[str, List[tuple]] = {}
    for e in curve.edges():
        ell = curve.length(e)
        if e in dead:
            rules[e] = [(Fraction(0), ell, None, vmap[curve.ends(e)[0]], None)]
        else:
            rules[e] = [(Fraction(0), ell, e, Fraction(0), ell)]
    return target, PointMap(curve, target, vmap, rules)


# -- subcurves ---------------------------------------------------------------


class Subcurve:
    """A closed connected sub-metric-space of a curve.

    Stored as vertices, whole edges, and per-edge closed segments ``[a, b]``
    (``a == b`` marks an isolated interior point).  The constructor merges
    overlapping segments, promotes full covers to whole edges, adds endpoint
    vertices (closure), and verifies connectivity.
    """

    def __init__(self, parent: TropicalCurve, vertices: Iterable[str] = (),
                 whole_edges: Iterable[str] = (), segments: Optional[Mapping] = None):
        self.parent = parent
        vset = set()
        for v in vertices:
            if not parent.has_vertex(v):
                raise ValueError(f"unknown vertex {v!r}")
            vset.add(v)
        eset = set()
        for e in whole_edges:
            if not parent.has_edge(e):
                raise ValueError(f"unknown edge {e!r}")
            eset.add(e)
        segs: Dict[str, List[Tuple[Fraction, Fraction]]] = {}
        for e, intervals in (segments or {}).items():
            if not parent.has_edge(e):
                raise ValueError(f"unknown edge {e!r}")
            ell = parent.length(e)
            cur = []
            for a, b in intervals:
                a, b = rat(a), rat(b)
                if a > b:
                    a, b = b, a
                if a < 0 or b > ell:
                    raise ValueError(f"segment [{a},{b}] outside edge {e!r}")
                cur.append((a, b))
            if cur:
                segs.setdefault(e, []).extend(cur)

        # merge touching/overlapping intervals per edge
        for e in list(segs):
            if e in eset:
                del segs[e]
                continue
            ivs = sorted(segs[e])
            merged = [ivs[0]]
            for a, b in ivs[1:]:
                la, lb = merged[-1]
                if a <= lb:
                    merged[-1] = (la, max(lb, b))
                else:
                    merged.append((a, b))
            ell = parent.length(e)
            if merged == [(Fraction(0), ell)]:
                eset.add(e)
                del segs[e]
            else:
                segs[e] = merged

        # closure: segment endpoints at 0/ell pull in the vertex; drop the
        # degenerate piece if it became just a vertex
        for e in list(segs):
            u, v = parent.ends(e)
            ell = parent.length(e)
            kept = []
            for a, b in segs[e]:
                if a == 0:
                    vset.add(u)
                if b == ell:
                    vset.add(v)
                if a == b and (a == 0 or a == ell):
                    continue
                kept.append((a, b))
            if kept:
                segs[e] = kept
            else:
                del segs[e]
        for e in eset:
            u, v = parent.ends(e)
            vset.add(u)
            vset.add(v)

        if not vset and not segs:
            raise ValueError("empty subcurve")
        self.vertices = frozenset(vset)
        self.whole_edges = frozenset(eset)
        self.segments: Dict[str, Tuple[Tuple[Fraction, Fraction], ...]] = {
            e: tuple(ivs) for e, ivs in sorted(segs.items())
        }
        self._check_connected()

    @classmethod
    def whole(cls, parent: TropicalCurve) -> "Subcurve":
        return cls(parent, parent.vertices(), parent.edges())

    @classmethod
    def single_point(cls, parent: TropicalCurve, p) -> "Subcurve":
        p = parent.point(p)
        if p.is_vertex:
            return cls(parent, [p.vertex])
        return cls(parent, segments={p.edge: [(p.offset, p.offset)]})

    def _nodes(self):
        """Connectivity atoms: vertices and segment pieces."""
        nodes = [("v", v) for v in sorted(self.vertices)]
        for e, ivs in self.segments.items():
            for iv in ivs:
                nodes.append(("s", e, iv))
        return nodes

    def _check_connected(self):
        nodes = self._nodes()
        if len(nodes) <= 1:
            return
        index = {n: i for i, n in enumerate(nodes)}
        par = list(range(len(nodes)))

        def find(i):
            while par[i] != i:
                par[i] = par[par[i]]
                i = par[i]
            return i

        def union(i, j):
            ri, rj = find(i), find(j)
            if ri != rj:
                par[ri] = rj

        for e in self.whole_edges:
            u, v = self.parent.ends(e)
            union(index[("v", u)], index[("v", v)])
        for e, ivs in self.segments.items():
            u, v = self.parent.ends(e)
            ell = self.parent.length(e)
            for iv in ivs:
                i = index[("s", e, iv)]
                if iv[0] == 0 and ("v", u) in index:
                    union(i, index[("v", u)])
                if iv[1] == ell and ("v", v) in index:
                    union(i, index[("v", v)])
        roots = {find(i) for i in range(len(nodes))}
        if len(roots) != 1:
            raise ValueError("subcurve is not connected")

    # -- membership ------------------------------------------------------

    def covered_intervals(self, e: str) -> List[Tuple[Fraction, Fraction]]:
        if e in self.whole_edges:
            return [(Fraction(0), self.parent.length(e))]
        return list(self.segments.get(e, []))

    def contains_point(self, p) -> bool:
        p = self.parent.point(p)
        if p.is_vertex:
            return p.vertex in self.vertices
        for a, b in self.covered_intervals(p.edge):
            if a <= p.offset <= b:
                return True
        return False

    def contains_subcurve(self, other: "Subcurve") -> bool:
        if other.parent is not self.parent and other.parent != self.parent:
            return False
        if not other.vertices <= self.vertices:
            return False
        for e in other.whole_edges:
            if (Fraction(0), self.parent.length(e)) not in self.covered_intervals(e):
                return False
        for e, ivs in other.segments.items():
            mine = self.covered_intervals(e)
            for a, b in ivs:
                if not any(x <= a and b <= y for x, y in mine):
                    return False
        return True

    def boundary_points(self) -> List[Point]:
        """Points of the subcurve with a curve-direction leaving it."""
        out = []
        for v in sorted(self.vertices):
            leaves = False
            for e, _ in self.parent.incident(v):
                u, w = self.parent.ends(e)
                ell = self.parent.length(e)
                here = self.covered_intervals(e)
                # direction from v into e's interior: covered iff an interval
                # starts at the matching end with positive length
                if u == v and not any(a == 0 and b > 0 for a, b in here):
                    leaves = True
                if w == v and not any(b == ell and a < ell for a, b in here):
                    leaves = True
            if leaves:
                out.append(Point(vertex=v))
        for e, ivs in sorted(self.segments.items()):
            ell = self.parent.length(e)
            for a, b in ivs:
                if a > 0:
                    out.append(Point(edge=e, offset=a))
                if b < ell and b != a:
                    out.append(Point(edge=e, offset=b))
        return out

    def betti(self) -> int:
        """First Betti number of the subcurve as a topological graph."""
        nodes = set()
        edges = 0
        for e in self.whole_edges:
            u, v = self.parent.ends(e)
            nodes.add(("v", u))
            nodes.add(("v", v))
            edges += 1
        for v in self.vertices:
            nodes.add(("v", v))
        for e, ivs in self.segments.items():
            u, v = self.parent.ends(e)
            ell = self.parent.length(e)
            for a, b in ivs:
                if a == b:
                    nodes.add(("p", e, a))
                    continue
                ka = ("v", u) if a == 0 else ("p", e, a)
                kb = ("v", v) if b == ell else ("p", e, b)
                nodes.add(ka)
                nodes.add(kb)
                edges += 1
        return edges - len(nodes) + 1

    def genus(self) -> int:
        """Weighted genus: Betti number plus weights of contained vertices."""
        return self.betti() + sum(self.parent.weight(v) for v in self.vertices)

    def union(self, other: "Subcurve") -> "Subcurve":
        if other.parent is not self.parent and other.parent != self.parent:
            raise ValueError("subcurves of different curves")
        segs: Dict[str, list] = {}
        for src in (self.segments, other.segments):
            for e, ivs in src.items():
                segs.setdefault(e, []).extend(ivs)
        return Subcurve(
            self.parent,
            set(self.vertices) | set(other.vertices),
            set(self.whole_edges) | set(other.whole_edges),
            segs,
        )

    def is_whole_curve(self) -> bool:
        return (self.vertices == frozenset(self.parent.vertices())
                and self.whole_edges == frozenset(self.parent.edges()))

    # -- extraction ------------------------------------------------------

    def as_curve(self) -> Tuple[TropicalCurve, PointMap]:
        """Extract the subcurve as a standalone curve.

        Returns (curve, to_parent) where to_parent embeds the extracted curve
        back into the parent; to_parent.inverse maps covered parent points to
        the extracted curve.
        """
        vertices: List[Tuple[str, int]] = []
        vnames = {}
        for v in self.parent.vertices():
            if v in self.vertices:
                vertices.append((v, self.parent.weight(v)))
                vnames[("v", v)] = v
        taken = {v for v, _ in vertices}
        edges = []
        to_rules: Dict[str, List[tuple]] = {}
        back_rules: Dict[str, List[tuple]] = {}
        sub_images: Dict[str, Point] = {v: Point(vertex=v) for v, _ in vertices}

        def interior_name(e, off):
            key = ("p", e, off)
            if key in vnames:
                return vnames[key]
            nid = f"{e}@{off}"
            while nid in taken:
                nid += "'"
            taken.add(nid)
            vnames[key] = nid
            vertices.append((nid, 0))
            sub_images[nid] = Point(edge=e, offset=off)
            return nid

        for e in sorted(self.whole_edges):
            u, v = self.parent.ends(e)
            ell = self.parent.length(e)
            edges.append((e, (u, v), ell))
            to_rules[e] = [(Fraction(0), ell, e, Fraction(0), ell)]
            back_rules[e] = [(Fraction(0), ell, e, Fraction(0), ell)]
        for e, ivs in self.segments.items():
            u, v = self.parent.ends(e)
            ell = self.parent.length(e)
            rules = []
            for a, b in ivs:
                if a == b:
                    nid = interior_name(e, a)
                    rules.append((a, a, None, Point(vertex=nid), None))
                    continue
                na = u if a == 0 else interior_name(e, a)
                nb = v if b == ell else interior_name(e, b)
                eid = f"{e}[{a}..{b}]"
                while any(eid == x[0] for x in edges):
                    eid += "'"
                edges.append((eid, (na, nb), b - a))
                to_rules[eid] = [(Fraction(0), b - a, e, a, b)]
                rules.append((a, b, eid, Fraction(0), b - a))
            if rules:
                back_rules[e] = rules

        sub = TropicalCurve(vertices, edges)
        to_vmap = {vid: sub_images[vid] for vid, _ in vertices}
        to_parent = PointMap(sub, self.parent, to_vmap, to_rules)
        back_vimages = {v: Point(vertex=v) for v in self.vertices}
        back = _PartialBack(self.parent, sub, self, back_vimages, back_rules)
        to_parent.inverse = back
        back.inverse = to_parent
        return sub, to_parent

    def diameter(self) -> Fraction:
        """Largest parent-metric distance between two points of the subcurve."""
        from . import models

        return models.subcurve_diameter(self)

    def __eq__(self, other):
        if not isinstance(other, Subcurve):
            return NotImplemented
        return (self.parent == other.parent and self.vertices == other.vertices
                and self.whole_edges == other.whole_edges
                and self.segments == other.segments)

    def __repr__(self):
        nseg = sum(len(v) for v in self.segments.values())
        return (f"Subcurve({len(self.vertices)} vertices, "
                f"{len(self.whole_edges)} whole edges, {nseg} segments)")


class _PartialBack(PointMap):
    """Inverse of a subcurve embedding: defined only on covered points."""

    def __init__(self, source, target, subcurve, vertex_images, edge_rules):
        super().__init__(source, target, vertex_images, edge_rules)
        self._subcurve = subcurve

    def __call__(self, p) -> Point:
        p = self.source.point(p) if not isinstance(p, Point) else self.source._canon(p)
        if not self._subcurve.contains_point(p):
            raise ValueError(f"{p} lies outside the subcurve")
        if p.is_vertex:
            return self.vertex_images[p.vertex]
        for a, b, te, ta, tb in self.edge_rules.get(p.edge, ()):
            if a <= p.offset <= b:
                if te is None:
                    return ta
                t = ta + (tb - ta) * (p.offset - a) / (b - a)
                return self.target.point(te, t)
        raise ValueError(f"{p} not covered by the extraction rules")


def neighborhood(curve: TropicalCurve, lam: Subcurve, delta: RatLike) -> Subcurve:
    """Closed delta-neighborhood N_delta(Λ) as a subcurve."""
    delta = rat(delta)
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if lam.parent is not curve and lam.parent != curve:
        raise ValueError("subcurve belongs to a different curve")

    # distance from every vertex to Λ (multi-source Dijkstra)
    dist: Dict[str, Fraction] = {}
    heap = []
    for v in lam.vertices:
        dist[v] = Fraction(0)
        heapq.heappush(heap, (Fraction(0), v))
    for e, ivs in lam.segments.items():
        u, v = curve.ends(e)
        ell = curve.length(e)
        a0 = min(a for a, _ in ivs)
        b1 = max(b for _, b in ivs)
        for vtx, d0 in ((u, a0), (v, ell - b1)):
            if vtx not in dist or d0 < dist[vtx]:
                dist[vtx] = d0
                heapq.heappush(heap, (d0, vtx))
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for eid, w in curve._adj[v]:
            nd = d + curve.length(eid)
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))

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
