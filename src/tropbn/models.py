"""Integer chip-firing models of tropical curves.

A curve with rational edge lengths is cut at its interior marks and at the
midpoint of every loop that carries no mark, which leaves a loopless model;
each piece of that model is then divided into unit steps of length 1/λ.
Chip-firing on the resulting multigraph decides linear equivalence exactly:
ranks survive subdivision (Hladký–Kráľ–Norine, arXiv:0709.4485), and the
vertices of the loopless model form a rank-determining set (Luo,
arXiv:0906.2807).  Firing vectors convert back into piecewise-linear
witnesses on the original curve.

The loop midpoints serve the rank search only.  A model built with
``loops=False`` leaves every unmarked loop out, and only reduces: a loop C
at v that holds no chip and not the basepoint q changes no q-reduced
form.  Dhar's fire from q burns the rest of the curve, reaches v and burns
C, which holds no chip; and the witness, extended to C by its value at v,
has slope 0 into C.  The q-reduced divisor and its witness with f(q) = 0
are unique (Baker–Norine, arXiv:math/0608360), so the reduction on the
smaller lattice is the reduction on the curve.  On a dumbbell whose loops
are one unit long this halves λ and the lattice.

The model is never built as a curve: lattice points are numbered by a fixed
layout (see `IntegerModel`), and each edge keeps one list, the lattice
index at each tick, so index ↔ point conversions are integer arithmetic.
Subcurve diameters need no lattice: `subcurve_diameter` takes them in
closed form from vertex distances.

The model layer does Python work per curve vertex, edge, stop and chip,
not per lattice point.  Its O(n) passes are C-level list operations: a
piece's interior points enter their edge's path as one `range`, and their
CSR entries are two strided slices of that path; `reduced_divisor` finds
the chips and the witness's knots with `compress` over the kernel's
output.  The model also keeps its lattice as stops joined by pieces, one
curve-free table (``pieces``) that `point_of_index` reads and
`reduce_vector` hands the kernel by keyword.  The pure kernel builds its
contracted graph from that table, so no reduction walks the lattice in
Python either: a kernel call's O(n) work is a count over the vector for
chips inside pieces and the fill of its length-n vectors out, all C-level
list operations.  The CSR arrays stay for the compiled kernel, whose walk
over them is C code, and for callers that hand the kernel a graph of their
own.

`reduced_divisor` and `is_equivalent` are the divisor-level entry points:
they are the only routes from a `Divisor` to the chip-firing kernel, and
they build their models with ``loops=False``.  The rank search,
Brill–Noether enumeration and confinement search work on lattice vectors
through `divisor_vector`, `reduce_vector`, `effective_class` and
`sigma_to_pl`, on models with every loop, since they need the
rank-determining set or lattice points on loops.

`divisor_vector`, and a model whose marks are a `Divisor`, trust the
divisor's points: they are canonical on its curve (see `Divisor`), so a
chip's index is read from the vertex numbering or its edge's path without
passing the point through `TropicalCurve.point` again.  Marks given as
points are canonicalized, as `vertex_index` canonicalizes its argument.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, chain, combinations, compress, count
from math import ceil, floor, lcm
from operator import ne
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import kernel
from .curve import Point, Subcurve, TropicalCurve, _is_int
from .divisor import Divisor, PLFunction

# Largest lattice a model may have, counted on the lattice that is built:
# a ``loops=False`` model leaves unmarked loops out, so a curve may reduce
# where its rank search is refused.  Under tracemalloc, a cold
# `reduced_divisor` with the pure kernel on one edge of 200,000 unit steps
# peaks at about 169 bytes a lattice point: 97 for the model (its paths and
# CSR arrays) and 72 for the kernel's vectors in and out, σ's values
# included, so this is about 340 MB.  The pure kernel builds from the
# piece table and its rounds work on runs of points, but its vectors still
# hold one entry per point; so n still bounds a call's memory, and its
# C-level list work bounds its time.
MAX_LATTICE_POINTS = 2_000_000


class IntegerModel:
    """Unit-step model of a curve on the lattice (1/λ)ℤ of each edge.

    marks: points of the curve that must become lattice vertices, in any
    form `TropicalCurve.point` takes; or a `Divisor` of the curve, whose
    support is the marks, taken as they are (its points are canonical).
    scale: a positive integer that multiplies λ, refining the lattice;
    `transport.confinement_search` searches the lattice at scale 2.
    loops: with False, every loop without interior marks is left out: it
    has no midpoint stop, adds nothing to λ, and has no path and no CSR
    entries, so its points are not lattice points.  Such a model serves
    reductions whose divisor and basepoint are marks (see the module
    docstring); ranks need the default.

    The stops of an edge are its interior marks, merged and ascending, or
    its midpoint when it is a loop without interior marks and ``loops`` is
    True.  A piece runs between consecutive stops (or an endpoint); λ is
    ``scale`` times the lcm of the denominators of all piece lengths, so
    every stop is a lattice point.  The stop offsets are partial sums of the
    piece lengths, so that lcm is also the lcm of the stop offsets'
    denominators, which is how λ is computed; a stop at offset a/b is then
    the integer tick a·(λ/b).  Lattice points are numbered in this order:

    1. the curve's vertices, in curve order;
    2. the interior marks, edge by edge in curve order, offsets ascending;
    3. the midpoint of each loop without interior marks, in edge order
       (only with ``loops``);
    4. all other lattice points, edge by edge, then piece by piece, with
       offsets t/λ ascending.

    Indices of the first three groups are ``split_indices``: with ``loops``,
    the vertices of the loopless model.  The graph joins points 1/λ apart
    along an edge that is kept; the CSR arrays ``indptr``/``nbrs`` list each
    point's neighbours in the order in which a walk over the kept edges
    (curve order, each from its first end to its second) meets the unit
    steps.  A model of more than ``MAX_LATTICE_POINTS`` points raises
    ``ValueError`` before it allocates.

    ``pieces`` is the same graph as stops joined by pieces, the piece table
    ``(ends, lengths, firsts, edges)`` with one entry per piece, edge by
    edge in that walk's order: its two stops at ``ends[2k]`` and
    ``ends[2k + 1]``, its length in ticks, the index of its first interior
    point (the others follow it, from the first stop on) and its edge.
    `reduce_vector` passes it to the kernel (see
    `tropbn._kernel_py.reduce_divisor`, which reads the first three).

    The lattice depends only on ``scale``, the set of interior cuts
    (edge, offset) that the marks make, and ``loops``; vertex marks do not
    change it.  The curve keeps the last lattice built on it in one slot,
    ``TropicalCurve._lattice_slot``, as (key, fields) with those three as
    the key, so a model built again on the same curve object and cuts, as
    the Riemann–Roch pair rank(D), rank(K − D) does, copies the stored
    fields instead of rebuilding them.  A rank model and a reduction model
    on one curve have different keys even when their cuts agree: the rank
    search must not find a lattice without points on a loop.  A model with
    another key empties the slot before it builds and then takes it over,
    so a curve never holds two lattices.  The fields are curve-free (``n``,
    ``lam``, the numbering, the paths, the piece table and the CSR arrays),
    so the slot holds no reference back to the curve, a model or a divisor:
    there is no cycle, and a dropped curve is freed by reference counting.
    The stored lists are shared between the models of one key and are never
    mutated.
    """

    def __init__(self, curve: TropicalCurve, marks=(), scale: int = 1, *,
                 loops: bool = True):
        if not _is_int(scale) or scale < 1:
            raise ValueError("scale must be a positive integer")
        self.curve = curve
        if isinstance(marks, Divisor):
            if marks.curve != curve:
                raise ValueError("curve mismatch")
            points = marks._chips   # canonical on the curve: see `Divisor`
        else:
            points = map(curve.point, marks)
        cuts = frozenset((p.edge, p.offset) for p in points if not p.is_vertex)
        key = (scale, cuts, loops)
        slot = curve._lattice_slot
        if slot is None or slot[0] != key:
            curve._lattice_slot = None   # never hold two lattices at once
            fields = _lattice(curve, cuts, scale, loops)
            slot = curve._lattice_slot = (key, fields)
        self.__dict__.update(slot[1])

    # -- conversions -------------------------------------------------------

    def vertex_index(self, p) -> int:
        """Lattice index of a curve point; the point must be on the lattice."""
        return self._index(self.curve.point(p))

    def _index(self, p: Point) -> int:
        """Lattice index of a point canonical on the curve, read from the
        vertex numbering or its edge's path."""
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
        # the piece whose interior holds i, and the tick of its first stop:
        # 0 at the edge's first end, else the stop's offset times λ
        ends, _, firsts, edges = self.pieces
        k = bisect_right(firsts, i) - 1
        a = self._stops[ends[2 * k]]
        s = 0 if a.is_vertex else int(a.offset * self.lam)
        return Point(edge=edges[k],
                     offset=Fraction(s + 1 + i - firsts[k], self.lam))

    def divisor_vector(self, D: Divisor) -> List[int]:
        """D as a lattice vector.  D's points are canonical on its curve
        (see `Divisor`), so they are not canonicalized again."""
        if D.curve != self.curve:
            raise ValueError("curve mismatch")
        vec = [0] * self.n
        for p, m in D._chips.items():
            vec[self._index(p)] += m
        return vec

    def sigma_to_pl(self, sigma: Sequence[int], bends: Iterable[int]) -> PLFunction:
        """f with div(f) = -L·σ, i.e. f = -σ/λ; reduction yields D + div(f).

        bends: lattice indices that include every point off the curve's
        vertices where (L·σ)ᵢ ≠ 0; the curve's vertices among them are
        skipped.  f is affine on each unit step, and inside an edge
        (L·σ)ᵢ = 2σᵢ − σᵢ₋₁ − σᵢ₊₁ is minus the change of slope at point i,
        so the bends are f's knots; `PLFunction` drops any that are
        straight."""
        factor = Fraction(-1, self.lam)
        vv = {v: factor * sigma[i] for v, i in self._vindex.items()}
        nv = len(vv)
        knots: Dict[str, List[Tuple[Fraction, Fraction]]] = {}
        for i in bends:
            if i >= nv:
                p = self.point_of_index(i)
                knots.setdefault(p.edge, []).append((p.offset, factor * sigma[i]))
        return PLFunction(self.curve, vv, knots)

    # -- reduction ---------------------------------------------------------

    def reduce_vector(self, vec: Sequence[int], qi: int) -> Tuple[List[int], List[int]]:
        """(vec reduced at index qi, σ); the kernel only reads vec."""
        return kernel.reduce_divisor(self.indptr, self.nbrs, vec, qi,
                                     pieces=self.pieces)

    def effective_class(self, vec: Sequence[int], qi: int) -> bool:
        """Whether the class of vec contains an effective divisor."""
        red, _ = self.reduce_vector(vec, qi)
        return red[qi] >= 0

    def indices_in(self, sub: Subcurve) -> List[int]:
        """Sorted indices of the lattice points that lie on the subcurve."""
        if sub.parent != self.curve:
            raise ValueError("curve mismatch")
        # an interval that reaches an end of its edge puts that end into
        # sub.vertices (closure), so the slices may include the ends
        out = {self._vindex[v] for v in sub.vertices}
        for e, ivs in sub.intervals.items():
            path = self._paths[e]
            for a, b in ivs:
                out.update(path[ceil(a * self.lam):floor(b * self.lam) + 1])
        return sorted(out)


def _lattice(curve: TropicalCurve, cuts, scale: int, loops: bool) -> dict:
    """The curve-free fields of an `IntegerModel`: its lattice for the
    interior cuts, a set of (edge, offset) pairs, at this scale, with or
    without the loops that no cut falls on."""
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
        if e not in layout and (loops or not curve.is_loop(e)):
            add_stops(e, [curve.length(e) / 2] if curve.is_loop(e) else [])
    edges = [e for e in curve.edges() if e in layout]

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
    # first end on; plus the piece table, one row per piece: its two stops,
    # its length in ticks, its first interior index and its edge.  The CSR
    # arrays are filled as the paths are laid.  Each curve vertex lists,
    # edge by edge, the point one tick inside the edge from each of its
    # ends.  Every other point i lies inside one edge and has degree 2:
    # nbrs[o] and nbrs[o + 1], with o = 2(|E| + i − |V|), are the points
    # one tick before and after it.
    # A piece's interior points have consecutive indices, so for them each
    # of the two is one strided slice of the path, sharing its ints.
    nv, n_edges = len(verts), len(edges)
    nbrs = [0] * (2 * (n_edges + n - nv))
    ends: List[List[int]] = [[] for _ in verts]
    paths: Dict[str, List[int]] = {}
    piece_ends: List[int] = []
    piece_len: List[int] = []
    piece_first: List[int] = []
    piece_edge: List[str] = []
    first = len(stops)
    for e in edges:
        ticks, nodes = ticks_of[e], layout[e][1]
        path = [nodes[0]]
        for s, t, a, node in zip(ticks, ticks[1:], nodes, nodes[1:]):
            c = t - s - 1
            piece_ends += (a, node)
            piece_len.append(t - s)
            piece_first.append(first)
            piece_edge.append(e)
            if c > 0:
                path += range(first, first + c)
                path.append(node)
                o = 2 * (n_edges + first - nv)
                nbrs[o:o + 2 * c:2] = path[s:t - 1]
                nbrs[o + 1:o + 2 * c:2] = path[s + 2:t + 1]
                first += c
            else:
                path.append(node)
            if s:   # the stop at tick s, now that path[s + 1] is laid
                o = 2 * (n_edges + path[s] - nv)
                nbrs[o], nbrs[o + 1] = path[s - 1], path[s + 1]
        paths[e] = path
        ends[nodes[0]].append(path[1])
        ends[nodes[-1]].append(path[-2])
    nbrs[:2 * n_edges] = chain.from_iterable(ends)
    indptr = [0, *accumulate(map(len, ends))]
    indptr += range(2 * n_edges + 2, len(nbrs) + 1, 2)
    return {"n": n, "lam": lam, "_vindex": vindex, "_stops": stops,
            "split_indices": list(range(len(stops))), "_paths": paths,
            "pieces": (piece_ends, piece_len, piece_first, piece_edge),
            "indptr": indptr, "nbrs": nbrs}


def reduced_divisor(curve: TropicalCurve, D: Divisor, q) -> Tuple[Divisor, PLFunction]:
    """q-reduced form of D and witness f with reduced = D + div(f), f(q) = 0.

    The model marks D's support and q, and leaves out the loops that hold
    neither (``loops=False``), which changes neither answer; f is constant
    on such a loop.  Its size limit counts the lattice without them."""
    if D.curve != curve:
        raise ValueError("curve mismatch")
    return _reduced_divisor(curve, D, curve.point(q))


def _reduced_divisor(curve: TropicalCurve, D: Divisor,
                     q: Point) -> Tuple[Divisor, PLFunction]:
    """`reduced_divisor` for a divisor of the curve and a point q that is
    canonical on it: nothing is checked again."""
    # the marks are D's support and q, as a divisor so that the model
    # takes them as they are; a loop that holds neither is left out
    marks = Divisor._of_canonical(curve, [(p, 1) for p in [*D._chips, q]])
    model = IntegerModel(curve, marks=marks, loops=False)
    vec = model.divisor_vector(D)
    red, sigma = model.reduce_vector(vec, model._index(q))
    # L·σ = vec − red, so the witness bends where the two differ
    chips = [(model.point_of_index(i), red[i]) for i in compress(count(), red)]
    return (Divisor._of_canonical(curve, chips),
            model.sigma_to_pl(sigma, compress(count(), map(ne, vec, red))))


def is_equivalent(D1: Divisor, D2: Divisor) -> Tuple[bool, Optional[PLFunction]]:
    """Linear equivalence test with witness.

    Returns (True, f) with D1 − D2 = div(f), or (False, None).  D1 ~ D2
    exactly when D1 − D2 reduces to 0 at the first vertex; f is then minus
    the reduction's witness, the one function with divisor D1 − D2 that
    vanishes there.  That is one `reduced_divisor` call, on the lattice
    without the loops that hold no chip of D1 − D2.
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
