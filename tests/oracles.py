"""Independent oracles for cross-checking ranks and equivalence.

Nothing here touches the library's reduction machinery: effectiveness of a
divisor class is decided by exhaustive search over effective representatives
combined with membership tests in the integer row lattice of the graph
Laplacian (staircase/Hermite reduction).  Loops are handled by subdividing
every edge at its midpoint first, which makes the vertex set of the model
rank-determining; ranks of vertex-supported divisors do not depend on edge
lengths, so the combinatorial answer equals the metric one.

`lattice_diameter` is the exhaustive reference for subcurve diameters: a
breadth-first search over a half-step lattice model of the curve.
`piece_scale` is the lattice scale λ by its definition from piece lengths.
`unit_reduce_divisor` is the reference chip-firing kernel: the same rounds
as `tropbn._kernel_py`, each one walked over every vertex of the graph.
`unit_pieces` turns such a CSR graph into the piece table that the
library's kernels take.
`reference_minfail` and `reference_rank` are the reference rank search on
it: the plain recursion, without the library's Clifford cap or its
reductions at the removed chip's own base point.
`reference_slopes` and `reference_divisor` read div(f) of a PL function off
its values: one-sided difference quotients at each vertex and knot.
`two_pass_curve` and `two_pass_divisor` are the reference JSON readers:
read every field first, then build with the public constructors, which
check and coerce all of it again.
`reference_neighborhood`, `reference_exits`, `reference_min_const`,
`reference_clamp` and `reference_descent_region` are the transport
geometry in `Fraction` arithmetic, built through the public `Subcurve` and
`PLFunction` constructors, which merge, close and check everything again;
the library does the same work in integers at one scale per call.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from tropbn.curve import Point, Subcurve, TropicalCurve
from tropbn.divisor import Divisor, PLFunction
from tropbn.io import parse_frac, parse_ids, parse_int, point_from_json
from tropbn.models import IntegerModel


# -- integer lattice helpers -------------------------------------------------


def staircase(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """Row staircase form of the lattice spanned by the given integer rows.

    Column-by-column gcd elimination; pivots end up positive and each zero
    row is dropped.  The row lattice is preserved exactly.
    """
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    out: List[List[int]] = []
    pivot = 0
    for col in range(ncols):
        live = [r for r in rows if r[col]]
        rest = [r for r in rows if not r[col]]
        if not live:
            rows = rest
            continue
        # pairwise Euclid in this column until one nonzero entry remains
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            a = live[0]
            for i in range(1, len(live)):
                q = live[i][col] // a[col]
                live[i] = [x - q * y for x, y in zip(live[i], a)]
            live = [a] + [r for r in live[1:] if any(r)]
            live, extra = [r for r in live if r[col]], [r for r in live if not r[col]]
            rest.extend(extra)
        head = live[0]
        if head[col] < 0:
            head = [-x for x in head]
        out.append(head)
        rows = rest
        pivot += 1
    return out


def _pivots(basis: List[List[int]]) -> List[int]:
    cols = []
    for r in basis:
        for j, x in enumerate(r):
            if x:
                cols.append(j)
                break
    return cols


class LaplacianLattice:
    """Coset labels of Z^V modulo the integer row lattice of the Laplacian."""

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
        lap = [[0] * n for _ in range(n)]
        for u, v in edges:
            if u == v:
                continue
            lap[u][u] += 1
            lap[v][v] += 1
            lap[u][v] -= 1
            lap[v][u] -= 1
        self.n = n
        self.basis = staircase(lap)
        self.cols = _pivots(self.basis)

    def residue(self, vec: Sequence[int]) -> Tuple[int, ...]:
        b = list(vec)
        for row, c in zip(self.basis, self.cols):
            t = b[c] // row[c]
            if t:
                b = [x - t * y for x, y in zip(b, row)]
        return tuple(b)


def compositions(total: int, parts: int):
    """All tuples of `parts` non-negative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


class GraphRankOracle:
    """Baker-Norine rank by exhaustive search, loops included.

    The input multigraph is given as ``n`` vertices ``0..n-1`` and a list of
    (u, v) edges (loops and parallel edges allowed).  Every edge is split at
    a midpoint vertex, after which effectiveness of a class is an exact
    lattice-membership question against the known effective representatives.
    """

    def __init__(self, n: int, edges: Sequence[Tuple[int, int]], max_degree: int = 8):
        self.n = n
        split = []
        m = n
        for u, v in edges:
            split.append((u, m))
            split.append((m, v))
            m += 1
        self.nsub = m
        self.lattice = LaplacianLattice(m, split)
        self._eff: Dict[int, Set[Tuple[int, ...]]] = {}
        for d in range(max_degree + 1):
            self._eff[d] = {self.lattice.residue(f)
                            for f in compositions(d, m)}

    def has_effective(self, vec: Sequence[int]) -> bool:
        d = sum(vec)
        if d < 0:
            return False
        if d not in self._eff:
            self._eff[d] = {self.lattice.residue(f)
                            for f in compositions(d, self.nsub)}
        return self.lattice.residue(vec) in self._eff[d]

    def rank(self, div: Sequence[int]) -> int:
        """div lists multiplicities on the original n vertices."""
        vec = list(div) + [0] * (self.nsub - self.n)
        if not self.has_effective(vec):
            return -1
        r = 0
        while True:
            for combo in itertools.combinations_with_replacement(
                    range(self.nsub), r + 1):
                probe = list(vec)
                for i in combo:
                    probe[i] -= 1
                if not self.has_effective(probe):
                    return r
            r += 1


# -- small multigraph enumeration --------------------------------------------


def _connected(n: int, edges: Sequence[Tuple[int, int]]) -> bool:
    seen = {0}
    frontier = [0]
    adj: Dict[int, List[int]] = {i: [] for i in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    while frontier:
        x = frontier.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == n


def _canonical(n: int, edges: Sequence[Tuple[int, int]]) -> Tuple:
    best = None
    for perm in itertools.permutations(range(n)):
        img = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
        if best is None or img < best:
            best = img
    return (n, best)


def small_multigraphs(max_vertices: int = 4, max_edges: int = 5):
    """All connected multigraphs (loops allowed) up to isomorphism.

    Yields (n, edges) with vertices 0..n-1; every vertex of an n-vertex
    graph is incident to something once n > 1, by connectivity.
    """
    seen = set()
    for n in range(1, max_vertices + 1):
        slots = [(i, j) for i in range(n) for j in range(i, n)]
        low = max(0, n - 1)
        for m in range(low, max_edges + 1):
            for multi in itertools.combinations_with_replacement(slots, m):
                if not _connected(n, multi):
                    continue
                key = _canonical(n, multi)
                if key in seen:
                    continue
                seen.add(key)
                yield n, list(multi)


# -- subcurve diameter by lattice search -------------------------------------


def lattice_diameter(sub: Subcurve) -> Fraction:
    """Largest ambient distance between two points of the subcurve.

    The distance between two points of a product of segments is
    piecewise affine with slopes ±1, so its maximum is at half-lattice
    points of a lattice that has the subcurve's boundary on it: a
    breadth-first search from every lattice point of the subcurve over the
    scale-2 model is exact.  It costs O(candidates · n).
    """
    model = IntegerModel(sub.parent, marks=sub.boundary_points(), scale=2)
    cands = model.indices_in(sub)
    best = 0
    indptr, nbrs, n = model.indptr, model.nbrs, model.n
    for s in cands:
        dist = [-1] * n
        dist[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                du = dist[u] + 1
                for i in range(indptr[u], indptr[u + 1]):
                    v = nbrs[i]
                    if dist[v] < 0:
                        dist[v] = du
                        nxt.append(v)
            frontier = nxt
        for t in cands:
            if dist[t] > best:
                best = dist[t]
    return Fraction(best, model.lam)


# -- lattice scale from piece lengths ----------------------------------------


def piece_scale(curve: TropicalCurve, marks=(), scale: int = 1) -> int:
    """λ by its definition: scale times the lcm of the denominators of the
    piece lengths, each edge cut at its interior marks, or at its midpoint
    when it is a loop without interior marks."""
    cuts: Dict[str, Set[Fraction]] = {}
    for m in marks:
        p = curve.point(m)
        if not p.is_vertex:
            cuts.setdefault(p.edge, set()).add(p.offset)
    dens = []
    for e in curve.edges():
        ell = curve.length(e)
        inner = sorted(cuts.get(e, ())) or ([ell / 2] if curve.is_loop(e) else [])
        stops = [Fraction(0), *inner, ell]
        dens += [(b - a).denominator for a, b in zip(stops, stops[1:])]
    return scale * lcm(*dens)


# -- chip-firing on the unit graph ---------------------------------------------


def unit_pieces(indptr, nbrs):
    """The piece table of a CSR graph: every vertex a stop, every edge a
    piece of length 1.  `indptr[v]:indptr[v+1]` slices `nbrs` to the
    neighbours of v, with parallel edges repeated and no loops."""
    n = len(indptr) - 1
    if (min(indptr) < 0 or max(indptr) > len(nbrs)
            or (nbrs and (min(nbrs) < 0 or max(nbrs) >= n))):
        raise ValueError("CSR index out of range")
    pairs = [(u, v) for u, a, b in zip(range(n), indptr, indptr[1:])
             for v in nbrs[a:b]]
    edges = sorted(p for p in pairs if p[0] < p[1])
    if (2 * len(edges) != len(pairs)
            or edges != sorted((v, u) for u, v in pairs if u > v)):
        raise ValueError("CSR must list each edge at both ends and have no "
                         "loops")
    return [x for e in edges for x in e], [1] * len(edges), [n] * len(edges)


def _unit_burn(indptr, nbrs, d, q):
    """Dhar's fire from q: (burnt, cnt), one flag and one count per vertex.

    A vertex burns once more of its edges lead to burnt vertices than it has
    chips.  `cnt[v]` counts the edges from an unburnt v into the burnt set.
    """
    n = len(indptr) - 1
    burnt = bytearray(n)
    burnt[q] = 1
    cnt = [0] * n
    queue = deque([q])
    while queue:
        u = queue.popleft()
        for i in range(indptr[u], indptr[u + 1]):
            v = nbrs[i]
            if not burnt[v]:
                cnt[v] += 1
                if cnt[v] > d[v]:
                    burnt[v] = 1
                    queue.append(v)
    return burnt, cnt


def _other(indptr, nbrs, prev, cur):
    """The neighbour of the degree-2 vertex `cur` that is not `prev`."""
    a = nbrs[indptr[cur]]
    return nbrs[indptr[cur] + 1] if a == prev else a


def unit_reduce_divisor(indptr, nbrs, div, q):
    """q-reduce an integer divisor vector on the unit graph, round by round.

    The algorithm of `tropbn._kernel_py.reduce_divisor` without the chain
    contraction: BFS levels from q, the debt cleared by firing balls around
    q, then Dhar's burning, each round firing the unburnt set U and the
    sets that grow from it along its corridors.  Every round burns and
    walks the whole graph, with one call of `_unit_burn`.  Returns
    (reduced, sigma) with sigma[q] == 0.
    """
    n = len(indptr) - 1
    d = list(div)
    if not (0 <= q < n):
        raise ValueError("q out of range")
    sigma = [0] * n

    level = [-1] * n
    level[q] = 0
    order = deque([q])
    levels = [[q]]
    while order:
        u = order.popleft()
        for i in range(indptr[u], indptr[u + 1]):
            v = nbrs[i]
            if level[v] < 0:
                level[v] = level[u] + 1
                if len(levels) <= level[v]:
                    levels.append([])
                levels[level[v]].append(v)
                order.append(v)
    if sum(len(lv) for lv in levels) != n:
        raise ValueError("graph must be connected")
    maxlev = len(levels) - 1

    # stage 1: clear debt outside q by firing balls around q, outermost first
    if any(d[v] < 0 for v in range(n) if v != q):
        down = [0] * n   # edges to the previous level
        up = [0] * n     # edges to the next level
        for u in range(n):
            lu = level[u]
            for i in range(indptr[u], indptr[u + 1]):
                lv = level[nbrs[i]]
                if lv == lu - 1:
                    down[u] += 1
                elif lv == lu + 1:
                    up[u] += 1
        ms = [0] * (maxlev + 1)
        for j in range(maxlev - 1, -1, -1):
            m = 0
            for v in levels[j + 1]:
                if d[v] < 0:
                    c = down[v]
                    need = (-d[v] + c - 1) // c
                    if need > m:
                        m = need
            if m:
                ms[j] = m
                for v in levels[j + 1]:
                    d[v] += m * down[v]
                for u in levels[j]:
                    d[u] -= m * up[u]
        acc = 0
        suffix = [0] * (maxlev + 1)
        for j in range(maxlev - 1, -1, -1):
            acc += ms[j]
            suffix[j] = acc
        for v in range(n):
            sigma[v] += suffix[level[v]]

    # stage 2: Dhar burning; fire the unburnt set U, then the sets that
    # grow from it along its corridors, as often and as far as they allow
    while True:
        burnt, cnt = _unit_burn(indptr, nbrs, d, q)
        if all(burnt):
            break
        unburnt = [v for v in range(n) if not burnt[v]]
        k = min(d[v] // cnt[v] for v in unburnt if cnt[v])
        exits = [(v, nbrs[i]) for v in unburnt if cnt[v]
                 for i in range(indptr[v], indptr[v + 1]) if burnt[nbrs[i]]]
        eps = n  # no corridor is longer, so this only bounds the walks
        for prev, cur in exits:
            steps = 1
            while (steps < eps and cur != q and d[cur] == 0
                   and indptr[cur + 1] - indptr[cur] == 2):
                prev, cur = cur, _other(indptr, nbrs, prev, cur)
                steps += 1
            eps = steps
        for v in unburnt:
            sigma[v] += k * eps
            d[v] -= k * cnt[v]
        for prev, cur in exits:
            for i in range(1, eps):
                sigma[cur] += k * (eps - i)
                prev, cur = cur, _other(indptr, nbrs, prev, cur)
            d[cur] += k
    base = sigma[q]
    if base:
        for v in range(n):
            sigma[v] -= base
    return d, sigma


# -- the rank search -------------------------------------------------------------


def reference_minfail(indptr, nbrs, rds, red, cap, memo, q=0):
    """min(cap, smallest deg E >= 0 on `rds` with red - E not effective),
    for a q-reduced `red`.

    Each child red - a is q-reduced together with its debt by
    `unit_reduce_divisor`; `memo` maps a reduced form to its value and
    whether that value is exact or only a lower bound.
    """
    if cap <= 0 or red[q] < 0:
        return 0
    hit = memo.get(red)
    if hit is not None:
        val, exact = hit
        if exact:
            return min(val, cap)
        if val >= cap:
            return cap
    best = cap
    for a in sorted(rds, key=lambda i: (red[i], i)):
        if best == 1:
            break
        child = list(red)
        child[a] -= 1
        if a != q and red[a] == 0:
            child, _ = unit_reduce_divisor(indptr, nbrs, child, q)
        v = 1 + reference_minfail(indptr, nbrs, rds, tuple(child), best - 1,
                                  memo, q)
        best = min(best, v)
    memo[red] = (best, best < cap)
    return best


def reference_rank(model: IntegerModel, vec: Sequence[int]) -> int:
    """Baker-Norine rank of a lattice vector of the model, by
    `reference_minfail` over the model's split indices with cap deg + 2:
    no Riemann-Roch and no Clifford bound."""
    d = sum(vec)
    if d < 0:
        return -1
    red, _ = unit_reduce_divisor(model.indptr, model.nbrs, vec, 0)
    return reference_minfail(model.indptr, model.nbrs,
                             sorted(model.split_indices), tuple(red), d + 2,
                             {}) - 1


# -- div(f) from the values of f ---------------------------------------------


def reference_slopes(f) -> Dict[Point, List[Fraction]]:
    """At each vertex and each knot of a PL function f, the one-sided
    difference quotients of f in every direction leaving it, over a step
    shorter than the distance to the next knot or edge end.  Reads only
    `f.value` and `f.knots`."""
    curve = f.curve
    out: Dict[Point, List[Fraction]] = {Point(vertex=v): [] for v in curve.vertices()}
    for e in curve.edges():
        u, w = curve.ends(e)
        ell = curve.length(e)
        stops = [Fraction(0)] + [o for o, _ in f.knots(e)] + [ell]
        h = min(b - a for a, b in zip(stops, stops[1:])) / 2

        def at(t):
            return f.value(curve.point(e, t))

        for t in stops:
            base = curve.point(e, t)
            if t > 0:
                out.setdefault(base, []).append((at(t - h) - at(t)) / h)
            if t < ell:
                out.setdefault(base, []).append((at(t + h) - at(t)) / h)
    return out


def reference_divisor(f) -> Divisor:
    """div(f) as minus the sum of the outgoing slopes at each point."""
    chips = []
    for p, slopes in reference_slopes(f).items():
        m = -sum(slopes)
        assert m.denominator == 1, (p, slopes)
        chips.append((p, int(m)))
    return Divisor(f.curve, chips)


# -- two-pass JSON reading -----------------------------------------------------


def two_pass_curve(obj) -> TropicalCurve:
    """The curve of a JSON document: its fields read into lists first, then
    passed to the public `TropicalCurve` constructor."""
    try:
        vertices = [(v["id"], parse_int(v.get("weight", 0), "weight"))
                    for v in obj["vertices"]]
        edges = [(e["id"], tuple(parse_ids(e["ends"], "edge ends")),
                  parse_frac(e["length"]))
                 for e in obj.get("edges", [])]
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed curve JSON: {exc}") from exc
    return TropicalCurve(vertices, edges)


def two_pass_divisor(obj, curve: TropicalCurve) -> Divisor:
    """The divisor of a JSON document: its chips read into a list first,
    each point through `io.point_from_json`, then passed to the public
    `Divisor` constructor."""
    try:
        chips = [(point_from_json(c["at"], curve), parse_int(c["mult"], "mult"))
                 for c in obj.get("chips", [])]
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed divisor JSON: {exc}") from exc
    return Divisor(curve, chips)


# -- transport geometry in Fraction arithmetic -------------------------------


def reference_neighborhood(curve: TropicalCurve, lam: Subcurve, delta) -> Subcurve:
    """Closed delta-neighborhood N_delta(Λ): Dijkstra on the `Fraction`
    lengths, then the public constructor merges the grown intervals,
    closes them and checks that the result is connected."""
    delta = Fraction(delta)
    sources: Dict[str, Fraction] = {v: Fraction(0) for v in lam.vertices}
    for e, ivs in lam.intervals.items():
        u, v = curve.ends(e)
        for vtx, d0 in ((u, ivs[0][0]), (v, curve.length(e) - ivs[-1][1])):
            if vtx not in sources or d0 < sources[vtx]:
                sources[vtx] = d0
    dist = curve._dijkstra(sources, {e: curve.length(e) for e in curve.edges()})
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


def reference_exits(sub: Subcurve) -> List[Tuple[str, Fraction, int]]:
    """`Subcurve.exits` by testing every candidate direction against every
    interval of its edge."""
    curve = sub.parent
    cands = []
    for v in sorted(sub.vertices):
        for e in sorted({e for e, _ in curve.incident(v)}):
            u, w = curve.ends(e)
            if u == v:
                cands.append((e, Fraction(0), 1))
            if w == v:
                cands.append((e, curve.length(e), -1))
    for e, ivs in sub.intervals.items():
        ell = curve.length(e)
        for t in dict.fromkeys(t for iv in ivs for t in iv if 0 < t < ell):
            cands += [(e, t, 1), (e, t, -1)]

    def leaves(e, t, d):
        ivs = sub.intervals.get(e, ())
        if d > 0:
            return not any(a <= t < b for a, b in ivs)
        return not any(a < t <= b for a, b in ivs)

    return [x for x in cands if leaves(*x)]


def _crossings(f: PLFunction, e: str, c: Fraction) -> List[Fraction]:
    """Ascending offsets inside edge e where a piece of f crosses c."""
    prof, slopes = f._pieces[e]
    return [o0 + (c - v0) / s
            for (o0, v0), (_, v1), s in zip(prof, prof[1:], slopes)
            if (v0 - c) * (v1 - c) < 0]


def reference_min_const(f: PLFunction, c) -> PLFunction:
    """min(f, c), sampled at f's knots and its crossings of c."""
    c = Fraction(c)
    vv = {v: min(x, c) for v, x in f.vertex_values().items()}
    knots = {}
    for e in f.curve.edges():
        offs = sorted({o for o, _ in f.knots(e)} | set(_crossings(f, e, c)))
        if offs:
            knots[e] = [(o, min(x, c)) for o, x in zip(offs, f._at(e, offs))]
    return PLFunction(f.curve, vv, knots)


def reference_clamp(f: PLFunction, mu, region: Subcurve) -> PLFunction:
    """f̄ = μ on the region and min{f, μ} outside, in `Fraction`s."""
    mu = Fraction(mu)
    g = reference_min_const(f, mu)
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


def reference_descent_region(curve: TropicalCurve, f: PLFunction, lam: Subcurve,
                             mu) -> Subcurve:
    """Λ plus the paths from it along which f decreases strictly above mu,
    searched over canonical points with `Fraction` cuts."""
    mu = Fraction(mu)
    cuts: Dict[str, List[Fraction]] = {}
    for e in curve.edges():
        cs = {Fraction(0), curve.length(e)}
        for a, b in lam.covered_intervals(e):
            cs.update((a, b))
        cs.update(o for o, _ in f.knots(e))
        cs.update(_crossings(f, e, mu))
        cuts[e] = sorted(cs)
    occupied = {(e, i) for e, cs in cuts.items() for i in range(len(cs) - 1)
                if any(a <= cs[i] and cs[i + 1] <= b
                       for a, b in lam.covered_intervals(e))}

    def adjacent(pt):
        if pt.vertex is not None:
            out = []
            for e in sorted({ed for ed, _ in curve.incident(pt.vertex)}):
                u, w = curve.ends(e)
                if u == pt.vertex:
                    out.append((e, 0, True))
                if w == pt.vertex:
                    out.append((e, len(cuts[e]) - 2, False))
            return out
        i = cuts[pt.edge].index(pt.offset)
        # an interior point is neither the first cut nor the last
        return [(pt.edge, i - 1, False), (pt.edge, i, True)]

    included: Set[Tuple[str, int]] = set()
    seen = set()
    dq = deque(lam.boundary_points())
    while dq:
        pt = dq.popleft()
        if pt in seen:
            continue
        seen.add(pt)
        fp = f._value(pt)
        if fp <= mu:
            continue
        for e, i, from_left in adjacent(pt):
            if (e, i) in occupied or (e, i) in included:
                continue
            far = cuts[e][i + 1] if from_left else cuts[e][i]
            if f.value(curve.point(e, far)) >= fp:
                continue
            included.add((e, i))
            dq.append(curve.point(e, far))
    extra: Dict[str, list] = {}
    for e, i in included:
        extra.setdefault(e, []).append((cuts[e][i], cuts[e][i + 1]))
    return lam.grown(extra)
