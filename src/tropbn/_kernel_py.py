"""Pure-Python chip-firing kernel on the chain-contracted graph.

Same interface as the compiled extension `_kernel` (built from `_kernel.c`,
which mirrors this module step by step).  `kernel.reduce_divisor` calls
this module when the extension is not built, and reruns an input here when
the extension's int64 arithmetic would overflow: Python integers are exact.
A graph arrives as a piece table: stops joined by pieces, each piece a
chain of unit steps (see `reduce_divisor`).  `models.IntegerModel` keeps
its lattice in that form; `tests/oracles.py` turns a hand-written CSR
graph into the table of its unit edges, every vertex a stop.

`reduce_divisor` q-reduces by the textbook algorithm on the unit graph: it
clears the debt outside q by firing balls around q, then runs Dhar's burning
in its metric form (Luo, arXiv:0906.2807).  Each round burns from q.  If a
set U stays unburnt, every v on U's boundary holds d[v] >= cnt[v], its edge
count into the burnt set, so U can fire k = min d[v] // cnt[v] times.  Each
edge from U into the burnt set starts a corridor c_1, c_2, ...: the walk goes
on through vertices of degree 2 that hold no chip and are not q, and its
length counts the vertices walked, the last one included.  With eps the
shortest length, the round fires the nested sets

    U,  U + {c_1 of every corridor},  ...,  U + {c_1 .. c_(eps-1) of each}

k times each.  Every firing is legal: after the first, each c_i holds the k
chips that arrived over its one edge from the set and sends them on over its
other edge.  So the round moves k chips per edge from U to the corridor's
vertex c_eps, adds k*eps to sigma on U and k*(eps - i) on c_i, and leaves
d >= 0 off q.  The loop ends when the fire burns everything, which is
Dhar's criterion for a q-reduced divisor; that divisor, and sigma with
sigma[q] == 0, are unique.  `tests/oracles.py` keeps this algorithm on the
unit graph, walked vertex by vertex, as the reference.

The kernel does not walk the unit graph in each round, nor once per call:
`_of_pieces` makes the stops the nodes and the pieces the edges, an edge's
length L the number of its unit steps, and a vertex inside a piece that
holds a chip or is q a node by splitting its piece.  A node may then be a
vertex of degree 2 with no chip, which a round treats as the unit graph
treats that vertex.  Any vertex that gets chips becomes a node by splitting
its edge: a deposit of the debt clearing, or the landing point c_eps of a
corridor.  Chips then sit on nodes only, and the contracted graph makes the
unit graph's rounds, round for round:

- the fire crosses a run from a burnt end, so a node's cnt counts its edges
  to burnt nodes, and U is the unburnt nodes and the runs between them;
- a corridor crosses an edge of length L in L steps, and goes on through a
  node of degree 2 that holds no chip and is not q;
- the debt clearing fires the same balls, of the same levels (distance in
  steps from q), the same number of times m_j; on a run it leaves chips
  only where m_j changes and at the run's top, so only there does it split
  the run.

So after every round d and sigma equal the unit graph's at every vertex,
and Dhar's criterion argues correctness as above.  A round costs
O(nodes + edges), whatever the lengths of the runs; the debt clearing
costs a sort more, since it works only at the levels where a node, a run's
top or the start of a climb sits.  That is the one step in which
`_kernel.c` differs: it clears the debt over every level, with arrays of
one entry a level, and fires the same balls the same number of times.
sigma is kept on nodes only: on a run, L @ sigma = div - d is 0, so sigma
is linear between the run's two nodes.  It is filled in once, at the end,
and read off that line where a corridor lands inside a run.  What is still
O(n) a call is C-level list work: one count over div for chips inside
pieces, and the length-n vectors out.

The contracted graph numbers its nodes densely: `vid` maps a node to its
vertex, edge e has the half-edges 2e (at its first end) and 2e + 1, `hend`
maps a half-edge to its node, `adj` lists each node's half-edges, and the
run of e is `range(estart[e], estart[e] + elen[e] - 1)`, from its first end
on: a piece table numbers the vertices inside a piece consecutively.
"""

import heapq
from bisect import bisect_left, bisect_right, insort
from itertools import accumulate, compress, islice
from operator import eq

BACKEND = "python"
_BAD_PIECES = ("pieces must join two distinct stops each and number every "
               "other vertex once")


def _burn(adj, hend, d, q):
    """Dhar's fire from node q: (burnt, cnt), one flag and one count per node.

    A node burns once more of its edges lead to burnt nodes than it has
    chips.  `cnt[v]` counts the edges from an unburnt v to burnt nodes; a
    run between two unburnt nodes does not burn.
    """
    burnt = bytearray(len(adj))
    burnt[q] = 1
    cnt = [0] * len(adj)
    queue = [q]
    for u in queue:
        for h in adj[u]:
            v = hend[h ^ 1]
            if not burnt[v]:
                cnt[v] += 1
                if cnt[v] > d[v]:
                    burnt[v] = 1
                    queue.append(v)
    return burnt, cnt


class _Chains:
    """The chain-contracted graph; see the module notes.  Built by
    `_of_pieces`."""

    def __init__(self, n, vid, d, hend, elen, estart):
        self.n = n
        self.vid = vid
        self.d = d
        self.sigma = [0] * len(vid)
        self.hend = hend
        self.elen = elen
        self.estart = estart
        self.adj = adj = [[] for _ in vid]
        for h, x in enumerate(hend):
            adj[x].append(h)

    def split(self, h, t, chips, sigma):
        """Make the vertex t steps along half-edge h from its node a node.

        0 < t < the edge's length.  The edge keeps its first end and a new
        edge f takes its second; returns 2f, the new node's half-edge
        towards that end.
        """
        elen, hend, adj = self.elen, self.hend, self.adj
        e = h >> 1
        length = elen[e]
        i = length - t if h & 1 else t
        x = len(adj)
        f = len(elen)
        b = hend[2 * e + 1]
        self.vid.append(self.estart[e] + i - 1)
        self.d.append(chips)
        self.sigma.append(sigma)
        adj.append([2 * e + 1, 2 * f])
        adjb = adj[b]
        adjb[adjb.index(2 * e + 1)] = 2 * f + 1
        hend[2 * e + 1] = x
        hend += (x, b)
        elen[e] = i
        elen.append(length - i)
        self.estart.append(self.estart[e] + i)
        return 2 * f

    def levels(self):
        """Distance in unit steps from q to each node (Dijkstra)."""
        adj, hend, elen = self.adj, self.hend, self.elen
        lev = [self.n] * len(adj)  # more than any distance
        lev[self.q] = 0
        heap = [(0, self.q)]
        while heap:
            lx, x = heapq.heappop(heap)
            if lx > lev[x]:
                continue
            for h in adj[x]:
                y = hend[h ^ 1]
                ly = lx + elen[h >> 1]
                if ly < lev[y]:
                    lev[y] = ly
                    heapq.heappush(heap, (ly, y))
        return lev

    def clear_debt(self):
        """Stage 1: fire the balls around q, outermost first, as the unit
        graph does, until no vertex but q is in debt.

        Ball j (the vertices at level <= j) fires m_j times, the least that
        clears the debt at level j + 1 left after ball j + 1 fired.  So a
        vertex at level l fires S(l), the sum of m_j over j >= l, and ends
        with the second difference of S along its edges as chips.  On a run
        the levels climb from each end to a top, one step at a time; a
        vertex on a climb owes m_l when ball l has fired, so m_(l-1) >= m_l
        there.  Its chips, m_(l-1) - m_l, are 0 unless m changes at l, so
        chips fall only at such levels and at the top.

        m and S are computed only at the event levels: where a node sits,
        where a run has its top, and where a climb starts.  That is exact.
        Every level from 0 to the top holds a vertex, and one at a level
        with no node and no run's top lies inside a run, on a climb; it
        holds no chip and owes m_l, so m_(l-1) = m_l.  So between two event
        levels m is constant and S is linear, and the count of climbing
        runs changes only at event levels.  The balls fired, their m_j and
        the splits are those of the loop over every level.
        """
        adj, hend, elen, d = self.adj, self.hend, self.elen, self.d
        lev = self.levels()
        # each run as (edge, first end's level, second end's, the level of
        # its top, which is (a + b + L) // 2); climbs[l]: how many more runs
        # climb through level l (from l - 1 to l + 1) than through l - 1
        runs = []
        climbs = {}
        for e, L in enumerate(elen):
            if L > 1:
                a, b = lev[hend[2 * e]], lev[hend[2 * e + 1]]
                top = (a + b + L) // 2
                runs.append((e, a, b, top))
                climbs.setdefault(top, 0)
                for lo in (a, b):
                    if top > lo + 1:
                        climbs[lo + 1] = climbs.get(lo + 1, 0) + 1
                        climbs[top] -= 1
        down = [0] * len(adj)
        up = [0] * len(adj)
        at = {}
        for x, lx in enumerate(lev):
            for h in adj[x]:
                # the next vertex along h is at level min(lx + 1, this)
                lnext = lev[hend[h ^ 1]] + elen[h >> 1] - 1
                if lnext < lx:
                    down[x] += 1
                elif lnext > lx:
                    up[x] += 1
            at.setdefault(lx, []).append(x)
        # at each event level l, from the top down: below[l] = m_(l-1),
        # here[l] = m_l, fired[l] = S(l); changes: the levels l with
        # m_(l-1) != m_l, ascending.  At the top level m and S are 0, and
        # no run climbs through it; below it, m_l = m_(u-1) and S(l) =
        # S(u) + (u - l) m_(u-1) for u the next event level up.
        below, here, fired = {}, {}, {}
        changes = []
        c = m = s = 0   # climbing runs, m_l and S(l) at the level l
        upper = None
        for lv in sorted(at.keys() | climbs.keys(), reverse=True):
            if upper is not None:
                c -= climbs.get(upper, 0)
                m = below[upper]
                s = fired[upper] + (upper - lv) * m
            here[lv], fired[lv] = m, s
            if lv:
                mj = m if c else 0
                for x in at.get(lv, ()):
                    owe = m * up[x] - d[x]
                    if owe > 0:
                        need = -(-owe // down[x])
                        if need > mj:
                            mj = need
                below[lv] = mj
                if mj != m:
                    changes.append(lv)
            upper = lv
        changes.reverse()

        for x, lx in enumerate(lev):
            if lx:
                d[x] += below[lx] * down[x]
            d[x] -= here[lx] * up[x]
            self.sigma[x] = fired[lx]
        split = self.split
        for e, a, b, top in runs:
            # marks (steps from the first end, chips, level) on the climb
            # from the first end, at the top, on the climb from the second
            L = elen[e]
            steps = top - a
            climb_a = changes[bisect_left(changes, a + 1):
                              bisect_left(changes, top)]
            climb_b = changes[bisect_left(changes, b + 1):
                              bisect_left(changes, top)]
            marks = [(lv - a, below[lv] - here[lv], lv) for lv in climb_a]
            if (a + b + L) % 2:
                # a flat pair at the top: each has one neighbour below
                marks += [(i, below[top], top) for i in (steps, steps + 1)
                          if 0 < i < L]
            elif 0 < steps < L:
                # a peak: both neighbours below
                marks.append((steps, 2 * below[top], top))
            marks += [(L + b - lv, below[lv] - here[lv], lv)
                      for lv in reversed(climb_b)]
            h, offset = 2 * e, 0
            for i, chips, lv in marks:
                if chips:
                    h = split(h, i - offset, chips, fired[lv])
                    offset = i

    def fire_round(self, burnt, cnt):
        """Stage 2: one round of Dhar's burning, from its fire."""
        adj, hend, elen, d, sigma = (self.adj, self.hend, self.elen, self.d,
                                     self.sigma)
        q = self.q
        unburnt = [x for x in range(len(adj)) if not burnt[x]]
        k = min(d[x] // cnt[x] for x in unburnt if cnt[x])
        exits = [h for x in unburnt if cnt[x]
                 for h in adj[x] if burnt[hend[h ^ 1]]]
        eps = self.n  # no corridor is longer
        for h in exits:
            t = elen[h >> 1]
            x = hend[h ^ 1]
            while t < eps and x != q and d[x] == 0 and len(adj[x]) == 2:
                h = adj[x][adj[x][0] == h ^ 1]
                t += elen[h >> 1]
                x = hend[h ^ 1]
            eps = min(eps, t)
        # the corridors are disjoint, so each walks edges no other one
        # splits; a node's sigma is read before this round adds to it
        for h in exits:
            s = sigma[hend[h]]
            t = 0
            while True:
                L = elen[h >> 1]
                x = hend[h ^ 1]
                if t + L > eps:
                    # land inside this edge, where sigma was linear
                    slope = (sigma[x] - s) // L
                    self.split(h, eps - t, k, s + slope * (eps - t))
                    break
                t += L
                if t == eps:
                    d[x] += k
                    break
                s = sigma[x]
                sigma[x] = s + k * (eps - t)
                h = adj[x][adj[x][0] == h ^ 1]
        for x in unburnt:
            sigma[x] += k * eps
            d[x] -= k * cnt[x]

    def unit_vectors(self):
        """(d, sigma) on the unit vertices, sigma filled in along the runs
        and normalized to sigma[q] == 0.  Each run's sigma is one range,
        written with one slice assignment."""
        n = self.n
        base = self.sigma[self.q]
        sig = [s - base for s in self.sigma]
        d = [0] * n
        sigma = [0] * n
        for v, dv, sv in zip(self.vid, self.d, sig):
            d[v] = dv
            sigma[v] = sv
        hend = self.hend
        for e, (L, start) in enumerate(zip(self.elen, self.estart)):
            if L > 1:
                sa = sig[hend[2 * e]]
                slope = (sig[hend[2 * e + 1]] - sa) // L
                sigma[start:start + L - 1] = (
                    range(sa + slope, sa + slope * L, slope) if slope
                    else [sa] * (L - 1))
        return d, sigma


def _of_pieces(n, pieces, div, q):
    """The contracted graph of a piece table, with no walk over the points.

    The stops are the nodes and the pieces the edges; a chip or q inside a
    piece becomes a node by `split`, its piece found by bisection on the
    first interior indices."""
    ends, lengths, firsts = pieces[:3]
    stops = firsts[0] if firsts else n
    sizes = [length - 1 for length in lengths]
    if (len(ends) != 2 * len(sizes) or min(sizes, default=0) < 0
            or [*accumulate(sizes, initial=stops)] != [*firsts, n]
            or min(ends, default=0) < 0 or max(ends, default=0) >= stops
            or any(map(eq, ends[::2], ends[1::2]))):
        raise ValueError(_BAD_PIECES)
    g = _Chains(n, list(range(stops)), list(islice(div, stops)), list(ends),
                list(lengths), list(firsts))
    adj, hend = g.adj, g.hend
    seen = bytearray(stops)
    seen[0] = 1
    queue = [0]
    for x in queue:
        for h in adj[x]:
            y = hend[h ^ 1]
            if not seen[y]:
                seen[y] = 1
                queue.append(y)
    if len(queue) != stops:
        raise ValueError("graph must be connected")
    g.q = q
    # the vertices inside pieces with chips: none, most often, which one
    # count over a copy tells faster than a scan for their indices
    rest = div[stops:]
    inner = (list(compress(range(stops, n), rest))
             if rest.count(0) < len(rest) else [])
    if q >= stops and not div[q]:
        insort(inner, q)
    k = -1
    for v in inner:
        j = bisect_right(firsts, v) - 1
        t = v - firsts[j] + 1   # steps from the piece's first stop
        if j != k:
            k, h, at = j, 2 * j, 0
        h = g.split(h, t - at, div[v], 0)
        at = t
        if v == q:
            g.q = len(g.vid) - 1
    return g


def reduce_divisor(div, q, pieces):
    """q-reduce an integer divisor vector by chip-firing.

    Returns (reduced, sigma) with reduced = div - L @ sigma for the graph
    Laplacian L, sigma normalized so sigma[q] == 0.  The reduced vector is
    non-negative away from q and unburnable from q (Dhar's criterion).

    div has one entry per vertex, so n = len(div).  pieces: the graph as a
    piece table, whose first three columns the kernel reads: (ends,
    lengths, firsts).  Vertices 0 .. S - 1 are the stops; piece k joins
    stops ends[2k] and ends[2k + 1] by lengths[k] unit steps, and its
    lengths[k] - 1 interior vertices are numbered firsts[k], firsts[k] + 1,
    ... from its first stop on, so firsts runs from S up and the pieces
    number every vertex from S to n - 1 once.  With no piece, every vertex
    is a stop.
    """
    n = len(div)
    if not 0 <= q < n:
        raise ValueError("q out of range")
    g = _of_pieces(n, pieces, div, q)
    if min(g.d[:g.q] + g.d[g.q + 1:], default=0) < 0:
        g.clear_debt()
    while True:
        burnt, cnt = _burn(g.adj, g.hend, g.d, g.q)
        if all(burnt):
            break
        g.fire_round(burnt, cnt)
    return g.unit_vectors()
