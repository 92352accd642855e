"""Pure-Python chip-firing kernel on the chain-contracted graph.

Same interface as the compiled extension `_kernel` (built from `_kernel.c`,
which mirrors this module step by step).  `kernel` uses this module when the
extension is not built, and reruns an input here when the extension's int64
arithmetic would overflow: Python integers are exact.  Graphs arrive in CSR
form: `indptr[v]:indptr[v+1]` slices `nbrs` to the neighbours of v, with
parallel edges repeated.  Loops are not allowed here — callers split them
first.

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

The kernel does not walk the unit graph in each round.  One pass from q
checks connectivity and contracts every maximal run of vertices that have
degree 2, are not q and hold no chip into one edge whose length L counts
its unit steps; every other vertex is a node.  Any vertex that gets chips
becomes a node by splitting its edge: a deposit of the debt clearing, or
the landing point c_eps of a corridor.  Chips then sit on nodes only, and
the contracted graph makes the unit graph's rounds, round for round:

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
O(nodes + edges), whatever the lengths of the runs.  sigma is kept on nodes
only: on a run, L @ sigma = div - d is 0, so sigma is linear between the
run's two nodes.  It is filled in once, at the end, and read off that line
where a corridor lands inside a run.

The contracted graph numbers its nodes densely: `vid` maps a node to its
vertex, edge e has the half-edges 2e (at its first end) and 2e + 1, `hend`
maps a half-edge to its node, `adj` lists each node's half-edges, and the
run of e is `path[estart[e] : estart[e] + elen[e] - 1]`, from its first end
on.
"""

import heapq
from bisect import bisect_left
from itertools import accumulate, count

BACKEND = "python"
_MALFORMED = "CSR must list each edge at both ends and have no loops"


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
    """The chain-contracted graph of a CSR graph; see the module notes."""

    def __init__(self, indptr, nbrs, div, q):
        self.n = n = len(indptr) - 1
        vid = [v for v, a, b, x in zip(range(n), indptr, indptr[1:], div)
               if x or b - a != 2 or v == q]
        node = [-1] * n
        for x, v in enumerate(vid):
            node[v] = x
        self.vid = vid
        self.d = [div[v] for v in vid]
        self.sigma = [0] * len(vid)
        self.adj = adj = [[] for _ in vid]
        self.hend = hend = []
        self.elen = elen = []
        self.estart = estart = []
        self.path = path = []
        self.q = node[q]
        # one walk from q checks connectivity and finds each run once: a
        # direct edge from its end that the walk takes up first, a run from
        # the end that first walks it
        seen = bytearray(n)
        done = bytearray(len(vid))
        queue = [self.q]
        seen[q] = 1
        for a in queue:
            done[a] = 1
            u = vid[a]
            for v in nbrs[indptr[u]:indptr[u + 1]]:
                b = node[v]
                start = len(path)
                if b >= 0:
                    if done[b]:
                        continue
                    length = 1
                elif seen[v]:
                    continue
                else:
                    prev = u
                    while b < 0:
                        if seen[v]:
                            raise ValueError(_MALFORMED)
                        seen[v] = 1
                        path.append(v)
                        j = indptr[v]
                        w = nbrs[j]
                        if w == prev:
                            w = nbrs[j + 1]
                        prev, v = v, w
                        b = node[v]
                    length = len(path) - start + 1
                e = len(elen)
                hend += (a, b)
                elen.append(length)
                estart.append(start)
                adj[a].append(2 * e)
                adj[b].append(2 * e + 1)
                if not seen[v]:
                    seen[v] = 1
                    queue.append(b)
        if any(len(hs) > indptr[v + 1] - indptr[v]
               for v, hs in zip(vid, adj) if hs):
            raise ValueError(_MALFORMED)
        if len(queue) + len(path) != n:
            raise ValueError("graph must be connected")

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
        self.vid.append(self.path[self.estart[e] + i - 1])
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
        """
        adj, hend, elen, d = self.adj, self.hend, self.elen, self.d
        lev = self.levels()
        # each run as (edge, first end's level, second end's, the level of
        # its top, which is (a + b + L) // 2)
        runs = []
        for e, L in enumerate(elen):
            if L > 1:
                a, b = lev[hend[2 * e]], lev[hend[2 * e + 1]]
                runs.append((e, a, b, (a + b + L) // 2))
        maxlev = max([max(lev)] + [top for _, _, _, top in runs])
        # climbs[l]: how many runs climb through level l, from l - 1 to l + 1
        climbs = [0] * (maxlev + 2)
        for _, a, b, top in runs:
            for lo in (a, b):
                if top > lo + 1:
                    climbs[lo + 1] += 1
                    climbs[top] -= 1
        climbs = list(accumulate(climbs))
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
        # ms[j] = m_j; fired[l] = S(l); changes: the levels l with
        # m_(l-1) != m_l, ascending
        ms = [0] * (maxlev + 1)
        fired = [0] * (maxlev + 1)
        changes = []
        mnext = 0
        for j in range(maxlev - 1, -1, -1):
            mj = mnext if climbs[j + 1] else 0
            for x in at.get(j + 1, ()):
                owe = mnext * up[x] - d[x]
                if owe > 0:
                    need = -(-owe // down[x])
                    if need > mj:
                        mj = need
            if mj != mnext:
                changes.append(j + 1)
            ms[j] = mnext = mj
            fired[j] = fired[j + 1] + mj
        changes.reverse()

        for x, lx in enumerate(lev):
            if lx:
                d[x] += ms[lx - 1] * down[x]
            d[x] -= ms[lx] * up[x]
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
            marks = [(lv - a, ms[lv - 1] - ms[lv], lv) for lv in climb_a]
            if (a + b + L) % 2:
                # a flat pair at the top: each has one neighbour below
                marks += [(i, ms[top - 1], top) for i in (steps, steps + 1)
                          if 0 < i < L]
            elif 0 < steps < L:
                # a peak: both neighbours below
                marks.append((steps, 2 * ms[top - 1], top))
            marks += [(L + b - lv, ms[lv - 1] - ms[lv], lv)
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
        and normalized to sigma[q] == 0."""
        n = self.n
        base = self.sigma[self.q]
        sig = [s - base for s in self.sigma]
        d = [0] * n
        sigma = [0] * n
        for v, dv, sv in zip(self.vid, self.d, sig):
            d[v] = dv
            sigma[v] = sv
        hend, path = self.hend, self.path
        for e, (L, start) in enumerate(zip(self.elen, self.estart)):
            if L > 1:
                sa = sig[hend[2 * e]]
                slope = (sig[hend[2 * e + 1]] - sa) // L
                for v, s in zip(path[start:start + L - 1],
                                count(sa + slope, slope)):
                    sigma[v] = s
        return d, sigma


def reduce_divisor(indptr, nbrs, div, q):
    """q-reduce an integer divisor vector by chip-firing.

    Returns (reduced, sigma) with reduced = div - L @ sigma for the graph
    Laplacian L, sigma normalized so sigma[q] == 0.  The reduced vector is
    non-negative away from q and unburnable from q (Dhar's criterion).
    """
    n = len(indptr) - 1
    if not 0 <= q < n:
        raise ValueError("q out of range")
    if len(div) != n:
        raise ValueError("div needs one entry per vertex")
    if (min(indptr) < 0 or max(indptr) > len(nbrs)
            or (nbrs and (min(nbrs) < 0 or max(nbrs) >= n))):
        raise ValueError("CSR index out of range")
    g = _Chains(indptr, nbrs, div, q)
    if min(g.d[:g.q] + g.d[g.q + 1:], default=0) < 0:
        g.clear_debt()
    while True:
        burnt, cnt = _burn(g.adj, g.hend, g.d, g.q)
        if all(burnt):
            break
        g.fire_round(burnt, cnt)
    return g.unit_vectors()
