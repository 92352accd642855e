"""Pure-Python chip-firing kernel.

Same interface as the compiled extension `_kernel` (built from `_kernel.c`,
which mirrors this module step by step).  `kernel` uses this module when the
extension is not built, and reruns an input here when the extension's int64
arithmetic would overflow: Python integers are exact.  Graphs arrive in CSR
form: `indptr[v]:indptr[v+1]` slices `nbrs` to the neighbours of v, with
parallel edges repeated.  Loops are not allowed here — callers split them
first.

`reduce_divisor` first clears the debt outside q by firing balls around q,
then q-reduces by Dhar's burning algorithm in its metric form (Luo,
arXiv:0906.2807).  Each round burns from q.  If a set U stays unburnt, every
v on U's boundary holds d[v] >= cnt[v], its edge count into the burnt set,
so U can fire k = min d[v] // cnt[v] times.  Each edge from U into the
burnt set starts a corridor c_1, c_2, ...: the walk goes on through
vertices of degree 2 that hold no chip and are not q (the fire reached them
from the far end, so they are burnt), and its length L counts the vertices
walked, the last one included.  With eps the shortest L, the round fires
the nested sets

    U,  U + {c_1 of every corridor},  ...,  U + {c_1 .. c_(eps-1) of each}

k times each.  Every firing is legal: after the first, each c_i holds the k
chips that arrived over its one edge from the set and sends them on over its
other edge, and U loses nothing more.  So the round moves k chips per edge
from U to the corridor's vertex c_eps, adds k*eps to sigma on U and
k*(eps - i) on c_i, and leaves d >= 0 off q.  Chips thus cross a chip-free
corridor in one round, however long it is.  The loop ends when the fire
burns everything, which is Dhar's criterion for a q-reduced divisor; that
divisor, and sigma with sigma[q] == 0, are unique, so the order of the
firings never changes the answer.
"""

from collections import deque

BACKEND = "python"


def _burn(indptr, nbrs, d, q):
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


def reduce_divisor(indptr, nbrs, div, q):
    """q-reduce an integer divisor vector by chip-firing.

    Returns (reduced, sigma) with reduced = div - L @ sigma for the graph
    Laplacian L, sigma normalized so sigma[q] == 0.  The reduced vector is
    non-negative away from q and unburnable from q (Dhar's criterion).
    """
    n = len(indptr) - 1
    d = list(div)
    if not (0 <= q < n):
        raise ValueError("q out of range")
    sigma = [0] * n

    # BFS levels from q; Dhar burning diverges on a disconnected graph, so
    # reject those up front
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
        burnt, cnt = _burn(indptr, nbrs, d, q)
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
