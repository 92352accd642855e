"""Pure-Python chip-firing kernel.

Same interface as the compiled extension `_kernel` (built from `_kernel.c`,
which mirrors this module step by step).  `kernel` uses this module when the
extension is not built, and reruns an input here when the extension's int64
arithmetic would overflow: Python integers are exact.  Graphs arrive in CSR
form: `indptr[v]:indptr[v+1]` slices `nbrs` to the neighbours of v, with
parallel edges repeated.  Loops are not allowed here — callers split them
first.
"""

from collections import deque

BACKEND = "python"


def _slide_bridges(indptr, nbrs, d, sigma, q, lvl):
    """Teleport chips across chip-free degree-2 corridors toward q.

    Only fires when the corridor is a genuine bridge (the region behind the
    chip has no other edge to the corridor's endpoint), in which case the
    composite move is exactly -1 at the chip and +1 at the endpoint.  Pure
    accelerator: the caller's final burn still certifies reducedness.
    """
    n = len(indptr) - 1
    moved = True
    while moved:
        moved = False
        for v in range(n):
            if v == q or d[v] <= 0:
                continue
            for i in range(indptr[v], indptr[v + 1]):
                w = nbrs[i]
                if lvl[w] >= lvl[v]:
                    continue
                chain = [v, w]
                cur, prev = w, v
                while (cur != q and d[cur] == 0
                       and indptr[cur + 1] - indptr[cur] == 2):
                    a = nbrs[indptr[cur]]
                    b = nbrs[indptr[cur] + 1]
                    nxt = b if a == prev else a
                    if nxt == prev:
                        break
                    chain.append(nxt)
                    prev, cur = cur, nxt
                s = len(chain) - 1
                end = chain[-1]
                if s < 2 or lvl[end] >= lvl[v]:
                    continue
                if (end != q and d[end] == 0
                        and indptr[end + 1] - indptr[end] == 2):
                    continue
                blocked = set(chain[1:-1])
                seen = {v}
                stack = [v]
                wrapped = False
                while stack:
                    u = stack.pop()
                    for j in range(indptr[u], indptr[u + 1]):
                        x = nbrs[j]
                        if x == end:
                            wrapped = True
                            break
                        if x not in seen and x not in blocked:
                            seen.add(x)
                            stack.append(x)
                    if wrapped:
                        break
                if wrapped:
                    continue
                for u in seen:
                    sigma[u] += s
                for idx in range(1, s):
                    sigma[chain[idx]] += s - idx
                d[v] -= 1
                d[end] += 1
                moved = True
                break


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

    lvl = level

    # stage 2: Dhar burning; fire the unburnt set as many times as it allows
    while True:
        burnt = bytearray(n)
        burnt[q] = 1
        cnt = [0] * n    # edges into the burnt set
        queue = deque([q])
        nburnt = 1
        while queue:
            u = queue.popleft()
            for i in range(indptr[u], indptr[u + 1]):
                v = nbrs[i]
                if not burnt[v]:
                    cnt[v] += 1
                    if cnt[v] > d[v]:
                        burnt[v] = 1
                        nburnt += 1
                        queue.append(v)
        if nburnt == n:
            break
        k = -1
        for v in range(n):
            if not burnt[v] and cnt[v] > 0:
                kv = d[v] // cnt[v]
                if k < 0 or kv < k:
                    k = kv
        if k < 1:
            k = 1
        for v in range(n):
            if not burnt[v]:
                sigma[v] += k
                d[v] -= k * cnt[v]
                for i in range(indptr[v], indptr[v + 1]):
                    u = nbrs[i]
                    if burnt[u]:
                        d[u] += k
        _slide_bridges(indptr, nbrs, d, sigma, q, lvl)
    base = sigma[q]
    if base:
        for v in range(n):
            sigma[v] -= base
    return d, sigma
