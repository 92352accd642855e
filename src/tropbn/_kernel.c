/* Compiled chip-firing kernel on the chain-contracted graph.

   Mirrors `_kernel_py.reduce_divisor` on a CSR graph step by step; see
   that module for the algorithm notes.  Same interface:
   reduce_divisor(indptr, nbrs, div, q, *, pieces=None) -> (reduced,
   sigma), with the same errors.  It takes the keyword-only piece table
   and ignores it: this kernel always walks the CSR, whose pass is C code,
   where the pure kernel builds from the pieces to skip a Python loop over
   the lattice points.  Its debt clearing runs over every level with
   arrays of length maxlev; the pure one works at event levels only, and
   both fire the same balls the same number of times.

   One pass from q checks connectivity and contracts every maximal run of
   vertices that have degree 2, are not q and hold no chip into one edge of
   integer length, its number of unit steps; every other vertex is a node.
   A vertex that gets chips becomes a node by splitting its edge: a deposit
   of the debt clearing, or the landing point of a corridor.  The debt
   clearing fires the same balls around q, the same number of times, as on
   the unit graph, and each round of Dhar's burning fires the same sets the
   same number of times; a corridor crosses an edge of length L in L steps.
   So after every round d and sigma equal the unit graph's at every vertex,
   and a round costs O(nodes + edges).  sigma is kept on nodes and filled
   in along each run at the end, where it is linear.

   The contracted graph (struct chains) numbers its nodes densely.  Edge e
   has the half-edges 2e (at its first end) and 2e + 1; hend[] gives a
   half-edge's node, and node x lists its half-edges in
   adjv[adjs[x] .. adjs[x] + adjn[x]).  A node of the input has room for
   as many half-edges as its degree, a split node for two.  The run of e is
   path[estart[e] .. estart[e] + elen[e] - 1), from its first end on.

   Chip counts and firing multiplicities are C long long.  Every add,
   subtract and multiply on them is checked, and an overflow raises
   OverflowError instead of wrapping; `tropbn.kernel` then reruns the input
   on the pure-Python kernel, whose integers are exact.  The CSR arrays are
   checked before use, so no index read leaves them, and a CSR that does
   not list each edge at both ends raises ValueError where it would overfill
   a node's list.

   Build: `python setup.py build` (an optional setuptools Extension).  This
   file is the source; nothing generates it.
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdlib.h>
#include <string.h>

typedef long long i64;
typedef Py_ssize_t idx;

/* Portable int64 bound tests, for b >= 0 (which holds at every call:
   chip transfers, multiplicities and edge counts are never negative).  Each
   stores the result in *r and returns 0, or returns -1 on overflow.  The
   few operations left unchecked below say why they cannot overflow. */

static int
add64(i64 a, i64 b, i64 *r)
{
    if (a > LLONG_MAX - b)
        return -1;
    *r = a + b;
    return 0;
}

static int
sub64(i64 a, i64 b, i64 *r)
{
    if (a < LLONG_MIN + b)
        return -1;
    *r = a - b;
    return 0;
}

/* also needs a >= 0 */
static int
mul64(i64 a, i64 b, i64 *r)
{
    if (b != 0 && a > LLONG_MAX / b)
        return -1;
    *r = a * b;
    return 0;
}

static int
overflow(void)
{
    PyErr_SetString(PyExc_OverflowError,
                    "chip count or firing multiplicity overflows int64");
    return -1;
}

static int
malformed(void)
{
    PyErr_SetString(PyExc_ValueError,
                    "CSR must list each edge at both ends and have no loops");
    return -1;
}

/* calloc of k items (at least one), with MemoryError set on failure. */
static void *
alloc(idx k, size_t size)
{
    void *p = calloc(k > 0 ? (size_t)k : 1, size);
    if (p == NULL)
        PyErr_NoMemory();
    return p;
}

/* The ints of a Python sequence as a new array; its length goes to *len.
   NULL with an exception set on failure (OverflowError outside int64). */
static i64 *
read_ints(PyObject *obj, const char *name, idx *len)
{
    PyObject *fast = PySequence_Fast(obj, name);
    PyObject **items;
    i64 *out;
    idx i;

    if (fast == NULL)
        return NULL;
    *len = PySequence_Fast_GET_SIZE(fast);
    items = PySequence_Fast_ITEMS(fast);
    out = alloc(*len, sizeof *out);
    for (i = 0; out != NULL && i < *len; i++) {
        out[i] = PyLong_AsLongLong(items[i]);
        if (out[i] == -1 && PyErr_Occurred()) {
            free(out);
            out = NULL;
        }
    }
    Py_DECREF(fast);
    return out;
}

static PyObject *
to_list(const i64 *a, idx n)
{
    PyObject *list = PyList_New(n);
    idx i;

    for (i = 0; list != NULL && i < n; i++) {
        PyObject *x = PyLong_FromLongLong(a[i]);
        if (x == NULL) {
            Py_CLEAR(list);
            break;
        }
        PyList_SET_ITEM(list, i, x);
    }
    return list;
}

/* The first index in a[0 .. len) whose value is >= key (a ascending). */
static idx
lower_bound(const idx *a, idx len, idx key)
{
    idx lo = 0, hi = len, mid;

    while (lo < hi) {
        mid = lo + (hi - lo) / 2;
        if (a[mid] < key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

typedef struct {
    idx n, q;                   /* unit vertices; q's node */
    idx nn, ne, npath, nslot;   /* nodes, edges, run vertices, slots used */
    idx *vid, *adjs, *adjn, *adjcap;            /* per node */
    i64 *d, *sigma;                             /* per node */
    idx *adjv;                                  /* half-edge slots */
    idx *hend;                                  /* per half-edge */
    idx *elen, *estart;                         /* per edge */
    idx *path;                                  /* run vertices */
} chains;

static void
chains_free(chains *g)
{
    free(g->vid);
    free(g->adjs);
    free(g->adjn);
    free(g->adjcap);
    free(g->d);
    free(g->sigma);
    free(g->adjv);
    free(g->hend);
    free(g->elen);
    free(g->estart);
    free(g->path);
}

/* Half-edge h at node x, or -1 when x's list is full. */
static int
add_half(chains *g, idx x, idx h)
{
    if (g->adjn[x] >= g->adjcap[x])
        return malformed();
    g->adjv[g->adjs[x] + g->adjn[x]++] = h;
    return 0;
}

/* The half-edge of the degree-2 node x that is not h. */
static idx
other_half(const chains *g, idx x, idx h)
{
    const idx *s = g->adjv + g->adjs[x];

    return s[0] == h ? s[1] : s[0];
}

/* Contract the graph; 0, or -1 with an exception set. */
static int
contract(chains *g, const i64 *ip, const i64 *nb, const i64 *div, idx q)
{
    idx n = g->n, v, x, a, b, u, w, i, iend, j, prev, len, start, head, tail;
    idx deg, slots = 0, *node = NULL, *queue = NULL;
    char *seen = NULL, *done = NULL;
    int rc = -1;

    if ((node = alloc(n, sizeof *node)) == NULL
        || (seen = alloc(n, 1)) == NULL
        || (g->vid = alloc(n, sizeof *g->vid)) == NULL
        || (g->adjs = alloc(n, sizeof *g->adjs)) == NULL
        || (g->adjn = alloc(n, sizeof *g->adjn)) == NULL
        || (g->adjcap = alloc(n, sizeof *g->adjcap)) == NULL
        || (g->d = alloc(n, sizeof *g->d)) == NULL
        || (g->sigma = alloc(n, sizeof *g->sigma)) == NULL
        || (g->path = alloc(n, sizeof *g->path)) == NULL)
        goto done;
    /* nodes: q, every vertex of degree other than 2, every vertex with
       chips; a vertex that is not a node has exactly two CSR entries */
    for (v = 0; v < n; v++) {
        deg = (idx)(ip[v + 1] - ip[v]);
        node[v] = -1;
        if (v == q || div[v] != 0 || deg != 2) {
            x = g->nn++;
            node[v] = x;
            g->vid[x] = v;
            g->d[x] = div[v];
            g->adjs[x] = slots;
            g->adjcap[x] = deg > 0 ? deg : 0;
            slots += g->adjcap[x];
        }
    }
    /* each edge takes a slot at both ends, each split adds one edge and
       two slots, and there are at most n nodes */
    g->nslot = slots;
    if ((g->adjv = alloc(slots + 2 * n, sizeof *g->adjv)) == NULL
        || (g->hend = alloc(2 * (slots + n), sizeof *g->hend)) == NULL
        || (g->elen = alloc(slots + n, sizeof *g->elen)) == NULL
        || (g->estart = alloc(slots + n, sizeof *g->estart)) == NULL
        || (queue = alloc(g->nn, sizeof *queue)) == NULL
        || (done = alloc(g->nn, 1)) == NULL)
        goto done;
    g->q = node[q];

    /* one walk from q checks connectivity and finds each run once: a
       direct edge from its end that the walk takes up first, a run from
       the end that first walks it */
    seen[q] = 1;
    queue[0] = g->q;
    tail = 1;
    for (head = 0; head < tail; head++) {
        a = queue[head];
        done[a] = 1;
        u = g->vid[a];
        for (i = (idx)ip[u], iend = (idx)ip[u + 1]; i < iend; i++) {
            v = (idx)nb[i];
            b = node[v];
            start = g->npath;
            if (b >= 0) {
                if (done[b])
                    continue;
                len = 1;
            }
            else if (seen[v])
                continue;
            else {
                prev = u;
                len = 1;
                while (b < 0) {
                    if (seen[v]) {
                        malformed();
                        goto done;
                    }
                    seen[v] = 1;
                    g->path[g->npath++] = v;
                    j = (idx)ip[v];
                    w = (idx)nb[j];
                    if (w == prev)
                        w = (idx)nb[j + 1];
                    prev = v;
                    v = w;
                    b = node[v];
                    len++;
                }
            }
            if (add_half(g, a, 2 * g->ne) || add_half(g, b, 2 * g->ne + 1))
                goto done;
            g->hend[2 * g->ne] = a;
            g->hend[2 * g->ne + 1] = b;
            g->elen[g->ne] = len;
            g->estart[g->ne++] = start;
            if (!seen[v]) {
                seen[v] = 1;
                queue[tail++] = b;
            }
        }
    }
    if (tail + g->npath != n) {
        PyErr_SetString(PyExc_ValueError, "graph must be connected");
        goto done;
    }
    rc = 0;
done:
    free(node);
    free(seen);
    free(queue);
    free(done);
    return rc;
}

/* Make the vertex t steps along half-edge h from its node a node, with
   the given chips and sigma; 0 < t < the edge's length.  The edge keeps
   its first end and a new edge f takes its second; returns 2f, the new
   node's half-edge towards that end. */
static idx
split(chains *g, idx h, idx t, i64 chips, i64 sig)
{
    idx e = h >> 1, len = g->elen[e], i = (h & 1) ? len - t : t;
    idx x = g->nn++, f = g->ne++, b = g->hend[2 * e + 1], s, send;

    g->vid[x] = g->path[g->estart[e] + i - 1];
    g->d[x] = chips;
    g->sigma[x] = sig;
    g->adjs[x] = g->nslot;
    g->adjn[x] = g->adjcap[x] = 2;
    g->nslot += 2;
    g->adjv[g->adjs[x]] = 2 * e + 1;
    g->adjv[g->adjs[x] + 1] = 2 * f;
    for (s = g->adjs[b], send = s + g->adjn[b]; s < send; s++)
        if (g->adjv[s] == 2 * e + 1) {
            g->adjv[s] = 2 * f + 1;
            break;
        }
    g->hend[2 * e + 1] = x;
    g->hend[2 * f] = x;
    g->hend[2 * f + 1] = b;
    g->elen[e] = i;
    g->elen[f] = len - i;
    g->estart[f] = g->estart[e] + i;
    return 2 * f;
}

/* Distance in unit steps from q to each node, by Dijkstra with a binary
   heap of (distance, node); 0, or -1 with MemoryError set. */
static int
levels(const chains *g, idx *lev)
{
    idx cap = 2 * g->ne + 1, size = 0, x, y, ly, lx, s, send, i, c;
    idx *hd = alloc(cap, sizeof *hd), *hx = alloc(cap, sizeof *hx);
    idx td, tx;

    if (hd == NULL || hx == NULL) {
        free(hd);
        free(hx);
        return -1;
    }
    for (x = 0; x < g->nn; x++)
        lev[x] = g->n;  /* more than any distance */
    lev[g->q] = 0;
    hd[0] = 0;
    hx[0] = g->q;
    size = 1;
    while (size > 0) {
        lx = hd[0];
        x = hx[0];
        /* pop: move the last entry to the root and sift it down */
        size--;
        td = hd[size];
        tx = hx[size];
        for (i = 0; (c = 2 * i + 1) < size; i = c) {
            if (c + 1 < size && hd[c + 1] < hd[c])
                c++;
            if (hd[c] >= td)
                break;
            hd[i] = hd[c];
            hx[i] = hx[c];
        }
        hd[i] = td;
        hx[i] = tx;
        if (lx > lev[x])
            continue;
        for (s = g->adjs[x], send = s + g->adjn[x]; s < send; s++) {
            y = g->hend[g->adjv[s] ^ 1];
            ly = lx + g->elen[g->adjv[s] >> 1];
            if (ly < lev[y]) {
                lev[y] = ly;
                /* push: each half-edge pushes at most once, as its node
                   is settled once */
                for (i = size++; i > 0 && hd[(i - 1) / 2] > ly;
                     i = (i - 1) / 2) {
                    hd[i] = hd[(i - 1) / 2];
                    hx[i] = hx[(i - 1) / 2];
                }
                hd[i] = ly;
                hx[i] = y;
            }
        }
    }
    free(hd);
    free(hx);
    return 0;
}

/* Stage 1: fire the balls around q, outermost first, as the unit graph
   does, until no vertex but q is in debt; 0, or -1 with an exception set.
   See `_Chains.clear_debt`. */
static int
clear_debt(chains *g)
{
    idx nn = g->nn, ne = g->ne, x, e, a, b, len, lx, lv, j, s, send, lnext;
    idx top, odd, i, h, offset, lo, hi, nruns = 0, nchanges = 0, maxlev = 0;
    idx *lev = NULL, *runs = NULL, *climbs = NULL, *down = NULL, *up = NULL;
    idx *order = NULL, *lstart = NULL, *changes = NULL;
    i64 *ms = NULL, *fired = NULL, mnext, mj, t, cur, need, chips;
    int rc = -1;

    if ((lev = alloc(nn, sizeof *lev)) == NULL
        || (runs = alloc(ne, sizeof *runs)) == NULL
        || levels(g, lev))
        goto done;
    for (x = 0; x < nn; x++)
        if (lev[x] > maxlev)
            maxlev = lev[x];
    for (e = 0; e < ne; e++)
        if (g->elen[e] > 1) {
            runs[nruns++] = e;
            top = (lev[g->hend[2 * e]] + lev[g->hend[2 * e + 1]]
                   + g->elen[e]) / 2;
            if (top > maxlev)
                maxlev = top;
        }
    if ((climbs = alloc(maxlev + 2, sizeof *climbs)) == NULL
        || (down = alloc(nn, sizeof *down)) == NULL
        || (up = alloc(nn, sizeof *up)) == NULL
        || (order = alloc(nn, sizeof *order)) == NULL
        || (lstart = alloc(maxlev + 2, sizeof *lstart)) == NULL
        || (changes = alloc(maxlev, sizeof *changes)) == NULL
        || (ms = alloc(maxlev + 1, sizeof *ms)) == NULL
        || (fired = alloc(maxlev + 1, sizeof *fired)) == NULL)
        goto done;
    /* climbs[l]: how many runs climb through level l, from l - 1 to l + 1;
       a run's top is at level (a + b + len) / 2 */
    for (j = 0; j < nruns; j++) {
        e = runs[j];
        a = lev[g->hend[2 * e]];
        b = lev[g->hend[2 * e + 1]];
        top = (a + b + g->elen[e]) / 2;
        if (top > a + 1) {
            climbs[a + 1]++;
            climbs[top]--;
        }
        if (top > b + 1) {
            climbs[b + 1]++;
            climbs[top]--;
        }
    }
    for (lv = 1; lv <= maxlev + 1; lv++)
        climbs[lv] += climbs[lv - 1];
    /* up and down edges at each node, and the nodes by level:
       order[lstart[l] .. lstart[l + 1]) */
    for (x = 0; x < nn; x++) {
        for (s = g->adjs[x], send = s + g->adjn[x]; s < send; s++) {
            h = g->adjv[s];
            /* the next vertex along h is at level min(lev[x] + 1, this) */
            lnext = lev[g->hend[h ^ 1]] + g->elen[h >> 1] - 1;
            if (lnext < lev[x])
                down[x]++;
            else if (lnext > lev[x])
                up[x]++;
        }
        lstart[lev[x] + 1]++;
    }
    for (lv = 0; lv <= maxlev; lv++)
        lstart[lv + 1] += lstart[lv];
    for (x = 0; x < nn; x++)
        order[lstart[lev[x]]++] = x;
    for (lv = maxlev; lv > 0; lv--)
        lstart[lv] = lstart[lv - 1];
    lstart[0] = 0;

    /* ms[j] = m_j; fired[l] = S(l); changes: the levels l with
       m_(l-1) != m_l, collected descending and reversed */
    mnext = 0;
    for (j = maxlev - 1; j >= 0; j--) {
        mj = climbs[j + 1] ? mnext : 0;
        for (i = lstart[j + 1]; i < lstart[j + 2]; i++) {
            x = order[i];
            if (mul64(mnext, up[x], &t) || sub64(g->d[x], t, &cur)) {
                overflow();
                goto done;
            }
            if (cur < 0) {
                if (down[x] == 0) {
                    /* a CSR that does not list each edge at both ends;
                       the pure kernel fails here the same way */
                    PyErr_SetString(PyExc_ZeroDivisionError,
                                    "integer division by zero");
                    goto done;
                }
                /* ceil(-cur / down[x]), without negating cur */
                need = cur / down[x];
                if (need == LLONG_MIN) {
                    overflow();
                    goto done;
                }
                need = -need + (cur % down[x] != 0);
                if (need > mj)
                    mj = need;
            }
        }
        if (mj != mnext)
            changes[nchanges++] = j + 1;
        ms[j] = mnext = mj;
        if (add64(fired[j + 1], mj, &fired[j])) {
            overflow();
            goto done;
        }
    }
    for (i = 0; i < nchanges / 2; i++) {
        lv = changes[i];
        changes[i] = changes[nchanges - 1 - i];
        changes[nchanges - 1 - i] = lv;
    }

    for (x = 0; x < nn; x++) {
        lx = lev[x];
        if ((lx > 0 && (mul64(ms[lx - 1], down[x], &t)
                        || add64(g->d[x], t, &g->d[x])))
            || mul64(ms[lx], up[x], &t) || sub64(g->d[x], t, &g->d[x])) {
            overflow();
            goto done;
        }
        g->sigma[x] = fired[lx];
    }
    /* marks on the climb from the first end, at the top, on the climb from
       the second end; the chips of a climb's vertex, m_(l-1) - m_l >= 0,
       fit */
    for (j = 0; j < nruns; j++) {
        e = runs[j];
        a = lev[g->hend[2 * e]];
        b = lev[g->hend[2 * e + 1]];
        len = g->elen[e];
        top = (a + b + len) / 2;
        odd = (a + b + len) % 2;
        h = 2 * e;
        offset = 0;
        lo = lower_bound(changes, nchanges, a + 1);
        hi = lower_bound(changes, nchanges, top);
        for (; lo < hi; lo++) {
            lv = changes[lo];
            h = split(g, h, lv - a - offset, ms[lv - 1] - ms[lv], fired[lv]);
            offset = lv - a;
        }
        /* a flat pair at the top, each with one neighbour below, or a
           peak, with both below */
        for (i = top - a; i <= top - a + odd; i++) {
            if (i <= 0 || i >= len)
                continue;
            chips = ms[top - 1];
            if (!odd && mul64(chips, 2, &chips)) {
                overflow();
                goto done;
            }
            if (chips) {
                h = split(g, h, i - offset, chips, fired[top]);
                offset = i;
            }
        }
        lo = lower_bound(changes, nchanges, b + 1);
        hi = lower_bound(changes, nchanges, top);
        for (; hi > lo; hi--) {
            lv = changes[hi - 1];
            h = split(g, h, len + b - lv - offset, ms[lv - 1] - ms[lv],
                      fired[lv]);
            offset = len + b - lv;
        }
    }
    rc = 0;
done:
    free(lev);
    free(runs);
    free(climbs);
    free(down);
    free(up);
    free(order);
    free(lstart);
    free(changes);
    free(ms);
    free(fired);
    return rc;
}

/* Dhar's fire from q over the nodes; returns how many burnt.  cnt[v]
   counts the edges from an unburnt v to burnt nodes. */
static idx
burn(const chains *g, char *burnt, i64 *cnt, idx *queue)
{
    idx head, tail = 1, u, v, s, send;

    memset(burnt, 0, (size_t)g->nn);
    memset(cnt, 0, (size_t)g->nn * sizeof *cnt);
    burnt[g->q] = 1;
    queue[0] = g->q;
    for (head = 0; head < tail; head++) {
        u = queue[head];
        for (s = g->adjs[u], send = s + g->adjn[u]; s < send; s++) {
            v = g->hend[g->adjv[s] ^ 1];
            if (!burnt[v] && ++cnt[v] > g->d[v]) {
                burnt[v] = 1;
                queue[tail++] = v;
            }
        }
    }
    return tail;
}

/* Stage 2: one round of Dhar's burning, from its fire; 0, or -1 with
   OverflowError set.  See `_Chains.fire_round`. */
static int
fire_round(chains *g, const char *burnt, const i64 *cnt, idx *exits)
{
    idx nn = g->nn, nexits = 0, x, s, send, h, t, eps, len, ex;
    i64 k = -1, kv, keps, sig, slope;

    /* an unburnt v has d[v] >= cnt[v] >= 0, so C division floors here as
       Python's // does; the connectivity check leaves some unburnt v with
       cnt[v] > 0, so k >= 1 */
    for (x = 0; x < nn; x++) {
        if (burnt[x] || cnt[x] == 0)
            continue;
        kv = g->d[x] / cnt[x];
        if (k < 0 || kv < k)
            k = kv;
        for (s = g->adjs[x], send = s + g->adjn[x]; s < send; s++)
            if (burnt[g->hend[g->adjv[s] ^ 1]])
                exits[nexits++] = g->adjv[s];
    }
    eps = g->n;  /* no corridor is longer */
    for (ex = 0; ex < nexits; ex++) {
        h = exits[ex];
        t = g->elen[h >> 1];
        x = g->hend[h ^ 1];
        while (t < eps && x != g->q && g->d[x] == 0 && g->adjn[x] == 2) {
            h = other_half(g, x, h ^ 1);
            t += g->elen[h >> 1];
            x = g->hend[h ^ 1];
        }
        if (t < eps)
            eps = t;
    }
    if (mul64(k, eps, &keps))
        return overflow();
    /* the corridors are disjoint, so each walks edges no other one splits;
       a node's sigma is read before this round adds to it */
    for (ex = 0; ex < nexits; ex++) {
        h = exits[ex];
        sig = g->sigma[g->hend[h]];
        t = 0;
        for (;;) {
            len = g->elen[h >> 1];
            x = g->hend[h ^ 1];
            if (t + len > eps) {
                /* land inside this edge, where sigma was linear; both
                   sigmas are >= 0, and the landing's lies between them */
                slope = (g->sigma[x] - sig) / len;
                split(g, h, eps - t, k, sig + slope * (eps - t));
                break;
            }
            t += len;
            if (t == eps) {
                if (add64(g->d[x], k, &g->d[x]))
                    return overflow();
                break;
            }
            sig = g->sigma[x];
            /* k * (eps - t) < keps */
            if (add64(sig, k * (eps - t), &g->sigma[x]))
                return overflow();
            h = other_half(g, x, h ^ 1);
        }
    }
    for (x = 0; x < nn; x++) {
        if (burnt[x])
            continue;
        if (add64(g->sigma[x], keps, &g->sigma[x]))
            return overflow();
        g->d[x] -= k * cnt[x];  /* k <= d[x] / cnt[x] by its choice */
    }
    return 0;
}

static PyObject *
reduce_divisor(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"indptr", "nbrs", "div", "q", "pieces", NULL};
    PyObject *indptr_o, *nbrs_o, *div_o, *pieces_o = Py_None, *od, *os;
    PyObject *result = NULL;
    long long q;
    i64 *ip = NULL, *nb = NULL, *div = NULL, *cnt = NULL, *dout = NULL;
    i64 *sout = NULL, base, sa, slope;
    idx *queue = NULL, *exits = NULL;
    char *burnt = NULL;
    idx n, m, nd, i, e, x, len;
    chains g;

    (void)self;
    memset(&g, 0, sizeof g);
    /* the piece table is accepted and not read: the walk over the CSR
       below is C code already */
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOL|$O:reduce_divisor",
                                     kwlist, &indptr_o, &nbrs_o, &div_o, &q,
                                     &pieces_o))
        return NULL;
    if ((ip = read_ints(indptr_o, "indptr must be a sequence", &n)) == NULL)
        goto done;
    n -= 1;
    if (q < 0 || q >= n) {
        PyErr_SetString(PyExc_ValueError, "q out of range");
        goto done;
    }
    if ((nb = read_ints(nbrs_o, "nbrs must be a sequence", &m)) == NULL
        || (div = read_ints(div_o, "div must be a sequence", &nd)) == NULL)
        goto done;
    if (nd != n) {
        PyErr_SetString(PyExc_ValueError, "div needs one entry per vertex");
        goto done;
    }
    for (i = 0; i <= n; i++)
        if (ip[i] < 0 || ip[i] > m)
            goto bad_csr;
    for (i = 0; i < m; i++)
        if (nb[i] < 0 || nb[i] >= n)
            goto bad_csr;

    g.n = n;
    if (contract(&g, ip, nb, div, (idx)q))
        goto done;
    for (x = 0; x < g.nn; x++)
        if (x != g.q && g.d[x] < 0)
            break;
    if (x < g.nn && clear_debt(&g))
        goto done;
    if ((cnt = alloc(n, sizeof *cnt)) == NULL
        || (queue = alloc(n, sizeof *queue)) == NULL
        || (burnt = alloc(n, 1)) == NULL
        || (exits = alloc(2 * g.nslot + 2 * n, sizeof *exits)) == NULL)
        goto done;
    while (burn(&g, burnt, cnt, queue) < g.nn)
        if (fire_round(&g, burnt, cnt, exits))
            goto done;

    /* every sigma only ever grew from 0, so these differences fit, and a
       run's sigma lies between its ends' */
    if ((dout = alloc(n, sizeof *dout)) == NULL
        || (sout = alloc(n, sizeof *sout)) == NULL)
        goto done;
    base = g.sigma[g.q];
    for (x = 0; x < g.nn; x++) {
        dout[g.vid[x]] = g.d[x];
        sout[g.vid[x]] = g.sigma[x] - base;
    }
    for (e = 0; e < g.ne; e++) {
        len = g.elen[e];
        if (len < 2)
            continue;
        sa = g.sigma[g.hend[2 * e]] - base;
        slope = (g.sigma[g.hend[2 * e + 1]] - base - sa) / len;
        for (i = 1; i < len; i++)
            sout[g.path[g.estart[e] + i - 1]] = sa + slope * i;
    }
    od = to_list(dout, n);
    os = to_list(sout, n);
    if (od != NULL && os != NULL)
        result = PyTuple_Pack(2, od, os);
    Py_XDECREF(od);
    Py_XDECREF(os);
    goto done;

bad_csr:
    PyErr_SetString(PyExc_ValueError, "CSR index out of range");
done:
    chains_free(&g);
    free(ip);
    free(nb);
    free(div);
    free(cnt);
    free(queue);
    free(burnt);
    free(exits);
    free(dout);
    free(sout);
    return result;
}

static PyMethodDef kernel_methods[] = {
    {"reduce_divisor", (PyCFunction)(void (*)(void))reduce_divisor,
     METH_VARARGS | METH_KEYWORDS,
     "reduce_divisor(indptr, nbrs, div, q, *, pieces=None) -> "
     "(reduced, sigma)\n\n"
     "q-reduce an integer divisor vector by chip-firing; see "
     "tropbn._kernel_py.reduce_divisor.  pieces is accepted and ignored: "
     "this kernel walks the CSR."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernel",
    "Compiled chip-firing kernel; mirrors tropbn._kernel_py.", -1,
    kernel_methods, NULL, NULL, NULL, NULL
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    PyObject *mod = PyModule_Create(&kernel_module);

    if (mod != NULL
        && PyModule_AddStringConstant(mod, "BACKEND", "compiled") < 0)
        Py_CLEAR(mod);
    return mod;
}
