/* Compiled chip-firing kernel on the chain-contracted graph.

   Mirrors `_kernel_py.reduce_divisor` step by step; see that module for
   the algorithm notes.  Same interface: reduce_divisor(div, q, pieces) ->
   (reduced, sigma), with the same errors; `tropbn.kernel.reduce_divisor`
   calls it.  Like the pure kernel it builds its contracted graph from the
   piece table only (`of_pieces`, which mirrors `_kernel_py._of_pieces`
   and makes the same checks before it allocates anything sized by the
   table's entries): the stops are the nodes and the pieces the edges, an edge's
   length its number of unit steps, and a vertex inside a piece that holds
   a chip or is q becomes a node by splitting its piece.  The one step
   that differs is the debt clearing: here it runs over every level, with
   arrays of length maxlev, where the pure one works at event levels only;
   both fire the same balls the same number of times.

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
   adjv[adjs[x] .. adjs[x] + adjn[x]).  A stop has room for as many
   half-edges as the table gives it ends, a split node for two.  The run
   of e is the vertices estart[e] .. estart[e] + elen[e] - 2, from its
   first end on: a piece table numbers a piece's vertices consecutively.

   Chip counts and firing multiplicities are C long long.  Every add,
   subtract and multiply on them is checked, and an overflow raises
   OverflowError instead of wrapping; `tropbn.kernel` then reruns the input
   on the pure-Python kernel, whose integers are exact.  So does a table
   entry or a chip count outside int64, which the pure kernel then refuses
   or answers.

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
bad_pieces(void)
{
    PyErr_SetString(PyExc_ValueError,
                    "pieces must join two distinct stops each and number "
                    "every other vertex once");
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
    idx nn, ne, nslot;          /* nodes, edges, slots used */
    idx *vid, *adjs, *adjn;                     /* per node */
    i64 *d, *sigma;                             /* per node */
    idx *adjv;                                  /* half-edge slots */
    idx *hend;                                  /* per half-edge */
    idx *elen, *estart;                         /* per edge */
} chains;

static void
chains_free(chains *g)
{
    free(g->vid);
    free(g->adjs);
    free(g->adjn);
    free(g->d);
    free(g->sigma);
    free(g->adjv);
    free(g->hend);
    free(g->elen);
    free(g->estart);
}

/* The half-edge of the degree-2 node x that is not h. */
static idx
other_half(const chains *g, idx x, idx h)
{
    const idx *s = g->adjv + g->adjs[x];

    return s[0] == h ? s[1] : s[0];
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

    g->vid[x] = g->estart[e] + i - 1;
    g->d[x] = chips;
    g->sigma[x] = sig;
    g->adjs[x] = g->nslot;
    g->adjn[x] = 2;
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

/* Build the contracted graph of the piece table `pieces` (see
   `_kernel_py._of_pieces`): the stops are the nodes and the pieces the
   edges, and a chip or q inside a piece becomes a node by `split`, its
   piece found by lower_bound on the first interior indices.  The table is
   checked before anything sized by its entries is allocated.  0, or -1
   with an exception set (OverflowError for an entry outside int64). */
static int
of_pieces(chains *g, PyObject *pieces, const i64 *div, idx q)
{
    PyObject *fast = PySequence_Fast(pieces, "pieces must be a sequence");
    i64 *ends = NULL, *lens = NULL, *firsts = NULL, stops, cur;
    idx n = g->n, np = 0, nends, nfirsts, k, j, x, y, v, t, at = 0, h = 0;
    idx s, send, tail, *queue = NULL;
    char *seen = NULL;
    int rc = -1;

    if (fast == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(fast) < 3) {
        bad_pieces();
        goto done;
    }
    if ((ends = read_ints(PySequence_Fast_GET_ITEM(fast, 0),
                          "piece ends must be a sequence", &nends)) == NULL
        || (lens = read_ints(PySequence_Fast_GET_ITEM(fast, 1),
                             "piece lengths must be a sequence",
                             &np)) == NULL
        || (firsts = read_ints(PySequence_Fast_GET_ITEM(fast, 2),
                               "piece firsts must be a sequence",
                               &nfirsts)) == NULL)
        goto done;
    /* the stops 0 .. stops - 1, then each piece's interior vertices from
       its first index on, number 0 .. n - 1 once; no piece ends outside
       the stops or at both ends on one stop */
    stops = np ? firsts[0] : n;
    if (nends != 2 * np || nfirsts != np || stops < 0 || stops > n) {
        bad_pieces();
        goto done;
    }
    for (k = 0, cur = stops; k < np; k++) {
        if (lens[k] < 1 || firsts[k] != cur || lens[k] - 1 > n - cur
            || ends[2 * k] < 0 || ends[2 * k] >= stops
            || ends[2 * k + 1] < 0 || ends[2 * k + 1] >= stops
            || ends[2 * k] == ends[2 * k + 1]) {
            bad_pieces();
            goto done;
        }
        cur += lens[k] - 1;
    }
    if (cur != n) {
        bad_pieces();
        goto done;
    }

    /* at most n nodes, and each split adds one edge and two slots */
    if ((g->vid = alloc(n, sizeof *g->vid)) == NULL
        || (g->adjs = alloc(n, sizeof *g->adjs)) == NULL
        || (g->adjn = alloc(n, sizeof *g->adjn)) == NULL
        || (g->d = alloc(n, sizeof *g->d)) == NULL
        || (g->sigma = alloc(n, sizeof *g->sigma)) == NULL
        || (g->adjv = alloc(2 * (np + n), sizeof *g->adjv)) == NULL
        || (g->hend = alloc(2 * (np + n), sizeof *g->hend)) == NULL
        || (g->elen = alloc(np + n, sizeof *g->elen)) == NULL
        || (g->estart = alloc(np + n, sizeof *g->estart)) == NULL
        || (queue = alloc(stops, sizeof *queue)) == NULL
        || (seen = alloc(stops, 1)) == NULL)
        goto done;
    g->nn = (idx)stops;
    g->ne = np;
    g->nslot = 2 * np;
    /* a stop's slots: one per piece end at it */
    for (k = 0; k < 2 * np; k++)
        g->adjs[ends[k]]++;
    for (x = 0, cur = 0; x < g->nn; x++) {
        g->vid[x] = x;
        g->d[x] = div[x];
        cur += g->adjs[x];
        g->adjs[x] = (idx)cur - g->adjs[x];
    }
    for (k = 0; k < 2 * np; k++) {
        x = (idx)ends[k];
        g->adjv[g->adjs[x] + g->adjn[x]++] = k;
        g->hend[k] = x;
    }
    for (k = 0; k < np; k++) {
        g->elen[k] = (idx)lens[k];
        g->estart[k] = (idx)firsts[k];
    }

    queue[0] = 0;
    seen[0] = 1;
    tail = 1;
    for (j = 0; j < tail; j++)
        for (s = g->adjs[queue[j]], send = s + g->adjn[queue[j]]; s < send;
             s++) {
            y = g->hend[g->adjv[s] ^ 1];
            if (!seen[y]) {
                seen[y] = 1;
                queue[tail++] = y;
            }
        }
    if (tail != g->nn) {
        PyErr_SetString(PyExc_ValueError, "graph must be connected");
        goto done;
    }

    g->q = q;
    for (v = (idx)stops, k = -1; v < n; v++) {
        if (div[v] == 0 && v != q)
            continue;
        j = lower_bound(g->estart, np, v + 1) - 1;
        t = v - g->estart[j] + 1;   /* steps from the piece's first stop */
        if (j != k) {
            k = j;
            h = 2 * j;
            at = 0;
        }
        h = split(g, h, t - at, div[v], 0);
        at = t;
        if (v == q)
            g->q = g->nn - 1;
    }
    rc = 0;
done:
    Py_DECREF(fast);
    free(ends);
    free(lens);
    free(firsts);
    free(queue);
    free(seen);
    return rc;
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
                /* ceil(-cur / down[x]), without negating cur; down[x] >= 1,
                   since x, at level j + 1 > 0, has a neighbour one level
                   down along the edge that sets its level */
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
    static char *kwlist[] = {"div", "q", "pieces", NULL};
    PyObject *div_o, *pieces_o, *od, *os, *result = NULL;
    long long q;
    i64 *div = NULL, *cnt = NULL, *dout = NULL, *sout = NULL, base, sa, slope;
    idx *queue = NULL, *exits = NULL;
    char *burnt = NULL;
    idx n, i, e, x, len;
    chains g;

    (void)self;
    memset(&g, 0, sizeof g);
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OLO:reduce_divisor",
                                     kwlist, &div_o, &q, &pieces_o))
        return NULL;
    if ((div = read_ints(div_o, "div must be a sequence", &n)) == NULL)
        goto done;
    if (q < 0 || q >= n) {
        PyErr_SetString(PyExc_ValueError, "q out of range");
        goto done;
    }
    g.n = n;
    if (of_pieces(&g, pieces_o, div, (idx)q))
        goto done;
    for (x = 0; x < g.nn; x++)
        if (x != g.q && g.d[x] < 0)
            break;
    if (x < g.nn && clear_debt(&g))
        goto done;
    /* every half-edge is an exit at most once a round */
    if ((cnt = alloc(n, sizeof *cnt)) == NULL
        || (queue = alloc(n, sizeof *queue)) == NULL
        || (burnt = alloc(n, 1)) == NULL
        || (exits = alloc(g.nslot + 2 * n, sizeof *exits)) == NULL)
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
            sout[g.estart[e] + i - 1] = sa + slope * i;
    }
    od = to_list(dout, n);
    os = to_list(sout, n);
    if (od != NULL && os != NULL)
        result = PyTuple_Pack(2, od, os);
    Py_XDECREF(od);
    Py_XDECREF(os);
done:
    chains_free(&g);
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
     "reduce_divisor(div, q, pieces) -> (reduced, sigma)\n\n"
     "q-reduce an integer divisor vector by chip-firing on a piece table; "
     "see tropbn._kernel_py.reduce_divisor."},
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
