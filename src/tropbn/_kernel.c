/* Compiled chip-firing kernel.

   Mirrors `_kernel_py.reduce_divisor` step by step (BFS levels from q,
   stage-1 debt clearing over the levels, Dhar burning that fires the
   unburnt set along its corridors); see that module for the algorithm
   notes.  Same interface: reduce_divisor(indptr, nbrs, div, q) ->
   (reduced, sigma).

   A round of stage 2 fires the nested sets U, U + {c_1}, ...,
   U + {c_1 .. c_(eps-1)}, k times each, where U is the unburnt set, k the
   most its boundary allows, and c_1, c_2, ... each corridor of chip-free
   degree-2 vertices walked from an edge out of U, eps long at the
   shortest.  Each firing is legal: c_i takes in k chips from the set
   before it joins it, and passes them on over its other edge.  The round
   needs no path storage: one walk per edge finds eps, and a second walk
   steps eps - 1 times along it.

   Chip counts and firing multiplicities are C long long.  Every add,
   subtract and multiply on them is checked, and an overflow raises
   OverflowError instead of wrapping; `tropbn.kernel` then reruns the input
   on the pure-Python kernel, whose integers are exact.  The CSR arrays are
   checked before use, so no index read leaves them.

   Build: `python setup.py build` (an optional setuptools Extension).  This
   file is the source; nothing generates it.
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdlib.h>
#include <string.h>

typedef long long i64;

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

/* calloc of k items (at least one), with MemoryError set on failure. */
static void *
alloc(Py_ssize_t k, size_t size)
{
    void *p = calloc(k > 0 ? (size_t)k : 1, size);
    if (p == NULL)
        PyErr_NoMemory();
    return p;
}

/* The ints of a Python sequence as a new array; its length goes to *len.
   NULL with an exception set on failure (OverflowError outside int64). */
static i64 *
read_ints(PyObject *obj, const char *name, Py_ssize_t *len)
{
    PyObject *fast = PySequence_Fast(obj, name);
    PyObject **items;
    i64 *out;
    Py_ssize_t i;

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

/* The neighbour of the degree-2 vertex cur that is not prev. */
static Py_ssize_t
other(const i64 *ip, const i64 *nb, Py_ssize_t prev, Py_ssize_t cur)
{
    Py_ssize_t a = (Py_ssize_t)nb[ip[cur]];

    return a == prev ? (Py_ssize_t)nb[ip[cur] + 1] : a;
}

static PyObject *
to_list(const i64 *a, Py_ssize_t n)
{
    PyObject *list = PyList_New(n);
    Py_ssize_t i;

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

static PyObject *
reduce_divisor(PyObject *self, PyObject *args)
{
    PyObject *indptr_o, *nbrs_o, *div_o, *od, *os, *result = NULL;
    long long q;
    i64 *ip = NULL, *nb = NULL, *d = NULL, *sigma = NULL, *cnt = NULL;
    i64 *down = NULL, *up = NULL, *ms = NULL;
    Py_ssize_t *lvl = NULL, *order = NULL, *lstart = NULL, *queue = NULL;
    char *burnt = NULL;
    /* loop bounds are read once into locals: stores through the arrays
       may alias ip[], so the compiler would otherwise reload them */
    Py_ssize_t n, m, nd, i, iend, j, x, u, v, head, tail, maxlev;
    Py_ssize_t s, eps, prev, cur, nxt;
    i64 k, kv, keps, t, need, mfire, acc;

    (void)self;
    if (!PyArg_ParseTuple(args, "OOOL:reduce_divisor",
                          &indptr_o, &nbrs_o, &div_o, &q))
        return NULL;
    if ((ip = read_ints(indptr_o, "indptr must be a sequence", &n)) == NULL)
        goto done;
    n -= 1;
    if (q < 0 || q >= n) {
        PyErr_SetString(PyExc_ValueError, "q out of range");
        goto done;
    }
    if ((nb = read_ints(nbrs_o, "nbrs must be a sequence", &m)) == NULL
        || (d = read_ints(div_o, "div must be a sequence", &nd)) == NULL)
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
    if ((sigma = alloc(n, sizeof *sigma)) == NULL
        || (cnt = alloc(n, sizeof *cnt)) == NULL
        || (lvl = alloc(n, sizeof *lvl)) == NULL
        || (order = alloc(n, sizeof *order)) == NULL
        || (queue = alloc(n, sizeof *queue)) == NULL
        || (burnt = alloc(n, 1)) == NULL)
        goto done;

    /* BFS levels from q; Dhar burning diverges on a disconnected graph,
       so reject those up front.  `order` lists the vertices level by
       level, and level j is order[lstart[j] .. lstart[j + 1]). */
    for (v = 0; v < n; v++)
        lvl[v] = -1;
    lvl[q] = 0;
    order[0] = (Py_ssize_t)q;
    tail = 1;
    for (head = 0; head < tail; head++) {
        u = order[head];
        for (i = ip[u], iend = ip[u + 1]; i < iend; i++) {
            v = (Py_ssize_t)nb[i];
            if (lvl[v] < 0) {
                lvl[v] = lvl[u] + 1;
                order[tail++] = v;
            }
        }
    }
    if (tail != n) {
        PyErr_SetString(PyExc_ValueError, "graph must be connected");
        goto done;
    }
    maxlev = lvl[order[n - 1]];
    if ((lstart = alloc(maxlev + 2, sizeof *lstart)) == NULL)
        goto done;
    for (v = 0; v < n; v++)
        lstart[lvl[v] + 1]++;
    for (j = 0; j <= maxlev; j++)
        lstart[j + 1] += lstart[j];

    /* stage 1: clear debt outside q by firing balls around q, outermost
       first */
    for (v = 0; v < n; v++)
        if (v != q && d[v] < 0)
            break;
    if (v < n) {
        if ((down = alloc(n, sizeof *down)) == NULL
            || (up = alloc(n, sizeof *up)) == NULL
            || (ms = alloc(maxlev + 1, sizeof *ms)) == NULL)
            goto done;
        for (u = 0; u < n; u++)
            for (i = ip[u], iend = ip[u + 1]; i < iend; i++) {
                if (lvl[nb[i]] == lvl[u] - 1)
                    down[u]++;
                else if (lvl[nb[i]] == lvl[u] + 1)
                    up[u]++;
            }
        for (j = maxlev - 1; j >= 0; j--) {
            mfire = 0;
            for (x = lstart[j + 1]; x < lstart[j + 2]; x++) {
                v = order[x];
                if (d[v] < 0) {
                    if (down[v] == 0) {
                        /* a non-symmetric CSR; the pure kernel fails here
                           the same way */
                        PyErr_SetString(PyExc_ZeroDivisionError,
                                        "integer division by zero");
                        goto done;
                    }
                    /* ceil(-d[v] / down[v]), without negating d[v] */
                    need = d[v] / down[v];
                    if (need == LLONG_MIN)
                        goto overflow;
                    need = -need + (d[v] % down[v] != 0);
                    if (need > mfire)
                        mfire = need;
                }
            }
            if (mfire) {
                ms[j] = mfire;
                for (x = lstart[j + 1]; x < lstart[j + 2]; x++) {
                    v = order[x];
                    if (mul64(mfire, down[v], &t) || add64(d[v], t, &d[v]))
                        goto overflow;
                }
                for (x = lstart[j]; x < lstart[j + 1]; x++) {
                    u = order[x];
                    if (mul64(mfire, up[u], &t) || sub64(d[u], t, &d[u]))
                        goto overflow;
                }
            }
        }
        acc = 0;
        for (j = maxlev - 1; j >= 0; j--) {
            if (add64(acc, ms[j], &acc))
                goto overflow;
            ms[j] = acc;
        }
        for (v = 0; v < n; v++)
            sigma[v] = ms[lvl[v]];
    }

    /* stage 2: Dhar burning; fire the unburnt set, then the sets that grow
       from it along its corridors, as often and as far as they allow */
    for (;;) {
        memset(burnt, 0, (size_t)n);
        memset(cnt, 0, (size_t)n * sizeof *cnt);
        burnt[q] = 1;
        queue[0] = (Py_ssize_t)q;
        tail = 1;
        for (head = 0; head < tail; head++) {
            u = queue[head];
            for (i = ip[u], iend = ip[u + 1]; i < iend; i++) {
                v = (Py_ssize_t)nb[i];
                if (!burnt[v] && ++cnt[v] > d[v]) {
                    burnt[v] = 1;
                    queue[tail++] = v;
                }
            }
        }
        if (tail == n)
            break;
        /* an unburnt v has d[v] >= cnt[v] >= 0, so C division floors here
           as Python's // does; the BFS check above leaves some unburnt v
           with cnt[v] > 0, so k >= 1 */
        k = -1;
        for (v = 0; v < n; v++)
            if (!burnt[v] && cnt[v] > 0) {
                kv = d[v] / cnt[v];
                if (k < 0 || kv < k)
                    k = kv;
            }
        /* eps: the shortest corridor.  The walks stop at eps, which starts
           at n, longer than any corridor; it bounds them on a non-symmetric
           CSR too. */
        eps = n;
        for (v = 0; v < n; v++) {
            if (burnt[v] || cnt[v] == 0)
                continue;
            for (i = ip[v], iend = ip[v + 1]; i < iend; i++) {
                if (!burnt[nb[i]])
                    continue;
                prev = v;
                cur = (Py_ssize_t)nb[i];
                for (s = 1; s < eps && cur != q && d[cur] == 0
                            && ip[cur + 1] - ip[cur] == 2; s++) {
                    nxt = other(ip, nb, prev, cur);
                    prev = cur;
                    cur = nxt;
                }
                eps = s;
            }
        }
        if (mul64(k, eps, &keps))
            goto overflow;
        for (v = 0; v < n; v++) {
            if (burnt[v])
                continue;
            if (add64(sigma[v], keps, &sigma[v]))
                goto overflow;
            d[v] -= k * cnt[v];  /* k <= d[v] / cnt[v] by its choice */
        }
        /* the same walks again, eps - 1 steps each: the first walks
           checked that these vertices have degree 2 */
        for (v = 0; v < n; v++) {
            if (burnt[v] || cnt[v] == 0)
                continue;
            for (i = ip[v], iend = ip[v + 1]; i < iend; i++) {
                if (!burnt[nb[i]])
                    continue;
                prev = v;
                cur = (Py_ssize_t)nb[i];
                /* t = k * (eps - s) < keps */
                for (s = 1, t = keps - k; s < eps; s++, t -= k) {
                    if (add64(sigma[cur], t, &sigma[cur]))
                        goto overflow;
                    nxt = other(ip, nb, prev, cur);
                    prev = cur;
                    cur = nxt;
                }
                if (add64(d[cur], k, &d[cur]))
                    goto overflow;
            }
        }
    }

    /* every sigma only ever grew from 0, so this difference fits */
    t = sigma[q];
    if (t)
        for (v = 0; v < n; v++)
            sigma[v] -= t;
    od = to_list(d, n);
    os = to_list(sigma, n);
    if (od != NULL && os != NULL)
        result = PyTuple_Pack(2, od, os);
    Py_XDECREF(od);
    Py_XDECREF(os);
    goto done;

bad_csr:
    PyErr_SetString(PyExc_ValueError, "CSR index out of range");
    goto done;
overflow:
    PyErr_SetString(PyExc_OverflowError,
                    "chip count or firing multiplicity overflows int64");
done:
    free(ip);
    free(nb);
    free(d);
    free(sigma);
    free(cnt);
    free(down);
    free(up);
    free(ms);
    free(lvl);
    free(order);
    free(lstart);
    free(queue);
    free(burnt);
    return result;
}

static PyMethodDef kernel_methods[] = {
    {"reduce_divisor", reduce_divisor, METH_VARARGS,
     "reduce_divisor(indptr, nbrs, div, q) -> (reduced, sigma)\n\n"
     "q-reduce an integer divisor vector by chip-firing; see "
     "tropbn._kernel_py.reduce_divisor."},
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
