"""The chip-firing kernel: backend agreement and q-reduction invariants."""

import random
import re
from pathlib import Path

import pytest

from tropbn import _kernel_py
from tropbn import kernel

try:
    from tropbn import _kernel
except ImportError:
    _kernel = None


def random_csr(rng, max_v=12, max_extra=15):
    """Connected loopless multigraph in CSR form."""
    n = rng.randint(2, max_v)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    for _ in range(rng.randint(0, max_extra)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.append((u, v))
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    indptr = [0]
    nbrs = []
    for u in range(n):
        nbrs.extend(adj[u])
        indptr.append(len(nbrs))
    return n, indptr, nbrs


def laplacian_apply(indptr, nbrs, sigma):
    n = len(indptr) - 1
    out = [0] * n
    for u in range(n):
        for i in range(indptr[u], indptr[u + 1]):
            out[u] += sigma[u] - sigma[nbrs[i]]
    return out


def burns_completely(indptr, nbrs, d, q):
    """Dhar's criterion: the fire starting at q must consume the graph."""
    n = len(indptr) - 1
    burnt = [False] * n
    burnt[q] = True
    changed = True
    while changed:
        changed = False
        for v in range(n):
            if burnt[v]:
                continue
            hot = sum(1 for i in range(indptr[v], indptr[v + 1])
                      if burnt[nbrs[i]])
            if hot > d[v]:
                burnt[v] = True
                changed = True
    return all(burnt)


def check_reduction(indptr, nbrs, div, q, red, sigma):
    n = len(indptr) - 1
    assert sigma[q] == 0
    assert sum(red) == sum(div)
    fired = laplacian_apply(indptr, nbrs, sigma)
    assert [div[v] - fired[v] for v in range(n)] == list(red)
    assert all(red[v] >= 0 for v in range(n) if v != q)
    assert burns_completely(indptr, nbrs, red, q)


def test_pure_kernel_invariants():
    rng = random.Random(100)
    for _ in range(150):
        n, indptr, nbrs = random_csr(rng)
        div = [rng.randint(-5, 6) for _ in range(n)]
        q = rng.randrange(n)
        red, sigma = _kernel_py.reduce_divisor(indptr, nbrs, div, q)
        check_reduction(indptr, nbrs, div, q, red, sigma)


def test_pure_kernel_idempotent():
    rng = random.Random(101)
    for _ in range(60):
        n, indptr, nbrs = random_csr(rng)
        div = [rng.randint(-4, 5) for _ in range(n)]
        q = rng.randrange(n)
        red, _ = _kernel_py.reduce_divisor(indptr, nbrs, div, q)
        again, sigma = _kernel_py.reduce_divisor(indptr, nbrs, red, q)
        assert list(again) == list(red)
        assert all(x == 0 for x in sigma)


@pytest.mark.skipif(_kernel is None, reason="compiled kernel not built")
def test_backends_agree():
    rng = random.Random(102)
    for _ in range(300):
        n, indptr, nbrs = random_csr(rng)
        div = [rng.randint(-6, 7) for _ in range(n)]
        q = rng.randrange(n)
        red_c, sig_c = _kernel.reduce_divisor(indptr, nbrs, div, q)
        red_p, sig_p = _kernel_py.reduce_divisor(indptr, nbrs, div, q)
        assert list(red_c) == list(red_p)
        assert list(sig_c) == list(sig_p)


def corridor_cases(seed=103, trials=12):
    """Two cycles joined by a long path, with chips on both cycles.

    Long degree-2 corridors between cycles are the guard cases of the
    bridge-sliding fast path; the degree-2 runs along a cycle of length
    four or more reach the corridor from both sides, which the slides
    must refuse.  Yields (indptr, nbrs, div, q).
    """
    rng = random.Random(seed)
    for _ in range(trials):
        seg = rng.randint(50, 400)
        near, far_len = rng.randint(3, 8), rng.randint(3, 8)
        # near cycle 0..near-1, corridor near-1..far, far cycle from far on
        far = near - 1 + seg
        n = far + far_len
        edges = [(i, (i + 1) % near) for i in range(near)]
        edges += [(i, i + 1) for i in range(near - 1, far)]
        edges += [(far + i, far + (i + 1) % far_len) for i in range(far_len)]
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        indptr = [0]
        nbrs = []
        for u in range(n):
            nbrs.extend(adj[u])
            indptr.append(len(nbrs))
        div = [0] * n
        div[far] = rng.randint(1, 5)
        div[rng.randrange(near)] += rng.randint(-2, 3)
        div[far + rng.randrange(far_len)] += rng.randint(0, 2)
        q = rng.choice([0, near - 1 + seg // 2, far + 1])
        yield indptr, nbrs, div, q


def test_pure_kernel_invariants_on_corridor():
    for indptr, nbrs, div, q in corridor_cases():
        red, sigma = _kernel_py.reduce_divisor(indptr, nbrs, div, q)
        check_reduction(indptr, nbrs, div, q, red, sigma)


@pytest.mark.skipif(_kernel is None, reason="compiled kernel not built")
def test_compiled_kernel_invariants_on_corridor():
    for indptr, nbrs, div, q in corridor_cases():
        red_c, sig_c = _kernel.reduce_divisor(indptr, nbrs, div, q)
        check_reduction(indptr, nbrs, div, q, red_c, sig_c)
        red_p, sig_p = _kernel_py.reduce_divisor(indptr, nbrs, div, q)
        assert list(red_c) == list(red_p)
        assert list(sig_c) == list(sig_p)


def test_backend_reports_identity():
    assert kernel.BACKEND in ("compiled", "python")
    assert kernel.reduce_divisor is not None


def test_q_out_of_range():
    with pytest.raises(ValueError):
        _kernel_py.reduce_divisor([0, 1, 2], [1, 0], [0, 0], 5)


def test_disconnected_rejected():
    # two vertices, no edges: burning from q can never finish
    indptr = [0, 0, 0]
    with pytest.raises(ValueError, match="connected"):
        _kernel_py.reduce_divisor(indptr, [], [1, 1], 0)
    if _kernel is not None:
        with pytest.raises(ValueError, match="connected"):
            _kernel.reduce_divisor(indptr, [], [1, 1], 0)


SRC = Path(__file__).resolve().parents[1] / "src" / "tropbn"
C_TYPES = {"Py_ssize_t": "Py_ssize_t", "i64": "__pyx_t_6tropbn_7_kernel_i64",
           "bint": "int"}


def test_generated_c_matches_pyx():
    """_kernel.c is the build input; it must be regenerated from the .pyx
    (cython -3 src/tropbn/_kernel.pyx) whenever the .pyx changes.

    Cython quotes the source around every statement it translates: a
    marker line naming the .pyx line N, a few lines of context, and line N
    itself flagged with '# <<<<'.  Plain declarations are not quoted, so
    each declared name is looked up as a C variable of the mapped type.
    """
    pyx = (SRC / "_kernel.pyx").read_text().split("\n")
    c = (SRC / "_kernel.c").read_text()
    flag = "             # <<<<<<<<<<<<<<"
    blocks = re.findall(r'/\* "tropbn/_kernel\.pyx":(\d+)\n(.*?)\n\*/', c,
                        re.S)
    assert blocks
    for num, body in blocks:
        quoted = [line[3:] for line in body.split("\n")]
        at = [i for i, line in enumerate(quoted) if line.endswith(flag)]
        assert len(at) == 1, num
        quoted[at[0]] = quoted[at[0]][:-len(flag)]
        first = int(num) - at[0]
        assert quoted == pyx[first - 1:first - 1 + len(quoted)], num
    for line in pyx:
        m = re.fullmatch(r"\s*cdef (\w+) ([\w\s,*]+)", line)
        if m and m.group(1) in C_TYPES:
            for name in m.group(2).split(","):
                ptr, name = re.fullmatch(r"\s*(\*?)\s*(\w+)\s*", name).groups()
                assert f"{C_TYPES[m.group(1)]} {ptr}__pyx_v_{name};" in c, line
