"""Chip-firing kernel backend.

Uses the compiled extension `_kernel` (built from `_kernel.c`) when it
imports, and the pure-Python `_kernel_py` otherwise; `BACKEND` names the
one in use.  Both build their contracted graph from a piece table only
(see `_kernel_py`), by the same checks, and fire it the same way.

`reduce_divisor` is the one entry point on either backend.  It takes the
piece table by keyword, as `models.IntegerModel.reduce_vector` passes it;
a bare CSR graph, which only tests pass, is turned here into the table of
its unit edges.  The compiled kernel counts chips in int64 and raises
`OverflowError` rather than wrap; `reduce_divisor` then reruns the input on
`_kernel_py`, whose integers are exact, so callers always get the exact
answer.

Measured payoff of the compiled kernel (2026-10-20, 2 cores, Python
3.11.7; `perfbench/run.py --workload W --seed 7 --seconds 10 --trace 0`,
`wall_s` pure over compiled): 1.69x on `rank-rr` (0.598/0.355 s), 1.06x
on `lattice-dumbbell` (2.44/2.30 ms), and 0.99x on `bn-usc`, which makes
no kernel call.  `tests/test_transport.py::test_arrange_on_dumbbell_loops`
(1,359 calls at n of about 83,000) takes 3.0-3.1 s compiled against
4.3-4.5 s pure.
"""

from . import _kernel_py

try:
    from . import _kernel as _backend
except ImportError:
    _backend = _kernel_py

BACKEND = _backend.BACKEND


def _unit_pieces(indptr, nbrs):
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


def reduce_divisor(indptr, nbrs, div, q, *, pieces=None):
    """q-reduce the integer divisor vector `div` by chip-firing; returns
    (reduced, sigma) as `_kernel_py.reduce_divisor` does.

    n is len(indptr) - 1, and div needs one entry per vertex.  With
    `pieces`, the graph's piece table, the CSR arrays are not read;
    without it they are the graph."""
    if len(indptr) - 1 != len(div):
        raise ValueError("div needs one entry per vertex")
    if pieces is None:
        pieces = _unit_pieces(indptr, nbrs)
    try:
        return _backend.reduce_divisor(div, q, pieces)
    except OverflowError:
        return _kernel_py.reduce_divisor(div, q, pieces)
