"""Chip-firing kernel backend.

Uses the compiled extension `_kernel` (built from `_kernel.c`) when it
imports, and the pure-Python `_kernel_py` otherwise; `BACKEND` names the
one in use.  Both build their contracted graph from a piece table only
(see `_kernel_py`), by the same checks, and fire it the same way.

`reduce_divisor` is the one entry point on either backend.  It takes the
graph as a piece table, by keyword, as `models.IntegerModel.reduce_vector`
passes it.  Its four positional arguments stay only because the
benchmark's tracer (`perfbench/spans.py`) unpacks them and reads n as
``len(indptr) - 1``; they go with ROADMAP direction 2's benchmark change.
The compiled kernel counts chips in int64 and raises `OverflowError`
rather than wrap; `reduce_divisor` then reruns the input on `_kernel_py`,
whose integers are exact, so callers always get the exact answer.

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


def reduce_divisor(indptr, nbrs, div, q, *, pieces):
    """q-reduce the integer divisor vector `div` by chip-firing on the
    graph `pieces`; returns (reduced, sigma) as `_kernel_py.reduce_divisor`
    does.  div needs len(indptr) - 1 entries; `nbrs` is not read."""
    if len(indptr) - 1 != len(div):
        raise ValueError("div needs one entry per vertex")
    try:
        return _backend.reduce_divisor(div, q, pieces)
    except OverflowError:
        return _kernel_py.reduce_divisor(div, q, pieces)
