"""Chip-firing kernel backend.

Uses the compiled extension `_kernel` (built from `_kernel.c`) when it
imports, and the pure-Python `_kernel_py` otherwise.  Both expose the same
`reduce_divisor` interface; `BACKEND` names the one in use.

The compiled kernel counts chips in int64 and raises `OverflowError` rather
than wrap; `reduce_divisor` then reruns the input on `_kernel_py`, whose
integers are exact, so callers always get the exact answer.  Without the
extension, `reduce_divisor` is `_kernel_py.reduce_divisor` itself.

Measured payoff of the compiled kernel (2026-10-20, 2 cores, Python
3.11.7; `perfbench/run.py --workload W --seed 7 --seconds 10 --trace 0`,
`wall_s` pure over compiled): 1.75x on `rank-rr` (0.616/0.353 s), 1.48x
on `lattice-dumbbell` (3.46/2.33 ms), and 1.01x on `bn-usc`, which makes
no kernel call.
"""

from . import _kernel_py

try:
    from . import _kernel
except ImportError:
    _kernel = None


def _compiled_or_exact(indptr, nbrs, div, q):
    """The compiled kernel's answer, or the pure kernel's on int64 overflow."""
    try:
        return _kernel.reduce_divisor(indptr, nbrs, div, q)
    except OverflowError:
        return _kernel_py.reduce_divisor(indptr, nbrs, div, q)


if _kernel is None:
    reduce_divisor = _kernel_py.reduce_divisor
    BACKEND = _kernel_py.BACKEND
else:
    reduce_divisor = _compiled_or_exact
    BACKEND = _kernel.BACKEND
