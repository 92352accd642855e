"""Chip-firing kernel backend.

Uses the compiled extension `_kernel` (built from `_kernel.c`) when it
imports, and the pure-Python `_kernel_py` otherwise.  Both expose the same
`reduce_divisor` interface; `BACKEND` names the one in use.

The compiled kernel counts chips in int64 and raises `OverflowError` rather
than wrap; `reduce_divisor` then reruns the input on `_kernel_py`, whose
integers are exact, so callers always get the exact answer.  Without the
extension, `reduce_divisor` is `_kernel_py.reduce_divisor` itself.

The compiled kernel walks the CSR arrays and ignores the keyword-only
`pieces` table, which the pure kernel builds from (see `_kernel_py`).

Measured payoff of the compiled kernel (2026-10-20, 2 cores, Python
3.11.7; `perfbench/run.py --workload W --seed 7 --seconds 10 --trace 0`,
`wall_s` pure over compiled): 1.62x on `rank-rr` (0.572/0.354 s), 1.09x
on `lattice-dumbbell` (2.62/2.40 ms), since the pure kernel builds from
the model's piece table, and 1.02x on `bn-usc`, which makes no kernel
call.
"""

from . import _kernel_py

try:
    from . import _kernel
except ImportError:
    _kernel = None


def _compiled_or_exact(indptr, nbrs, div, q, *, pieces=None):
    """The compiled kernel's answer, or the pure kernel's on int64 overflow.
    The compiled kernel walks the CSR and ignores `pieces`; the pure one
    reruns on the piece table when there is one."""
    try:
        return _kernel.reduce_divisor(indptr, nbrs, div, q, pieces=pieces)
    except OverflowError:
        return _kernel_py.reduce_divisor(indptr, nbrs, div, q, pieces=pieces)


if _kernel is None:
    reduce_divisor = _kernel_py.reduce_divisor
    BACKEND = _kernel_py.BACKEND
else:
    reduce_divisor = _compiled_or_exact
    BACKEND = _kernel.BACKEND
