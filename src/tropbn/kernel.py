"""Chip-firing kernel backend.

Uses the compiled extension `_kernel` when it imports, and the pure-Python
`_kernel_py` otherwise.  Both expose the identical `reduce_divisor`
interface; `BACKEND` names the one in use.
"""

try:
    from . import _kernel as _impl
except ImportError:
    from . import _kernel_py as _impl

reduce_divisor = _impl.reduce_divisor
BACKEND = _impl.BACKEND
