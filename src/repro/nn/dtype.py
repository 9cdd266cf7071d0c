"""Global floating-point dtype policy for the NumPy substrate.

Every leaf tensor, parameter, buffer and initializer in :mod:`repro.nn`
consults this module when it is not given an explicit dtype, so a single
call to :func:`set_default_dtype` (or the :class:`default_dtype` context
manager) switches the whole stack between fast ``float32`` training and
``float64`` precision mode.

The library default is **float32**: the split-learning workloads are
memory-bandwidth bound on the im2col/GEMM hot path, and halving the
element size roughly doubles end-to-end throughput.  The repo benchmark's
``paper_sync`` workload (``benchmarks/e2e/run.py``) trains the paper CNN at
this default.  The test suite pins ``float64``
through the same policy hook so that central-difference gradient checks
stay exact.

Intermediate autograd ops always *preserve* their operands' dtype — the
policy only decides how raw arrays, Python scalars and lists entering the
graph are coerced, which is exactly the place where silent ``float64``
promotion used to creep in (e.g. ``one_hot`` building float64 masks under
float32 logits).
"""

from __future__ import annotations

from typing import Iterator, Union

import contextlib

import numpy as np

__all__ = [
    "DEFAULT_DTYPE",
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
]

#: Library default: float32 for speed (see module docstring).
DEFAULT_DTYPE = np.dtype(np.float32)

_ALLOWED = (np.dtype(np.float16), np.dtype(np.float32), np.dtype(np.float64))

_default_dtype: np.dtype = DEFAULT_DTYPE

DTypeLike = Union[np.dtype, type, str]


def _validate(dtype: DTypeLike) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved not in _ALLOWED:
        allowed = ", ".join(str(d) for d in _ALLOWED)
        raise ValueError(
            f"default dtype must be a floating dtype ({allowed}), got {resolved}"
        )
    return resolved


def get_default_dtype() -> np.dtype:
    """Return the dtype used for tensors created without an explicit dtype."""
    return _default_dtype


def set_default_dtype(dtype: DTypeLike) -> np.dtype:
    """Set the global default floating dtype and return the *previous* one.

    Example
    -------
    >>> previous = set_default_dtype(np.float64)
    >>> ...  # precision-sensitive work
    >>> set_default_dtype(previous)
    """
    global _default_dtype
    previous = _default_dtype
    _default_dtype = _validate(dtype)
    return previous


@contextlib.contextmanager
def default_dtype(dtype: DTypeLike) -> Iterator[np.dtype]:
    """Context manager that temporarily switches the default dtype.

    >>> with default_dtype(np.float64):
    ...     model = build_paper_cnn()   # float64 parameters
    """
    previous = set_default_dtype(dtype)
    try:
        yield _default_dtype
    finally:
        set_default_dtype(previous)
