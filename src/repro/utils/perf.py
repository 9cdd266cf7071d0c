"""Op-level performance instrumentation and reusable workspaces.

Two facilities back the substrate's allocation-aware hot paths:

* :class:`PerfCounters` — cheap global counters for GEMM calls, conv/pool
  invocations, workspace hits/misses and bytes allocated.  The functional
  ops in :mod:`repro.nn.functional` and the backend's GEMMs increment them, so a training run can report *why* it was fast or slow
  (``counters.snapshot()`` / the :func:`track` context manager).
* :class:`WorkspaceCache` — one grow-only scratch buffer per tag.  The
  convolution's patch gather and gradient fold would otherwise burn most
  of their time allocating and filling large column buffers; arrays obtained through :func:`workspace` are
  views of a buffer reused across calls instead of reallocated.

Workspace safety contract
-------------------------
A workspace array is only valid until the *next* request for the same
tag, whatever its shape or dtype.  Callers must therefore only use
workspaces for transient scratch whose contents are fully consumed before
the op returns (or, for inference, before the next op with that tag runs).
Nothing reachable from an autograd closure may live in a workspace unless
the closure never reads its contents again.
"""

from __future__ import annotations

import contextlib
import math
from typing import Any, Dict, Iterator, Tuple

import numpy as np

__all__ = [
    "PerfCounters",
    "counters",
    "track",
    "WorkspaceCache",
    "workspaces",
    "workspace",
    "axis_order",
    "workspace_like",
]


class PerfCounters:
    """A dictionary of monotonically increasing named counters."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def add(self, name: str, amount: int = 1) -> None:
        """Increment ``name`` by ``amount`` (creating it at zero)."""
        self._counts[name] = self._counts.get(name, 0) + int(amount)

    def get(self, name: str) -> int:
        """Current value of ``name`` (0 if never incremented)."""
        return self._counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        """Copy of every counter."""
        return dict(self._counts)

    def reset(self) -> None:
        """Zero every counter."""
        self._counts.clear()

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._counts.items()))
        return f"PerfCounters({inner})"


#: Process-global counters used by the nn hot paths.
counters = PerfCounters()


@contextlib.contextmanager
def track() -> Iterator[Dict[str, int]]:
    """Yield a dict that, on exit, holds the counter deltas of the block.

    >>> with track() as delta:
    ...     model(x)
    >>> delta["gemm_calls"]
    6
    """
    before = counters.snapshot()
    delta: Dict[str, int] = {}
    try:
        yield delta
    finally:
        after = counters.snapshot()
        for name, value in after.items():
            diff = value - before.get(name, 0)
            if diff:
                delta[name] = diff


class WorkspaceCache:
    """One grow-only scratch buffer per tag.

    A tag names one use site; the batch sizes that pass through it differ
    (remainder batches, a server drain of 1…N messages), so the cache
    holds a flat byte buffer per tag, grown to the largest request seen,
    and hands out a view of its head in the requested shape and dtype.
    The footprint is therefore one deployment's largest working set, with
    nothing to evict.
    """

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def get(self, tag: str, shape: Tuple[int, ...], dtype: Any) -> np.ndarray:
        """Return a C-contiguous scratch array of ``shape``/``dtype`` for ``tag``.

        Contents are uninitialized (may hold data from a previous use).
        """
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buffer = self._buffers.get(tag)
        if buffer is None or buffer.nbytes < nbytes:
            buffer = self._buffers[tag] = np.empty(nbytes, dtype=np.uint8)
            counters.add("workspace_misses")
            counters.add("workspace_bytes_allocated", nbytes)
        else:
            counters.add("workspace_hits")
        return buffer[:nbytes].view(dtype).reshape(shape)

    def clear(self) -> None:
        """Drop every cached buffer (frees the memory)."""
        self._buffers.clear()

    @property
    def cached_bytes(self) -> int:
        """Total bytes currently held by the cache."""
        return sum(buffer.nbytes for buffer in self._buffers.values())

    def __len__(self) -> int:
        return len(self._buffers)


#: Process-global workspace pool used by the conv/pool/loss hot paths.
workspaces = WorkspaceCache()


def workspace(tag: str, shape: Tuple[int, ...], dtype: Any) -> np.ndarray:
    """Shorthand for ``workspaces.get(tag, shape, dtype)``."""
    return workspaces.get(tag, shape, dtype)


def axis_order(array: np.ndarray) -> Tuple[int, ...]:
    """``array``'s axes from slowest- to fastest-varying in memory.

    ``(0, 1, 2, 3)`` for a C-contiguous NCHW array, ``(0, 2, 3, 1)`` for
    one that is channels-last in memory behind an NCHW shape.
    """
    strides = array.strides
    return tuple(sorted(range(array.ndim), key=lambda axis: -abs(strides[axis])))


def workspace_like(tag: str, like: np.ndarray, dtype: Any) -> np.ndarray:
    """Scratch with ``like``'s shape *and* axis order in memory.

    An elementwise pass over operands that share a memory order runs as
    one flat loop; a C-ordered mask against a channels-last activation
    would walk one of the two with a stride per element.
    """
    order = axis_order(like)
    buffer = workspaces.get(tag, tuple(like.shape[axis] for axis in order), dtype)
    return buffer.transpose(sorted(range(like.ndim), key=order.__getitem__))  # inverse of order
