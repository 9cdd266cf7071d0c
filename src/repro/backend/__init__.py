"""The substrate's GEMM path: a direct and a row-tiled matrix product.

Every heavy product of the split network — conv2d's im2col GEMMs and
the fused dense layer, on both the end-system's first block and the
server's remaining layers — calls ``get_backend().gemm``.  The call is a
matrix multiply with an optional **fused epilogue** (``bias`` add and/or
a ``"relu"`` clamp) applied in place on the output, and an optional
``out=`` destination so callers can supply workspace-cached buffers.

Two classes implement it:

* :class:`NumpyBackend` (``"numpy"``) — the reference: one
  ``np.matmul`` per GEMM, then the epilogue.
* :class:`BlockedBackend` (``"blocked"``, the default) — tiles products
  with at least ``2 * block_rows`` output rows over blocks of rows and
  applies the epilogue per tile, while the tile is still cache-hot;
  smaller products take the direct path.  Tiling splits only the *M*
  dimension (full *K* per tile), so partial sums are computed in the
  same order as the direct product and results match the reference to
  round-off.

The active backend changes only inside a scoped :func:`use_backend`:

>>> from repro.backend import use_backend
>>> with use_backend("numpy"):
...     ...  # reference semantics inside the block

``TrainingConfig.compute_backend`` and the CLI's ``--backend`` open the
same scope around a run.  GEMM traffic is recorded in
:data:`repro.utils.perf.counters` (``gemm_calls``,
``backend_gemm_blocked``, ``backend_gemm_tiles``,
``backend_fused_bias``, ``backend_fused_activation``).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, Iterator, List, Optional, Union

import numpy as np

from ..utils.perf import counters

__all__ = [
    "NumpyBackend",
    "BlockedBackend",
    "available_backends",
    "get_backend",
    "use_backend",
]


class NumpyBackend:
    """Reference GEMM: one ``np.matmul``, then the epilogue."""

    name = "numpy"

    def gemm(
        self,
        a: np.ndarray,
        b: np.ndarray,
        out: Optional[np.ndarray] = None,
        *,
        bias: Optional[np.ndarray] = None,
        activation: Optional[str] = None,
    ) -> np.ndarray:
        """Matrix product ``a @ b`` with an optional fused epilogue.

        ``bias`` is broadcast-added over the output rows and
        ``activation`` (only ``"relu"``) clamps the result, both in place
        on the output.  With ``out=`` the product is written into that
        array, which is also returned.
        """
        self._count_gemm(bias, activation)
        result = np.matmul(a, b, out=out)
        return self._epilogue(result, bias, activation)

    @staticmethod
    def _count_gemm(bias: Optional[np.ndarray], activation: Optional[str]) -> None:
        # Counted once per fused op (never per tile), so the counters
        # mean the same thing on every backend.
        counters.add("gemm_calls")
        if bias is not None:
            counters.add("backend_fused_bias")
        if activation is not None:
            counters.add("backend_fused_activation")

    @staticmethod
    def _epilogue(out: np.ndarray, bias: Optional[np.ndarray],
                  activation: Optional[str]) -> np.ndarray:
        if bias is not None:
            out += bias
        if activation == "relu":
            # 0 is passed as a python scalar so float32 outputs stay float32.
            np.maximum(out, 0, out=out)
        elif activation is not None:
            raise ValueError(f"the GEMM epilogue supports activation='relu' or None, "
                             f"got {activation!r}")
        return out


class BlockedBackend(NumpyBackend):
    """Row-tiled GEMM with cache-hot fused epilogues.

    Large products are computed ``block_rows`` output rows at a time;
    the bias/activation epilogue runs on each tile right after its
    product, while the tile is still in cache, instead of as a second
    full pass over the output.  Only the *M* dimension is tiled — every
    tile sees the full *K* — so the summation order (and therefore the
    result, up to BLAS round-off) matches the direct product.

    Small problems (fewer than ``2 * block_rows`` output rows) and
    non-2D operands take the direct path.
    """

    name = "blocked"

    def __init__(self, block_rows: int = 2048) -> None:
        if block_rows <= 0:
            raise ValueError("block_rows must be positive")
        self.block_rows = int(block_rows)

    def gemm(
        self,
        a: np.ndarray,
        b: np.ndarray,
        out: Optional[np.ndarray] = None,
        *,
        bias: Optional[np.ndarray] = None,
        activation: Optional[str] = None,
    ) -> np.ndarray:
        if a.ndim != 2 or b.ndim != 2 or a.shape[0] < 2 * self.block_rows:
            return super().gemm(a, b, out=out, bias=bias, activation=activation)
        self._count_gemm(bias, activation)
        counters.add("backend_gemm_blocked")
        m = a.shape[0]
        if out is None:
            out = np.empty((m, b.shape[1]), dtype=np.result_type(a, b))
        for start in range(0, m, self.block_rows):
            stop = min(m, start + self.block_rows)
            tile = out[start:stop]
            np.matmul(a[start:stop], b, out=tile)
            self._epilogue(tile, bias, activation)
            counters.add("backend_gemm_tiles")
        return out


_BACKENDS: Dict[str, Callable[[], NumpyBackend]] = {
    "numpy": NumpyBackend,
    "blocked": BlockedBackend,
}

#: The active backend.  ``blocked`` is the default: it takes the direct
#: path for small problems, so it is never slower and needs no
#: configuration.  Only :func:`use_backend` changes it, and only for the
#: duration of its ``with`` block.
_ACTIVE: NumpyBackend = BlockedBackend()


def available_backends() -> List[str]:
    """Names accepted by :func:`use_backend`."""
    return sorted(_BACKENDS)


def get_backend() -> NumpyBackend:
    """The currently active backend."""
    return _ACTIVE


@contextlib.contextmanager
def use_backend(backend: Union[str, NumpyBackend, None]) -> Iterator[NumpyBackend]:
    """Make ``backend`` (a name or an instance) active within a ``with`` block.

    ``None`` leaves the active backend alone (nothing is swapped), so
    callers with an optional selection need no second code path.
    """
    global _ACTIVE
    if backend is None:
        yield _ACTIVE
        return
    if isinstance(backend, str):
        try:
            backend = _BACKENDS[backend.lower()]()
        except KeyError:
            known = ", ".join(available_backends())
            raise KeyError(f"unknown backend {backend!r}; known backends: {known}") from None
    if not isinstance(backend, NumpyBackend):
        raise TypeError(f"expected a backend or a name, got {type(backend).__name__}")
    previous, _ACTIVE = _ACTIVE, backend
    try:
        yield backend
    finally:
        _ACTIVE = previous
