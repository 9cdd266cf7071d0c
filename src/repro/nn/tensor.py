"""Reverse-mode automatic differentiation over NumPy arrays.

This module implements the :class:`Tensor` class, a thin wrapper around a
``numpy.ndarray`` that records the computation graph as operations are
applied and can back-propagate gradients through it with
:meth:`Tensor.backward`.

The design follows the usual define-by-run autograd recipe:

* every operation produces a new :class:`Tensor` whose ``_parents`` point at
  the operand tensors and whose ``_backward`` closure knows how to push the
  output gradient back onto the parents;
* :meth:`Tensor.backward` topologically sorts the graph reachable from the
  output and runs the closures in reverse order, accumulating into
  ``Tensor.grad``;
* broadcasting is handled by :func:`unbroadcast`, which sums gradients over
  the broadcast dimensions so that a parent's gradient always has the
  parent's shape.

Only the operations the split-learning stack reaches are implemented: the
elementwise, reduction and reshape ops that the losses, ``ReLU``, ``Flatten``
and the softmax helpers compose; convolution, pooling and the dense layer
are fused graph nodes in :mod:`repro.nn.functional`.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, Union

import numpy as np

from .dtype import get_default_dtype

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "unbroadcast", "ensure_tensor"]

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

# Global autograd switch, toggled by the ``no_grad`` context manager.
_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables gradient tracking.

    Used during evaluation and when an end-system's activations must be
    detached before being shipped to the centralized server (the server
    never sees the client-side graph).

    Example
    -------
    >>> with no_grad():
    ...     y = model(x)
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous


def is_grad_enabled() -> bool:
    """Return ``True`` when operations record the autograd graph."""
    return _GRAD_ENABLED


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    NumPy broadcasting may have expanded a parent of shape ``shape`` to the
    output shape; the gradient flowing back must be summed over every axis
    that was broadcast.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were size 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def ensure_tensor(value: ArrayLike) -> "Tensor":
    """Coerce ``value`` into a :class:`Tensor` (no copy if already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    array = np.asarray(value, dtype=dtype if dtype is not None else get_default_dtype())
    return array


class Tensor:
    """A NumPy-backed tensor with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts.  When ``dtype`` is ``None``
        (the default) the array is coerced to the global dtype policy
        (:func:`repro.nn.dtype.get_default_dtype`, float32 out of the
        box); pass an explicit dtype to opt out.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        dtype=None,
        name: Optional[str] = None,
    ) -> None:
        self.data: np.ndarray = _as_array(data, dtype=dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def item(self) -> float:
        """Return the value of a scalar tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    def _make_output(self, data: np.ndarray, parents: Tuple["Tensor", ...]) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, dtype=data.dtype)
        if requires:
            out._parents = parents
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into :attr:`grad`.

        ``owned=True`` is a backward-closure fast path: it asserts that
        ``grad`` is a freshly allocated array no one else references, so
        on first accumulation it can be stored directly instead of
        copied, and subsequent accumulations can run in place.  Closures
        that pass the upstream array itself on (e.g. ``__sub__``'s first
        operand) must keep the default ``owned=False``.
        """
        if not self.requires_grad:
            return
        if not isinstance(grad, np.ndarray) or grad.dtype != self.data.dtype:
            converted = np.asarray(grad, dtype=self.data.dtype)
            owned = owned or converted is not grad
            grad = converted
        if grad.shape != self.data.shape:
            grad = unbroadcast(grad, self.data.shape)
            owned = True  # unbroadcast reduced/reshaped into a new array
        if self.grad is None:
            self.grad = grad if owned and grad.flags.writeable else grad.copy()
        else:
            self.grad += grad

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ``1.0`` for scalar outputs (the usual loss case).
            In split learning the server passes the gradient of the loss
            with respect to the smashed activations back to the
            end-system, which calls ``activation.backward(grad)`` here.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient is only valid "
                    f"for scalar tensors, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = _as_array(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(self.data.dtype)

        self._accumulate(grad)

        # Nodes are visited children-before-parents, so by the time a node
        # is processed its ``grad`` holds the sum of every downstream path.
        for node in self._topological_order():
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _topological_order(self) -> list:
        """Return nodes reachable from ``self`` in reverse topological order."""
        visited: set[int] = set()
        order: list[Tensor] = []

        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------ #
    # Arithmetic ops
    # ------------------------------------------------------------------ #
    def __neg__(self) -> "Tensor":
        out = self._make_output(-self.data, (self,))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(-grad, owned=True)

        if out.requires_grad:
            out._backward = _backward
        return out

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = ensure_tensor(other)
        out = self._make_output(self.data - other.data, (self, other))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(-grad)

        if out.requires_grad:
            out._backward = _backward
        return out

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = ensure_tensor(other)
        out = self._make_output(self.data * other.data, (self, other))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * other.data, owned=True)
            other._accumulate(grad * self.data, owned=True)

        if out.requires_grad:
            out._backward = _backward
        return out

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = ensure_tensor(other)
        out = self._make_output(self.data / other.data, (self, other))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad / other.data, owned=True)
            other._accumulate(-grad * self.data / (other.data ** 2), owned=True)

        if out.requires_grad:
            out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        out = self._make_output(np.asarray(out_data), (self,))

        def _backward(grad: np.ndarray) -> None:
            grad_expanded = _expand_reduction_grad(grad, self.data.shape, axis, keepdims)
            self._accumulate(grad_expanded)

        if out.requires_grad:
            out._backward = _backward
        return out

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.mean(axis=axis, keepdims=keepdims)
        out = self._make_output(np.asarray(out_data), (self,))
        count = self.data.size if axis is None else _axis_count(self.data.shape, axis)

        def _backward(grad: np.ndarray) -> None:
            grad_expanded = _expand_reduction_grad(grad, self.data.shape, axis, keepdims)
            self._accumulate(grad_expanded / count, owned=True)

        if out.requires_grad:
            out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # Elementwise nonlinearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        out = self._make_output(out_data, (self,))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data, owned=True)

        if out.requires_grad:
            out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out = self._make_output(np.log(self.data), (self,))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data, owned=True)

        if out.requires_grad:
            out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        from ..utils.perf import workspace_like

        # One clamping pass (0 as a python scalar keeps float32 float32);
        # the winner mask is recovered in backward from the output
        # (out > 0 iff data > 0).
        out_data = np.maximum(self.data, 0)
        out = self._make_output(out_data, (self,))

        def _backward(grad: np.ndarray) -> None:
            mask = workspace_like("relu.mask", out_data, np.bool_)
            np.greater(out_data, 0, out=mask)
            self._accumulate(grad * mask, owned=True)

        if out.requires_grad:
            out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original_shape = self.data.shape
        out = self._make_output(self.data.reshape(shape), (self,))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original_shape))

        if out.requires_grad:
            out._backward = _backward
        return out

    def flatten_batch(self) -> "Tensor":
        """Flatten every dimension after the batch dimension."""
        batch = self.data.shape[0]
        return self.reshape(batch, -1)


def _axis_count(shape: Tuple[int, ...], axis: Union[int, Tuple[int, ...]]) -> int:
    if isinstance(axis, int):
        axis = (axis,)
    count = 1
    for ax in axis:
        count *= shape[ax]
    return count


def _expand_reduction_grad(
    grad: np.ndarray,
    original_shape: Tuple[int, ...],
    axis: Optional[Union[int, Tuple[int, ...]]],
    keepdims: bool,
) -> np.ndarray:
    """Broadcast the gradient of a reduction back to the operand's shape.

    Returns a read-only broadcast *view* — consumers either combine it
    into a fresh array (mean backward) or let ``_accumulate`` copy
    it (sum backward), so no eager copy is needed here.
    """
    grad = np.asarray(grad)
    if axis is None:
        return np.broadcast_to(grad, original_shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(a % len(original_shape) for a in axes)
    if not keepdims:
        for ax in sorted(axes):
            grad = np.expand_dims(grad, ax)
    return np.broadcast_to(grad, original_shape)
