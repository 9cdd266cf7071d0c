"""Optimizers.

In spatio-temporal split learning each side of the cut owns its own
optimizer: every end-system updates its local first-block parameters with
the gradient the server sends back, and the centralized server updates the
remaining layers.  All optimizers therefore operate on an explicit list of
parameters rather than on a whole model.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..utils.perf import workspace
from .layers.base import Parameter

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "RMSProp",
    "get_optimizer",
]


class Optimizer:
    """Base class: holds parameters and a learning rate, applies updates.

    Subclasses that keep per-parameter moment buffers declare them in
    ``_slots``: each entry ``name`` maps to an attribute ``_{name}``
    holding a ``List[Optional[np.ndarray]]`` aligned with
    :attr:`parameters` (``None`` until the first step touches that
    parameter).  :meth:`state_dict`/:meth:`load_state_dict` round-trip
    those buffers generically, so a restored optimizer resumes the exact
    update trajectory of the one that was checkpointed.
    """

    _slots: Sequence[str] = ()

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        self._step_count = 0

    def zero_grad(self) -> None:
        """Clear gradients on every managed parameter."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        """Apply one update using the gradients currently stored on the parameters."""
        self._step_count += 1
        for index, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            self._update(index, parameter)

    def _update(self, index: int, parameter: Parameter) -> None:
        raise NotImplementedError

    @property
    def step_count(self) -> int:
        """Number of :meth:`step` calls performed so far."""
        return self._step_count

    def state_dict(self) -> Dict[str, object]:
        """Full optimizer state: hyper-state plus per-parameter slot buffers.

        The returned arrays are **copies** — the dictionary is a true
        snapshot, decoupled from the in-place moment updates later steps
        perform.  Slots a step has not touched yet stay ``None``.
        """
        slots: Dict[str, List[Optional[np.ndarray]]] = {}
        for name in self._slots:
            buffers: List[Optional[np.ndarray]] = getattr(self, f"_{name}")
            slots[name] = [None if b is None else b.copy() for b in buffers]
        return {"lr": self.lr, "step_count": self._step_count, "slots": slots}

    def load_state_dict(self, state: Dict[str, object], strict: bool = True) -> None:
        """Restore state produced by :meth:`state_dict`.

        With ``strict=True`` the state's slot names and per-slot lengths
        must match this optimizer exactly; with ``strict=False`` unknown
        slots are ignored and missing ones keep their current buffers.  A
        legacy hyper-only dictionary (no ``"slots"`` key) restores the
        learning rate and step count and leaves the buffers untouched.
        Restored arrays are cast to each live parameter's dtype and
        copied into fresh buffers, so a float64-policy checkpoint loads
        cleanly into a float32-policy run (and vice versa) and the
        in-place update discipline never aliases checkpoint memory.
        """
        self.lr = float(state["lr"])
        self._step_count = int(state["step_count"])
        slots = state.get("slots")
        if slots is None:
            return
        known = set(self._slots)
        unexpected = set(slots) - known
        missing = known - set(slots)
        if strict and (unexpected or missing):
            raise ValueError(
                f"optimizer state mismatch: unexpected slots {sorted(unexpected)}, "
                f"missing slots {sorted(missing)}"
            )
        for name in self._slots:
            if name not in slots:
                continue
            entries = slots[name]
            if len(entries) != len(self.parameters):
                raise ValueError(
                    f"slot {name!r} carries {len(entries)} buffers for "
                    f"{len(self.parameters)} parameters"
                )
            buffers: List[Optional[np.ndarray]] = getattr(self, f"_{name}")
            for index, entry in enumerate(entries):
                if entry is None:
                    buffers[index] = None
                    continue
                target = self.parameters[index].data
                value = np.asarray(entry)
                if value.shape != target.shape:
                    raise ValueError(
                        f"slot {name!r}[{index}] has shape {value.shape}, "
                        f"parameter has shape {target.shape}"
                    )
                buffers[index] = value.astype(target.dtype, copy=True)


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    _slots = ("velocity",)

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self._velocity: List[Optional[np.ndarray]] = [None] * len(self.parameters)

    def _update(self, index: int, parameter: Parameter) -> None:
        grad = parameter.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * parameter.data
        if self.momentum:
            velocity = self._velocity[index]
            if velocity is None:
                velocity = np.zeros_like(parameter.data)
                self._velocity[index] = velocity
            # In-place state update: velocity = momentum * velocity + grad.
            velocity *= self.momentum
            velocity += grad
            if self.nesterov:
                grad = grad + self.momentum * velocity
            else:
                grad = velocity
        # Rebind rather than mutate in place: backward closures of still-
        # pending graphs (async max_in_flight > 1) hold views of the old
        # weight buffer and must keep seeing forward-time values.
        parameter.data = parameter.data - self.lr * grad


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015)."""

    _slots = ("m", "v")

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: Sequence[float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._v: List[Optional[np.ndarray]] = [None] * len(self.parameters)

    def _effective_grad(self, parameter: Parameter) -> np.ndarray:
        grad = parameter.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * parameter.data
        return grad

    def _update(self, index: int, parameter: Parameter) -> None:
        grad = self._effective_grad(parameter)
        m = self._m[index]
        v = self._v[index]
        if m is None:
            m = np.zeros_like(parameter.data)
            v = np.zeros_like(parameter.data)
            self._m[index] = m
            self._v[index] = v
        # In-place moment updates avoid reallocating two state-sized
        # arrays per parameter per step; the intermediate products live
        # in workspace scratch (transient: fully consumed below).
        scratch = workspace("optim.adam.scratch", grad.shape, grad.dtype)
        denom = workspace("optim.adam.denom", grad.shape, grad.dtype)
        m *= self.beta1
        np.multiply(grad, 1 - self.beta1, out=scratch)
        m += scratch
        v *= self.beta2
        np.multiply(grad, grad, out=scratch)
        scratch *= 1 - self.beta2
        v += scratch
        # step = lr * m_hat / (sqrt(v_hat) + eps), with the bias
        # corrections folded into the scalar factors.
        np.divide(v, 1 - self.beta2 ** self._step_count, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        np.divide(m, denom, out=scratch)
        scratch *= self.lr / (1 - self.beta1 ** self._step_count)
        # Rebind (see SGD._update): pending backward closures may hold
        # views of the current weight buffer.
        parameter.data = parameter.data - scratch


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019)."""

    def _effective_grad(self, parameter: Parameter) -> np.ndarray:
        # Decoupled: decay is applied directly to the weights in _update.
        return parameter.grad

    def _update(self, index: int, parameter: Parameter) -> None:
        if self.weight_decay:
            parameter.data = parameter.data - self.lr * self.weight_decay * parameter.data
        super()._update(index, parameter)


class RMSProp(Optimizer):
    """RMSProp with exponentially decaying squared-gradient average."""

    _slots = ("square_avg",)

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        alpha: float = 0.99,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {alpha}")
        self.alpha = alpha
        self.eps = eps
        self.weight_decay = weight_decay
        self._square_avg: List[Optional[np.ndarray]] = [None] * len(self.parameters)

    def _update(self, index: int, parameter: Parameter) -> None:
        grad = parameter.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * parameter.data
        square_avg = self._square_avg[index]
        if square_avg is None:
            square_avg = np.zeros_like(parameter.data)
            self._square_avg[index] = square_avg
        square_avg *= self.alpha
        square_avg += (1 - self.alpha) * (grad * grad)
        # Rebind (see SGD._update): pending backward closures may hold
        # views of the current weight buffer.
        parameter.data = parameter.data - self.lr * grad / (np.sqrt(square_avg) + self.eps)


_OPTIMIZERS = {
    "sgd": SGD,
    "adam": Adam,
    "adamw": AdamW,
    "rmsprop": RMSProp,
}


def get_optimizer(name: str, parameters: Iterable[Parameter], **kwargs) -> Optimizer:
    """Instantiate an optimizer by name (``sgd``, ``adam``, ``adamw``, ``rmsprop``)."""
    try:
        cls = _OPTIMIZERS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_OPTIMIZERS))
        raise KeyError(f"unknown optimizer {name!r}; known optimizers: {known}") from None
    return cls(parameters, **kwargs)
