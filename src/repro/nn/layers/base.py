"""Module and Parameter abstractions for the neural-network substrate.

A :class:`Module` is a container of :class:`Parameter` objects and child
modules, with the familiar ``forward`` / ``__call__`` protocol, recursive
parameter enumeration and state-dict serialization.  Split learning relies heavily on this abstraction: an
end-system holds a module made of the first ``L_i`` blocks while the
centralized server holds a module made of the remaining blocks, and both
enumerate and update their own parameters independently.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A tensor that is a trainable parameter of a module.

    Parameters always require gradients; optimizers discover them through
    :meth:`Module.parameters`.
    """

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)

    def __repr__(self) -> str:
        return f"Parameter(shape={self.shape}, name={self.name!r})"


class Module:
    """Base class for every layer and model in the substrate."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register_module(self, name: str, module: "Module") -> None:
        """Register a child module under ``name``."""
        if not isinstance(module, Module):
            raise TypeError(f"expected Module, got {type(module).__name__}")
        self._modules[name] = module

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            # Ensure registries exist even if a subclass forgot super().__init__.
            if "_parameters" not in self.__dict__:
                raise RuntimeError(
                    "Module.__init__() must be called before assigning parameters"
                )
            self._parameters[name] = value
            value.name = value.name or name
        elif isinstance(value, Module):
            if "_modules" not in self.__dict__:
                raise RuntimeError(
                    "Module.__init__() must be called before assigning submodules"
                )
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    # Forward protocol
    # ------------------------------------------------------------------ #
    def forward(self, *inputs: Tensor) -> Tensor:
        raise NotImplementedError(
            f"{type(self).__name__} must implement forward()"
        )

    def __call__(self, *inputs: Tensor) -> Tensor:
        return self.forward(*inputs)

    # ------------------------------------------------------------------ #
    # Parameter / module traversal
    # ------------------------------------------------------------------ #
    def parameters(self) -> List[Parameter]:
        """Return all trainable parameters of this module and its children."""
        return [parameter for _, parameter in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs recursively."""
        for name, parameter in self._parameters.items():
            yield prefix + name, parameter
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants depth-first."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return sum(parameter.size for parameter in self.parameters())

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat mapping of parameter arrays (copies)."""
        return {name: parameter.data.copy() for name, parameter in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameter values from :meth:`state_dict` output."""
        own_parameters = dict(self.named_parameters())
        missing: List[str] = []
        for name, parameter in own_parameters.items():
            if name not in state:
                missing.append(name)
                continue
            value = np.asarray(state[name])
            if value.shape != parameter.data.shape:
                raise ValueError(
                    f"shape mismatch for parameter {name!r}: "
                    f"expected {parameter.data.shape}, got {value.shape}"
                )
            # astype copies (C order, as parameters are): the one copy a restore makes.
            parameter.data = value.astype(parameter.data.dtype, order="C")
        unexpected = [key for key in state if key not in own_parameters]
        if strict and (missing or unexpected):
            raise KeyError(
                f"state_dict mismatch: missing={missing}, unexpected={unexpected}"
            )

    # ------------------------------------------------------------------ #
    # Representation
    # ------------------------------------------------------------------ #
    def extra_repr(self) -> str:
        """Extra information appended to the module's repr line."""
        return ""

    def __repr__(self) -> str:
        lines = [f"{type(self).__name__}({self.extra_repr()}"]
        for name, child in self._modules.items():
            child_repr = repr(child).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child_repr}")
        if len(lines) == 1:
            return lines[0] + ")"
        lines.append(")")
        return "\n".join(lines)
