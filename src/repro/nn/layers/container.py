"""Container modules: Sequential composition and named slicing.

Split learning is, at its heart, *slicing a Sequential model in two*: the
end-system keeps ``model[:cut]`` and the centralized server keeps
``model[cut:]``.  :class:`Sequential` therefore supports integer indexing,
slicing (returning a new ``Sequential`` that shares the same parameter
objects) and layer-name lookup, which :mod:`repro.core.split` builds on.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from ..tensor import Tensor
from .base import Module

__all__ = ["Sequential"]


class Sequential(Module):
    """Chain of modules applied in order.

    Parameters
    ----------
    layers:
        Either a sequence of modules, or a sequence of ``(name, module)``
        pairs when stable layer names are needed (the Fig.-3 CNN builder
        names its blocks ``L1_conv``, ``L1_pool``, ... so that split points
        can be expressed as "everything up to and including ``L2_pool``").
    """

    def __init__(self, layers: Sequence[Union[Module, Tuple[str, Module]]] = ()) -> None:
        super().__init__()
        self._layer_names: List[str] = []
        for index, item in enumerate(layers):
            if isinstance(item, tuple):
                name, module = item
            else:
                name, module = f"layer{index}", item
            self.append(module, name=name)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def append(self, module: Module, name: Optional[str] = None) -> "Sequential":
        """Append a module, optionally under an explicit name."""
        if not isinstance(module, Module):
            raise TypeError(f"expected Module, got {type(module).__name__}")
        name = name if name is not None else f"layer{len(self._layer_names)}"
        if name in self._modules:
            raise ValueError(f"duplicate layer name {name!r}")
        self._layer_names.append(name)
        self.register_module(name, module)
        return self

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def layer_names(self) -> List[str]:
        """Names of the layers in application order."""
        return list(self._layer_names)

    def __len__(self) -> int:
        return len(self._layer_names)

    def __iter__(self) -> Iterator[Module]:
        for name in self._layer_names:
            yield self._modules[name]

    def index_of(self, name: str) -> int:
        """Return the position of the layer called ``name``.

        Raises
        ------
        KeyError
            If no layer has that name.
        """
        try:
            return self._layer_names.index(name)
        except ValueError:
            raise KeyError(
                f"no layer named {name!r}; available layers: {self._layer_names}"
            ) from None

    def __getitem__(self, index: Union[int, slice, str]) -> Union[Module, "Sequential"]:
        if isinstance(index, str):
            return self._modules[index]
        if isinstance(index, slice):
            names = self._layer_names[index]
            return Sequential([(name, self._modules[name]) for name in names])
        return self._modules[self._layer_names[index]]

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def forward(self, inputs: Tensor) -> Tensor:
        output = inputs
        for name in self._layer_names:
            output = self._modules[name](output)
        return output

    def forward_collect(self, inputs: Tensor) -> "OrderedDict[str, Tensor]":
        """Run the forward pass and return every intermediate activation.

        Used by the privacy analysis (Fig. 4) to capture the activation
        after each named layer without re-running the network.
        """
        activations: "OrderedDict[str, Tensor]" = OrderedDict()
        output = inputs
        for name in self._layer_names:
            output = self._modules[name](output)
            activations[name] = output
        return activations

    def split_at(self, cut: Union[int, str]) -> Tuple["Sequential", "Sequential"]:
        """Split into ``(head, tail)`` sub-models sharing parameters.

        Parameters
        ----------
        cut:
            Either an integer index (number of layers in the head) or a
            layer name; when a name is given the head contains every layer
            up to *and including* that layer.
        """
        if isinstance(cut, str):
            cut_index = self.index_of(cut) + 1
        else:
            cut_index = int(cut)
        if not 0 <= cut_index <= len(self):
            raise ValueError(
                f"cut index {cut_index} out of range for a {len(self)}-layer model"
            )
        return self[:cut_index], self[cut_index:]
