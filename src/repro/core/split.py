"""Split specification: which layers live on end-systems vs. the server.

The paper's central design knob is *how many of the CNN's blocks are held
by the end-systems*.  Table I sweeps this from "Nothing" (all layers at
the server — the non-private global model) through "L1, L2, L3, L4".
:class:`SplitSpec` captures that knob and knows how to materialize

* a fresh *client segment* (blocks ``L1 .. L{client_blocks}``) for each
  end-system — every end-system trains its own copy on its own data, and
* the *server segment* (everything after the cut), of which there is a
  single shared instance trained on the activations of all end-systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..nn import Sequential
from .models import CNNArchitecture

__all__ = ["SplitSpec"]


@dataclass(frozen=True)
class SplitSpec:
    """A (architecture, cut point) pair.

    Parameters
    ----------
    architecture:
        Factory describing the full network.
    client_blocks:
        Number of ``L_i`` blocks held by each end-system.  ``0`` reproduces
        the paper's "Nothing (all layers are in the server)" row, i.e. the
        centralized, non-private baseline; ``architecture.num_blocks``
        places every convolutional block on the end-systems.
    """

    architecture: CNNArchitecture
    client_blocks: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.client_blocks <= self.architecture.num_blocks:
            raise ValueError(
                f"client_blocks must be in [0, {self.architecture.num_blocks}], "
                f"got {self.client_blocks}"
            )

    # ------------------------------------------------------------------ #
    # Descriptive helpers
    # ------------------------------------------------------------------ #
    @property
    def label(self) -> str:
        """Human-readable name matching Table I's first column."""
        if self.client_blocks == 0:
            return "Nothing (all layers are in the server)"
        return ", ".join(f"L{index + 1}" for index in range(self.client_blocks))

    @property
    def is_private(self) -> bool:
        """True when end-systems never transmit raw input data."""
        return self.client_blocks > 0

    @property
    def boundary_layer(self) -> Optional[str]:
        """Name of the last client-side layer (``None`` when the cut is 0)."""
        return self.architecture.boundary_layer_name(self.client_blocks)

    @property
    def smashed_shape(self) -> Tuple[int, int, int]:
        """Shape ``(C, H, W)`` of the activation crossing the cut."""
        return self.architecture.block_output_shape(self.client_blocks)

    def smashed_size(self, batch_size: int) -> int:
        """Number of scalars shipped to the server per batch."""
        channels, height, width = self.smashed_shape
        return batch_size * channels * height * width

    # ------------------------------------------------------------------ #
    # Model materialization
    # ------------------------------------------------------------------ #
    def _cut_index(self, model: Sequential) -> int:
        boundary = self.boundary_layer
        if boundary is None:
            return 0
        return model.index_of(boundary) + 1

    def build_full_model(self, seed: int) -> Sequential:
        """Instantiate the complete, unsplit network."""
        return self.architecture.build(seed=seed)

    def build_client_segment(self, seed: int) -> Sequential:
        """Instantiate a fresh client segment (blocks ``L1 .. L{client_blocks}``).

        Only those blocks are constructed (an empty ``Sequential`` when the
        cut is 0).  Their initialization draws come first in the seeded
        stream, so the weights equal the head of :meth:`build_full_model`
        for the same ``seed``.
        """
        return self.architecture.build_blocks(self.client_blocks, seed=seed)

    def build_server_segment(self, seed: int) -> Sequential:
        """Instantiate the server segment (everything after the cut)."""
        model = self.build_full_model(seed=seed)
        _, tail = model.split_at(self._cut_index(model))
        return tail

    def split_model(self, model: Sequential) -> Tuple[Sequential, Sequential]:
        """Split an existing full model into (client, server) views sharing parameters."""
        return model.split_at(self._cut_index(model))

    def __str__(self) -> str:
        return f"SplitSpec(client_blocks={self.client_blocks}, label={self.label!r})"
