"""Deterministic random-number management.

Every stochastic component (weight initialization, data generation, data
partitioning, network latency sampling) receives its own
``numpy.random.Generator`` derived from a single experiment seed, so that
experiments are reproducible and the per-end-system streams are
independent of how many end-systems participate.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

__all__ = ["SeedSequence"]


class SeedSequence:
    """Named, reproducible generator factory for a whole experiment.

    Each component asks for a generator by name; the same (seed, name) pair
    always yields the same stream regardless of request order.

    Example
    -------
    >>> seeds = SeedSequence(42)
    >>> rng_model = seeds.generator("model-init")
    >>> rng_data = seeds.generator("data")
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def generator(self, name: Union[str, int]) -> np.random.Generator:
        """Return a generator unique to ``(self.seed, name)``."""
        # Derive a stable 64-bit value from the component name.
        name_digest = np.frombuffer(str(name).encode(), dtype=np.uint8).sum() * 2654435761
        combined = np.random.SeedSequence([self.seed, int(name_digest) % (2 ** 63)])
        return np.random.default_rng(combined)

    def generators(self, names: Sequence[Union[str, int]]) -> List[np.random.Generator]:
        """Return one generator per name."""
        return [self.generator(name) for name in names]
