"""Latency models for geo-distributed links.

The paper's Fig. 2 motivates the server-side scheduling queue with the
observation that an end-system "located very far from the centralized
server" delivers its parameters late or sparsely.  These models map a link
(or a pair of geographic coordinates) to a per-message one-way delay.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "GaussianLatency",
    "DistanceLatency",
    "great_circle_km",
]

EARTH_RADIUS_KM = 6371.0
# Signal propagation in optical fibre is roughly 2/3 of the speed of light.
FIBRE_KM_PER_SECOND = 200_000.0


def great_circle_km(coord_a: Tuple[float, float], coord_b: Tuple[float, float]) -> float:
    """Great-circle distance in kilometres between two (lat, lon) pairs in degrees."""
    lat1, lon1 = map(math.radians, coord_a)
    lat2, lon2 = map(math.radians, coord_b)
    delta_lat = lat2 - lat1
    delta_lon = lon2 - lon1
    a = math.sin(delta_lat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(delta_lon / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


class LatencyModel:
    """Base class: produces a one-way delay sample per message."""

    def sample(self, rng: np.random.Generator) -> float:
        """Return one delay sample in seconds."""
        raise NotImplementedError

    def mean(self) -> float:
        """Expected delay in seconds (used by deterministic schedulers)."""
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Fixed delay for every message."""

    def __init__(self, delay_s: float) -> None:
        if delay_s < 0:
            raise ValueError("delay must be non-negative")
        self.delay_s = float(delay_s)

    def sample(self, rng: np.random.Generator) -> float:
        return self.delay_s

    def mean(self) -> float:
        return self.delay_s

    def __repr__(self) -> str:
        return f"ConstantLatency({self.delay_s * 1e3:.1f} ms)"


class UniformLatency(LatencyModel):
    """Delay drawn uniformly from ``[low_s, high_s]``."""

    def __init__(self, low_s: float, high_s: float) -> None:
        if low_s < 0 or high_s < low_s:
            raise ValueError("require 0 <= low_s <= high_s")
        self.low_s = float(low_s)
        self.high_s = float(high_s)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low_s, self.high_s))

    def mean(self) -> float:
        return (self.low_s + self.high_s) / 2.0

    def __repr__(self) -> str:
        return f"UniformLatency([{self.low_s * 1e3:.1f}, {self.high_s * 1e3:.1f}] ms)"


class GaussianLatency(LatencyModel):
    """Gaussian delay (truncated at a configurable floor)."""

    def __init__(self, mean_s: float, std_s: float, floor_s: float = 1e-4) -> None:
        if mean_s < 0 or std_s < 0 or floor_s < 0:
            raise ValueError("latency parameters must be non-negative")
        self.mean_s = float(mean_s)
        self.std_s = float(std_s)
        self.floor_s = float(floor_s)

    def sample(self, rng: np.random.Generator) -> float:
        return float(max(self.floor_s, rng.normal(self.mean_s, self.std_s)))

    def mean(self) -> float:
        return self.mean_s

    def __repr__(self) -> str:
        return f"GaussianLatency({self.mean_s * 1e3:.1f} ± {self.std_s * 1e3:.1f} ms)"


class DistanceLatency(LatencyModel):
    """Propagation delay derived from geographic distance plus jitter.

    ``delay = distance / fibre_speed * path_stretch + base + jitter`` where
    ``path_stretch`` accounts for the fact that fibre routes are longer
    than the great-circle path.
    """

    def __init__(
        self,
        coord_a: Tuple[float, float],
        coord_b: Tuple[float, float],
        base_s: float = 0.001,
        path_stretch: float = 2.0,
        jitter_std_s: float = 0.002,
    ) -> None:
        if path_stretch < 1.0:
            raise ValueError("path_stretch must be at least 1.0")
        self.distance_km = great_circle_km(coord_a, coord_b)
        self.base_s = float(base_s)
        self.path_stretch = float(path_stretch)
        self.jitter_std_s = float(jitter_std_s)
        self.propagation_s = self.distance_km * self.path_stretch / FIBRE_KM_PER_SECOND

    def sample(self, rng: np.random.Generator) -> float:
        jitter = abs(rng.normal(0.0, self.jitter_std_s)) if self.jitter_std_s else 0.0
        return self.base_s + self.propagation_s + jitter

    def mean(self) -> float:
        # E[|N(0, s)|] = s * sqrt(2/pi)
        expected_jitter = self.jitter_std_s * math.sqrt(2.0 / math.pi)
        return self.base_s + self.propagation_s + expected_jitter

    def __repr__(self) -> str:
        return (
            f"DistanceLatency({self.distance_km:.0f} km, "
            f"~{self.mean() * 1e3:.1f} ms)"
        )
