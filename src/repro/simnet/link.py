"""Network links and messages.

A :class:`Link` models the uplink from an end-system to the centralized
server (and the downlink carrying the gradient back): a one-way delay
drawn from a :class:`~repro.simnet.latency.LatencyModel` plus a
serialization/transmission time proportional to the payload size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from .latency import ConstantLatency, LatencyModel

__all__ = ["Message", "Link", "payload_bytes", "DICT_FRAME_BYTES"]

_MESSAGE_COUNTER = itertools.count()

#: Framing overhead :func:`payload_bytes` charges for a dictionary payload.
DICT_FRAME_BYTES = 64


def payload_bytes(payload: Any) -> int:
    """Estimate the wire size of a payload.

    NumPy arrays report their buffer size; dictionaries/lists are summed
    recursively; everything else contributes a small fixed overhead.
    """
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, dict):
        return sum(payload_bytes(value) for value in payload.values()) + DICT_FRAME_BYTES
    if isinstance(payload, (list, tuple)):
        return sum(payload_bytes(value) for value in payload) + 16
    if payload is None:
        return 0
    return 64


@dataclass
class Message:
    """A payload in flight between two nodes of the simulated network."""

    source: str
    destination: str
    payload: Any
    created_at: float = 0.0
    arrival_time: float = 0.0
    size_bytes: int = 0
    kind: str = "data"
    message_id: int = field(default_factory=lambda: next(_MESSAGE_COUNTER))
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def transit_time(self) -> float:
        """Seconds spent between creation and arrival."""
        return self.arrival_time - self.created_at


class Link:
    """Point-to-point link with latency and finite bandwidth.

    Parameters
    ----------
    latency:
        One-way delay model (defaults to 1 ms constant).
    bandwidth_bps:
        Link throughput in bits per second; ``None`` models an
        infinitely fast link (only propagation delay matters).
    drop_probability:
        Probability that a message is silently lost (used by the
        failure-injection tests; the trainer falls back to skipping the
        lost batch).
    seed:
        Seed of the link's own stream (latency samples and losses).
    direction:
        Which way the link carries traffic (``"up"``, ``"down"`` or
        ``"sync"``), recorded in :meth:`stats` so uplink, downlink and
        inter-server traffic can be told apart.  Every link is one-way.
    """

    def __init__(
        self,
        latency: Optional[LatencyModel] = None,
        bandwidth_bps: Optional[float] = 100e6,
        drop_probability: float = 0.0,
        *,
        seed: int,
        direction: str = "up",
    ) -> None:
        if bandwidth_bps is not None and bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive (or None for infinite)")
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")
        self.latency = latency if latency is not None else ConstantLatency(0.001)
        self.bandwidth_bps = bandwidth_bps
        self.drop_probability = drop_probability
        self.direction = direction
        #: Administrative state: a link incident to a crashed hub is
        #: marked down (``GeoTopology.set_node_up``) and loses every
        #: message deterministically until the hub recovers.
        self.up = True
        self._rng = np.random.default_rng(seed)
        self.messages_sent = 0
        self.messages_dropped = 0
        #: Subset of ``messages_dropped`` lost to administrative outages
        #: (node down / hub partition) rather than stochastic loss — the
        #: chaos tests use it to attribute flap- and partition-induced
        #: losses.
        self.admin_dropped = 0
        self.bytes_sent = 0

    def transfer_time(self, size_bytes: int) -> float:
        """Seconds needed to deliver ``size_bytes`` over this link (one sample)."""
        delay = self.latency.sample(self._rng)
        if self.bandwidth_bps is not None:
            delay += (size_bytes * 8.0) / self.bandwidth_bps
        return delay

    def expected_transfer_time(self, size_bytes: int) -> float:
        """Expected delivery time (no sampling), for deterministic planning."""
        delay = self.latency.mean()
        if self.bandwidth_bps is not None:
            delay += (size_bytes * 8.0) / self.bandwidth_bps
        return delay

    def send(self, source: str, destination: str, payload: Any, now: float,
             kind: str = "data", size: Optional[int] = None) -> Optional[Message]:
        """Create a message and stamp its arrival time.

        ``size`` is the wire size when the sender knows it (activation and
        gradient messages fix theirs at construction), else it is estimated
        with :func:`payload_bytes`.  Returns ``None`` on a drop.
        """
        if size is None:
            size = payload_bytes(payload)
        self.messages_sent += 1
        if not self.up:
            # One of the endpoints is down: the message is lost without
            # consuming a drop draw, so the loss RNG stream stays aligned
            # with an identically-seeded run that never saw the outage.
            self.messages_dropped += 1
            self.admin_dropped += 1
            return None
        if self.drop_probability and self._rng.random() < self.drop_probability:
            self.messages_dropped += 1
            return None
        self.bytes_sent += size
        # Every field given: no default-factory call per send.
        return Message(
            source=source,
            destination=destination,
            payload=payload,
            created_at=now,
            arrival_time=now + self.transfer_time(size),
            size_bytes=size,
            kind=kind,
            message_id=next(_MESSAGE_COUNTER),
            metadata={},
        )

    def stats(self) -> Dict[str, float]:
        """Traffic counters for this link."""
        return {
            "direction": self.direction,
            "messages_sent": self.messages_sent,
            "messages_dropped": self.messages_dropped,
            "admin_dropped": self.admin_dropped,
            "bytes_sent": self.bytes_sent,
            "drop_rate": self.messages_dropped / max(self.messages_sent, 1),
        }

    def __repr__(self) -> str:
        bandwidth = "inf" if self.bandwidth_bps is None else f"{self.bandwidth_bps / 1e6:.0f} Mbps"
        return f"Link(latency={self.latency!r}, bandwidth={bandwidth}, direction={self.direction!r})"
