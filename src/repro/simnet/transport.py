"""Transport layer: shipping activation/gradient payloads over a topology.

``Transport`` bridges the split-learning trainer and the network
simulation: the trainer hands it a payload (smashed activations going up,
gradients coming back) and the transport stamps the message with an
arrival time sampled from the corresponding link.  A per-round
:class:`TrafficLog` records volumes and delays so experiments can report
communication cost alongside accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from .link import Message
from .topology import GeoTopology

__all__ = ["Transport", "TrafficLog"]


@dataclass
class TrafficLog:
    """Aggregate statistics of the traffic a transport has carried.

    Four directions are tracked: ``"up"`` (activations), ``"down"``
    (gradients), ``"nack"`` (queue-overflow notifications — they ride
    the downlink :class:`~repro.simnet.link.Link`, so their *drops*
    count towards ``downlink_dropped`` for link-level parity, but their
    deliveries are logged separately so gradient traffic stays clean)
    and ``"sync"`` (inter-server weight synchronization).
    """

    uplink_messages: int = 0
    downlink_messages: int = 0
    uplink_bytes: int = 0
    downlink_bytes: int = 0
    nack_messages: int = 0
    nack_bytes: int = 0
    sync_messages: int = 0
    sync_bytes: int = 0
    dropped_messages: int = 0
    uplink_dropped: int = 0
    downlink_dropped: int = 0
    nack_dropped: int = 0
    sync_dropped: int = 0
    retried_messages: int = 0
    uplink_retried: int = 0
    downlink_retried: int = 0
    corrupted_messages: int = 0
    uplink_corrupted: int = 0
    downlink_corrupted: int = 0
    sync_corrupted: int = 0
    duplicated_messages: int = 0
    reordered_messages: int = 0
    transit_times: List[float] = field(default_factory=list)

    def record(self, message: Optional[Message], direction: str,
               absorbed: bool = False) -> None:
        """Record one message (``None`` means it was dropped).

        ``absorbed=True`` marks a loss covered by the reliability
        layer's retry chain: the sender will retransmit, so the loss
        lands in the ``retried`` counters instead of surfacing as a
        drop (only a chain that exhausts its retries ever reaches the
        drop ledger, as a single ``gave_up``).
        """
        # The common case first: a delivered activation or gradient.
        if message is not None:
            if direction == "up":
                self.uplink_messages += 1
                self.uplink_bytes += message.size_bytes
                self.transit_times.append(message.transit_time)
                return
            if direction == "down":
                self.downlink_messages += 1
                self.downlink_bytes += message.size_bytes
                self.transit_times.append(message.transit_time)
                return
        if direction not in {"up", "down", "nack", "sync"}:
            raise ValueError(f"unknown traffic direction {direction!r}")
        if message is None:
            if absorbed:
                if direction not in {"up", "down"}:
                    raise ValueError(
                        f"only payload directions can absorb losses, got {direction!r}"
                    )
                self.retried_messages += 1
                if direction == "up":
                    self.uplink_retried += 1
                else:
                    self.downlink_retried += 1
                return
            self.dropped_messages += 1
            if direction == "up":
                self.uplink_dropped += 1
            elif direction == "down":
                self.downlink_dropped += 1
            elif direction == "nack":
                # The NACK was lost on the downlink link, so the
                # per-link counters see it there; mirror that here.
                self.nack_dropped += 1
                self.downlink_dropped += 1
            else:
                self.sync_dropped += 1
            return
        # Control traffic stays out of the transit-time statistics; it
        # would skew the latency headline.
        if direction == "nack":
            self.nack_messages += 1
            self.nack_bytes += message.size_bytes
        else:
            self.sync_messages += 1
            self.sync_bytes += message.size_bytes

    # ------------------------------------------------------------------ #
    # Chaos-plane bookkeeping (repro.chaos.MessageChaos calls these; the
    # loss itself still flows through record(None, ...) so corruption is
    # visible both as a corruption and as a drop/absorbed-retry).
    def note_corrupted(self, direction: str) -> None:
        """Count one in-flight corruption on a payload direction."""
        self.corrupted_messages += 1
        if direction == "up":
            self.uplink_corrupted += 1
        elif direction == "down":
            self.downlink_corrupted += 1
        elif direction == "sync":
            self.sync_corrupted += 1
        else:
            raise ValueError(f"unknown corruption direction {direction!r}")

    def note_duplicated(self) -> None:
        """Count one chaos-duplicated uplink message."""
        self.duplicated_messages += 1

    def note_reordered(self) -> None:
        """Count one chaos-reordered (arrival-delayed) message."""
        self.reordered_messages += 1

    @property
    def total_bytes(self) -> int:
        """Total bytes moved in both directions."""
        return self.uplink_bytes + self.downlink_bytes

    @property
    def mean_transit_time(self) -> float:
        """Mean per-message delay in seconds (0 when nothing was sent)."""
        return float(np.mean(self.transit_times)) if self.transit_times else 0.0

    @property
    def max_transit_time(self) -> float:
        """Worst per-message delay in seconds (0 when nothing was sent)."""
        return float(np.max(self.transit_times)) if self.transit_times else 0.0

    def summary(self) -> Dict[str, float]:
        """Flat dictionary of the log's headline numbers."""
        return {
            "uplink_messages": self.uplink_messages,
            "downlink_messages": self.downlink_messages,
            "uplink_megabytes": self.uplink_bytes / 1e6,
            "downlink_megabytes": self.downlink_bytes / 1e6,
            "nack_messages": self.nack_messages,
            "sync_messages": self.sync_messages,
            "sync_megabytes": self.sync_bytes / 1e6,
            "dropped_messages": self.dropped_messages,
            "uplink_dropped": self.uplink_dropped,
            "downlink_dropped": self.downlink_dropped,
            "nack_dropped": self.nack_dropped,
            "sync_dropped": self.sync_dropped,
            "retried_messages": self.retried_messages,
            "uplink_retried": self.uplink_retried,
            "downlink_retried": self.downlink_retried,
            "corrupted_messages": self.corrupted_messages,
            "duplicated_messages": self.duplicated_messages,
            "reordered_messages": self.reordered_messages,
            "mean_transit_time_s": self.mean_transit_time,
            "max_transit_time_s": self.max_transit_time,
        }


class Transport:
    """Moves payloads between end-systems and the server over a topology.

    ``chaos`` (a :class:`repro.chaos.MessageChaos`) is applied to every
    message a link delivered — corruption turns a delivery back into a
    loss, reordering delays its arrival, duplication tags an uplink
    message with a second arrival time for the engine to schedule.
    ``None`` (the default) leaves every send exactly as the link stamped
    it.
    """

    def __init__(self, topology: GeoTopology, chaos: Optional[Any] = None) -> None:
        self.topology = topology
        self.chaos = chaos
        self.log = TrafficLog()

    def send_to_server(self, end_system: str, payload: Any, *, now: float,
                       kind: str = "activation", reliable: bool = False,
                       size: Optional[int] = None) -> Optional[Message]:
        """Ship a payload from an end-system to the server.

        ``now`` is the time the sender hands the payload over; the message
        is stamped with it.  Returns the stamped :class:`Message`, or
        ``None`` if the link dropped it.  ``reliable=True`` marks the send
        as covered by a retry chain: a loss is absorbed into the retried
        counters instead of the drop ledger.  ``size``: see
        :meth:`Link.send`.
        """
        hub, link, _ = self.topology.route(end_system)
        message = link.send(end_system, hub, payload, now, kind=kind, size=size)
        if message is not None and self.chaos is not None:
            message = self.chaos.apply(message, "up", self.log)
        self.log.record(message, "up", absorbed=reliable and message is None)
        return message

    def send_to_end_system(self, end_system: str, payload: Any, *, now: float,
                           kind: str = "gradient", reliable: bool = False,
                           size: Optional[int] = None) -> Optional[Message]:
        """Ship a payload from the server back to an end-system.

        Gradient-return traffic travels over the topology's *downlink*
        for that end-system, so its latency samples, drop draws and
        per-link counters never commingle with the uplink's.  Queue-drop
        NACKs (``kind="nack"``) ride the same downlink but are logged in
        their own direction so gradient counts stay meaningful; the NACK
        control channel is exempt from both chaos and retries (its PR 2
        lost-NACK fallback already makes it loss-safe).
        """
        hub, _, link = self.topology.route(end_system)
        message = link.send(hub, end_system, payload, now, kind=kind, size=size)
        if kind == "nack":
            self.log.record(message, "nack")
            return message
        if message is not None and self.chaos is not None:
            message = self.chaos.apply(message, "down", self.log)
        self.log.record(message, "down", absorbed=reliable and message is None)
        return message

    def send_between_servers(self, source: str, destination: str, payload: Any,
                             *, now: float, kind: str = "sync") -> Optional[Message]:
        """Ship a weight-synchronization payload between two server hubs."""
        link = self.topology.inter_server_link(source, destination)
        message = link.send(source, destination, payload, now, kind=kind)
        if message is not None and self.chaos is not None:
            message = self.chaos.apply(message, "sync", self.log)
        self.log.record(message, "sync")
        return message

    def reset_log(self) -> TrafficLog:
        """Replace the traffic log with a fresh one and return the old log."""
        old = self.log
        self.log = TrafficLog()
        return old
