"""One server replica in a sharded split-learning deployment.

A :class:`ServerShard` wraps a full :class:`~repro.core.server.CentralServer`
— its own server-segment copy, optimizer state, scheduling queue and
activation arena — and adds the bookkeeping a multi-server deployment
needs: which topology hub the shard sits on, which end-systems it owns,
and how much work it has absorbed since the last inter-server weight
synchronization (the weighting used by full averaging).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.messages import ActivationMessage, GradientMessage
from ..core.server import CentralServer

__all__ = ["ServerShard"]


class ServerShard:
    """A :class:`CentralServer` replica owning one shard of the clients.

    Parameters
    ----------
    shard_id:
        Index of this shard within the cluster (``0 <= shard_id < S``).
    server:
        The wrapped server instance (exclusively owned by this shard).
    node_name:
        Name of the shard's hub node in the simulated topology.
    """

    def __init__(self, shard_id: int, server: CentralServer, node_name: str) -> None:
        self.shard_id = int(shard_id)
        self.server = server
        self.node_name = node_name
        #: System ids of the end-systems assigned to this shard.
        self.client_ids: List[int] = []
        #: Samples trained on since the last weight sync (averaging weight).
        self.samples_since_sync = 0
        #: Server steps taken since the last weight sync (async merge cadence).
        self.steps_since_sync = 0
        #: Weight synchronizations this shard has participated in.
        self.syncs_applied = 0
        #: Health state (failure injection): a crashed shard accepts no
        #: traffic and is skipped by every sync rendezvous/broadcast.
        self.healthy = True
        self.crashes = 0
        self.recoveries = 0
        #: Simulated time of the crash currently in effect (``None`` while up).
        self.down_since: Optional[float] = None
        #: Total simulated seconds spent down across completed outages.
        self.downtime_s = 0.0
        #: Recovery-point bookkeeping (the RPO metric, ISSUE 6): the
        #: simulated time and processed-sample count of the freshest
        #: durable state this shard could be restored from — its initial
        #: weights at construction, refreshed by every sync install and
        #: every checkpoint capture.
        self.recovery_point_time_s = 0.0
        self.recovery_point_samples = 0
        self.recovery_point_kind = "initial"
        #: Accumulated lost work across this shard's recoveries: the gap
        #: between each crash and the recovery point it was restored from.
        self.rpo_lost_s = 0.0
        self.rpo_lost_samples = 0
        self.recoveries_from_checkpoint = 0
        self.recoveries_from_sync = 0
        self.recoveries_from_initial = 0
        #: Checkpoints captured from this shard (engine cadence).
        self.checkpoints_taken = 0

    # ------------------------------------------------------------------ #
    # Health (failure injection)
    # ------------------------------------------------------------------ #
    def mark_down(self, now: float) -> None:
        """Record a crash at simulated time ``now``."""
        if not self.healthy:
            raise RuntimeError(f"shard {self.shard_id} is already down")
        self.healthy = False
        self.crashes += 1
        self.down_since = float(now)

    def mark_up(self, now: float) -> None:
        """Record a recovery at simulated time ``now``."""
        if self.healthy:
            raise RuntimeError(f"shard {self.shard_id} is already up")
        self.healthy = True
        self.recoveries += 1
        if self.down_since is not None:
            self.downtime_s += max(0.0, float(now) - self.down_since)
        self.down_since = None

    # ------------------------------------------------------------------ #
    # Recovery-point accounting (RPO metric)
    # ------------------------------------------------------------------ #
    def note_recovery_point(self, now: float, kind: str) -> None:
        """Record that a durable restore point for this shard exists at ``now``.

        Called when a checkpoint of this shard is captured and when a
        sync snapshot is installed — from that moment a crash loses only
        the work done *after* ``now``.
        """
        self.recovery_point_time_s = float(now)
        self.recovery_point_samples = self.samples_processed
        self.recovery_point_kind = kind

    def record_recovery(self, crash_time: float, samples_at_crash: int,
                        point_time: float, point_samples: int, kind: str) -> None:
        """Account one recovery's lost work against the chosen restore point.

        ``kind`` names the restore source (``"checkpoint"``, ``"sync"``
        or ``"initial"``); the seconds/samples gaps are clamped at zero
        because a sync can postdate the crash (the snapshot is *newer*
        than anything the dead replica held — nothing of its own work is
        recovered, but the gap measured against its crash state would go
        negative).
        """
        self.rpo_lost_s += max(0.0, float(crash_time) - float(point_time))
        self.rpo_lost_samples += max(0, int(samples_at_crash) - int(point_samples))
        counter = f"recoveries_from_{kind}"
        setattr(self, counter, getattr(self, counter) + 1)

    def rpo_state(self) -> Dict[str, object]:
        """Recovery-point bookkeeping as a plain dict (checkpointed)."""
        return {
            "recovery_point_time_s": self.recovery_point_time_s,
            "recovery_point_samples": self.recovery_point_samples,
            "recovery_point_kind": self.recovery_point_kind,
            "rpo_lost_s": self.rpo_lost_s,
            "rpo_lost_samples": self.rpo_lost_samples,
            "recoveries_from_checkpoint": self.recoveries_from_checkpoint,
            "recoveries_from_sync": self.recoveries_from_sync,
            "recoveries_from_initial": self.recoveries_from_initial,
            "checkpoints_taken": self.checkpoints_taken,
        }

    def load_rpo_state(self, state: Dict[str, object]) -> None:
        """Restore :meth:`rpo_state` output (whole-run restore path)."""
        self.recovery_point_time_s = float(state["recovery_point_time_s"])
        self.recovery_point_samples = int(state["recovery_point_samples"])
        self.recovery_point_kind = str(state["recovery_point_kind"])
        self.rpo_lost_s = float(state["rpo_lost_s"])
        self.rpo_lost_samples = int(state["rpo_lost_samples"])
        self.recoveries_from_checkpoint = int(state["recoveries_from_checkpoint"])
        self.recoveries_from_sync = int(state["recoveries_from_sync"])
        self.recoveries_from_initial = int(state["recoveries_from_initial"])
        self.checkpoints_taken = int(state["checkpoints_taken"])

    # ------------------------------------------------------------------ #
    # Queue interface (delegates to the wrapped server)
    # ------------------------------------------------------------------ #
    def receive(self, message: ActivationMessage) -> bool:
        """Admit an arriving activation message into this shard's queue."""
        return self.server.receive(message)

    def admit(self, message: ActivationMessage) -> bool:
        """Remember the sequence, then :meth:`receive` (``CentralServer.admit``).

        Reliable delivery can land several copies of one logical message
        (retransmissions, chaos duplication); the engine deduplicates a
        copy whose sequence :meth:`has_seen` before it gets here.
        """
        return self.server.admit(message)

    def has_seen(self, sequence: int) -> bool:
        """Whether this shard's server already ruled on ``sequence``."""
        return self.server.has_seen(sequence)

    def has_pending(self) -> bool:
        return self.server.has_pending()

    @property
    def queue(self):
        return self.server.queue

    # ------------------------------------------------------------------ #
    # Training steps (track per-sync work for weighted averaging)
    # ------------------------------------------------------------------ #
    def process_next(self, now: float) -> Tuple[ActivationMessage, GradientMessage]:
        """Pop and train on one message (per-message processing mode)."""
        activation_message, gradient_message = self.server.process_next(now=now)
        self.samples_since_sync += activation_message.batch_size
        self.steps_since_sync += 1
        return activation_message, gradient_message

    def process_pending_batch(self, now: float
                              ) -> List[Tuple[ActivationMessage, GradientMessage]]:
        """Drain this shard's queue into one concatenated training step."""
        results = self.server.process_pending_batch(now=now)
        self.samples_since_sync += sum(
            activation_message.batch_size for activation_message, _ in results
        )
        if results:
            self.steps_since_sync += 1
        return results

    def flush_queue(self) -> List[ActivationMessage]:
        """Discard pending messages and release their arena rows (shutdown)."""
        return self.server.flush_queue()

    # ------------------------------------------------------------------ #
    # Weight exchange
    # ------------------------------------------------------------------ #
    def weights_snapshot(self) -> Dict[str, np.ndarray]:
        """Copy of the server segment's parameters (safe to ship):
        ``state_dict`` already returns copies."""
        return self.server.state_dict()

    def install_weights(self, state: Dict[str, np.ndarray]) -> None:
        """Replace the server segment's parameters (post-sync)."""
        self.server.load_state_dict(state)
        self.syncs_applied += 1
        self.samples_since_sync = 0
        self.steps_since_sync = 0

    def merge_weights(self, state: Dict[str, np.ndarray], weight: float) -> None:
        """Blend remote parameters in: ``w_local = (1-a)*w_local + a*w_remote``.

        Used by the asynchronous staleness-weighted sync mode; unlike
        :meth:`install_weights` the local optimizer state and per-sync
        counters keep running (the merge is a nudge, not a barrier).
        """
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"merge weight must be in [0, 1], got {weight}")
        local = self.server.state_dict()
        merged = {
            name: (1.0 - weight) * np.asarray(local[name]) + weight * np.asarray(value)
            for name, value in state.items()
        }
        self.server.load_state_dict(merged)
        self.syncs_applied += 1

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    @property
    def batches_processed(self) -> int:
        return self.server.batches_processed

    @property
    def samples_processed(self) -> int:
        return self.server.samples_processed

    def stats(self) -> Dict[str, object]:
        """Flat per-shard statistics for history/metrics rollups."""
        queue = self.server.queue
        return {
            "shard_id": self.shard_id,
            "node": self.node_name,
            "clients": len(self.client_ids),
            "batches_processed": self.batches_processed,
            "samples_processed": self.samples_processed,
            "queue_dropped": queue.dropped,
            "mean_waiting_time_s": queue.mean_waiting_time,
            "fairness_index": queue.fairness_index(),
            "syncs_applied": self.syncs_applied,
            "healthy": self.healthy,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "downtime_s": self.downtime_s,
            "rpo_lost_s": self.rpo_lost_s,
            "rpo_lost_samples": self.rpo_lost_samples,
            "recoveries_from_checkpoint": self.recoveries_from_checkpoint,
            "recoveries_from_sync": self.recoveries_from_sync,
            "recoveries_from_initial": self.recoveries_from_initial,
            "checkpoints_taken": self.checkpoints_taken,
        }

    def __repr__(self) -> str:
        return (
            f"ServerShard(id={self.shard_id}, node={self.node_name!r}, "
            f"clients={len(self.client_ids)}, batches={self.batches_processed})"
        )
