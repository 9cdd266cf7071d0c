"""Checkpoint snapshot formats: per-shard, per-client and whole-run.

A :class:`ShardCheckpoint` is the unit of crash recovery: everything one
:class:`~repro.cluster.shard.ServerShard` needs to resume exactly where
it was — server-segment weights, the **full** optimizer state (moment
buffers included, via the extended ``Optimizer.state_dict``), any live
module RNG streams, the per-sync counters that weight the next
synchronization, and a drop-accounting ledger (the shard-side queue
counters) so a restore rejoins the cluster-wide invariant
``notified == queue + transport - nack - sync + failover``.

A :class:`RunCheckpoint` extends that to the whole deployment: every
shard, every client, the coordinator's assignment and sync snapshot, the
engine clock/statistics, the transport log, every link's RNG stream
position and counters, and the fault plan's progress.  At an epoch
boundary the engine is quiescent (no in-flight messages, queues drained),
so this is a *replay-exact* restore point: a fresh trainer rebuilt from a
``RunCheckpoint`` continues the run bit-for-bit.

Both formats convert to a flat ``(arrays, meta)`` payload — arrays for
the npz path, a JSON-able ``meta`` for everything scalar — which is what
the :mod:`repro.state.store` backends persist.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..nn.serialization import (
    flatten_optimizer_state,
    pack_rng_state,
    restore_rng_state,
    unflatten_optimizer_state,
)

__all__ = [
    "ShardCheckpoint",
    "ClientCheckpoint",
    "RunCheckpoint",
    "queue_counter_state",
    "restore_queue_counters",
    "module_rng_states",
    "restore_module_rng_states",
]


# --------------------------------------------------------------------------- #
# Small capture/restore helpers shared by the snapshot formats
# --------------------------------------------------------------------------- #
def queue_counter_state(queue: Any) -> Dict[str, Any]:
    """Capture a :class:`ParameterQueue`'s statistics and policy feedback.

    The queue itself is empty at every capture point the engine uses
    (checkpoints fire between steps; run checkpoints at epoch
    boundaries), so only the counters need to travel: the drop ledger,
    waiting times, per-system processed samples and — for the stateful
    scheduling policies — the feedback the next selection depends on.
    """
    policy = queue.policy
    policy_state: Dict[str, Any] = {}
    if hasattr(policy, "_last_served"):  # RoundRobinPolicy
        policy_state["last_served"] = policy._last_served
    if hasattr(policy, "_processed_samples"):  # WeightedFairPolicy
        policy_state["processed_samples"] = dict(policy._processed_samples)
    return {
        "dropped": queue.dropped,
        "waiting_times": [float(value) for value in queue._waiting_times],
        "processed_per_system": {
            int(system): int(count)
            for system, count in queue.processed_per_system().items()
        },
        "policy": policy_state,
    }


def restore_queue_counters(queue: Any, state: Dict[str, Any]) -> None:
    """Reinstall counters captured by :func:`queue_counter_state`."""
    queue._dropped = int(state["dropped"])
    queue._waiting_times = [float(value) for value in state["waiting_times"]]
    queue._processed_per_system.clear()
    for system, count in state["processed_per_system"].items():
        queue._processed_per_system[int(system)] = int(count)
    policy_state = state.get("policy", {})
    policy = queue.policy
    if "last_served" in policy_state and hasattr(policy, "_last_served"):
        policy._last_served = policy_state["last_served"]
    if "processed_samples" in policy_state and hasattr(policy, "_processed_samples"):
        policy._processed_samples.clear()
        for system, count in policy_state["processed_samples"].items():
            policy._processed_samples[int(system)] = int(count)


def module_rng_states(module: Any) -> Dict[str, np.ndarray]:
    """Stream positions of any live generators inside a module tree.

    Walks the module graph in registration order and packs every
    ``_rng`` generator found, keyed by walk index — the rebuilt model
    walks identically, so restore is positional.  No layer of the
    substrate draws at forward time, so for its models the map is empty;
    it stays because the checkpoints' ``rng::`` payloads are part of the
    frozen recovery format.
    """
    states: Dict[str, np.ndarray] = {}
    for index, submodule in enumerate(module.modules()):
        rng = getattr(submodule, "_rng", None)
        if isinstance(rng, np.random.Generator):
            states[str(index)] = pack_rng_state(rng)
    return states


def restore_module_rng_states(module: Any, states: Dict[str, np.ndarray]) -> None:
    """Rewind a module tree's generators captured by :func:`module_rng_states`."""
    for index, submodule in enumerate(module.modules()):
        packed = states.get(str(index))
        if packed is None:
            continue
        rng = getattr(submodule, "_rng", None)
        if isinstance(rng, np.random.Generator):
            restore_rng_state(rng, np.asarray(packed, dtype=np.uint8))


def _copy_weights(weights: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    return {name: np.array(value, copy=True) for name, value in weights.items()}


# --------------------------------------------------------------------------- #
# Per-shard snapshot
# --------------------------------------------------------------------------- #
@dataclass
class ShardCheckpoint:
    """Crash-consistent snapshot of one server shard."""

    shard_id: int
    sim_time: float
    round_index: int
    generation: int
    weights: Dict[str, np.ndarray]
    optimizer_state: Dict[str, Any]
    samples_since_sync: int
    steps_since_sync: int
    syncs_applied: int
    batches_processed: int
    samples_processed: int
    #: Drop-accounting ledger: the shard-side queue counters
    #: (:func:`queue_counter_state`) whose restore rejoins the
    #: cluster-wide drop invariant.
    ledger: Dict[str, Any] = field(default_factory=dict)
    health: Dict[str, Any] = field(default_factory=dict)
    rpo: Dict[str, Any] = field(default_factory=dict)
    rng: Dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def capture(cls, shard: Any, *, sim_time: float, round_index: int = -1,
                generation: int = 0) -> "ShardCheckpoint":
        """Snapshot ``shard`` at simulated time ``sim_time`` (read-only)."""
        return cls(
            shard_id=shard.shard_id,
            sim_time=float(sim_time),
            round_index=int(round_index),
            generation=int(generation),
            weights=shard.weights_snapshot(),
            optimizer_state=shard.server.optimizer.state_dict(),
            samples_since_sync=shard.samples_since_sync,
            steps_since_sync=shard.steps_since_sync,
            syncs_applied=shard.syncs_applied,
            batches_processed=shard.batches_processed,
            samples_processed=shard.samples_processed,
            ledger=queue_counter_state(shard.queue),
            health={
                "healthy": shard.healthy,
                "crashes": shard.crashes,
                "recoveries": shard.recoveries,
                "down_since": shard.down_since,
                "downtime_s": shard.downtime_s,
            },
            rpo=shard.rpo_state(),
            rng=module_rng_states(shard.server.model),
        )

    def restore(self, shard: Any, *, include_counters: bool = False) -> None:
        """Reinstall this snapshot onto ``shard``.

        The default (failover recovery) restores the *training* state
        only — weights, optimizer moments, module RNG streams and the
        per-sync counters — and leaves the monotone monitoring counters
        (processed totals, drop ledger, crash history) at their live
        values, because the work and drops that happened before the
        crash really did happen.  ``include_counters=True`` (whole-run
        restore into a freshly built trainer) reinstates those too.
        """
        shard.server.load_state_dict(self.weights)
        shard.server.optimizer.load_state_dict(
            copy.deepcopy(self.optimizer_state)
        )
        restore_module_rng_states(shard.server.model, self.rng)
        shard.samples_since_sync = int(self.samples_since_sync)
        shard.steps_since_sync = int(self.steps_since_sync)
        if not include_counters:
            return
        shard.syncs_applied = int(self.syncs_applied)
        shard.server.batches_processed = int(self.batches_processed)
        shard.server.samples_processed = int(self.samples_processed)
        restore_queue_counters(shard.queue, self.ledger)
        shard.healthy = bool(self.health["healthy"])
        shard.crashes = int(self.health["crashes"])
        shard.recoveries = int(self.health["recoveries"])
        down_since = self.health["down_since"]
        shard.down_since = None if down_since is None else float(down_since)
        shard.downtime_s = float(self.health["downtime_s"])
        shard.load_rpo_state(self.rpo)

    # ------------------------------------------------------------------ #
    # Flat payload for the persistent stores
    # ------------------------------------------------------------------ #
    def to_payload(self) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        """Flatten into ``(arrays, meta)`` for a store backend."""
        arrays: Dict[str, np.ndarray] = {}
        for name, value in self.weights.items():
            arrays[f"weights::{name}"] = np.asarray(value)
        for key, value in flatten_optimizer_state(self.optimizer_state).items():
            arrays[f"optim::{key}"] = value
        for key, packed in self.rng.items():
            arrays[f"rng::{key}"] = np.asarray(packed, dtype=np.uint8)
        meta = {
            "shard_id": self.shard_id,
            "sim_time": self.sim_time,
            "round_index": self.round_index,
            "generation": self.generation,
            "samples_since_sync": self.samples_since_sync,
            "steps_since_sync": self.steps_since_sync,
            "syncs_applied": self.syncs_applied,
            "batches_processed": self.batches_processed,
            "samples_processed": self.samples_processed,
            "ledger": self.ledger,
            "health": self.health,
            "rpo": self.rpo,
            "weight_names": list(self.weights.keys()),
        }
        return arrays, meta

    @classmethod
    def from_payload(cls, arrays: Dict[str, np.ndarray],
                     meta: Dict[str, Any]) -> "ShardCheckpoint":
        """Rebuild a snapshot from a store payload."""
        weights = {name: np.asarray(arrays[f"weights::{name}"])
                   for name in meta["weight_names"]}
        optim_flat = {key[len("optim::"):]: value for key, value in arrays.items()
                      if key.startswith("optim::")}
        rng = {key[len("rng::"):]: np.asarray(value, dtype=np.uint8)
               for key, value in arrays.items() if key.startswith("rng::")}
        ledger = dict(meta["ledger"])
        # JSON round-trips stringify integer dict keys; normalize back.
        ledger["processed_per_system"] = {
            int(system): int(count)
            for system, count in ledger.get("processed_per_system", {}).items()
        }
        policy = dict(ledger.get("policy", {}))
        if "processed_samples" in policy:
            policy["processed_samples"] = {
                int(system): int(count)
                for system, count in policy["processed_samples"].items()
            }
        ledger["policy"] = policy
        return cls(
            shard_id=int(meta["shard_id"]),
            sim_time=float(meta["sim_time"]),
            round_index=int(meta["round_index"]),
            generation=int(meta["generation"]),
            weights=weights,
            optimizer_state=unflatten_optimizer_state(optim_flat),
            samples_since_sync=int(meta["samples_since_sync"]),
            steps_since_sync=int(meta["steps_since_sync"]),
            syncs_applied=int(meta["syncs_applied"]),
            batches_processed=int(meta["batches_processed"]),
            samples_processed=int(meta["samples_processed"]),
            ledger=ledger,
            health=dict(meta["health"]),
            rpo=dict(meta["rpo"]),
            rng=rng,
        )


# --------------------------------------------------------------------------- #
# Per-client snapshot
# --------------------------------------------------------------------------- #
@dataclass
class ClientCheckpoint:
    """Snapshot of one end-system's segment, optimizer and counters."""

    system_id: int
    weights: Dict[str, np.ndarray]
    optimizer_state: Optional[Dict[str, Any]]
    next_batch_id: int
    samples_seen: int
    updates_applied: int
    drops_notified: int
    rng: Dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def capture(cls, end_system: Any) -> "ClientCheckpoint":
        optimizer = end_system.optimizer
        return cls(
            system_id=end_system.system_id,
            weights=_copy_weights(end_system.state_dict()),
            optimizer_state=None if optimizer is None else optimizer.state_dict(),
            next_batch_id=end_system._next_batch_id,
            samples_seen=end_system.samples_seen,
            updates_applied=end_system.updates_applied,
            drops_notified=end_system.drops_notified,
            rng=module_rng_states(end_system.model),
        )

    def restore(self, end_system: Any) -> None:
        end_system.load_state_dict(self.weights)
        if self.optimizer_state is not None and end_system.optimizer is not None:
            end_system.optimizer.load_state_dict(copy.deepcopy(self.optimizer_state))
        restore_module_rng_states(end_system.model, self.rng)
        end_system._next_batch_id = int(self.next_batch_id)
        end_system.samples_seen = int(self.samples_seen)
        end_system.updates_applied = int(self.updates_applied)
        end_system.drops_notified = int(self.drops_notified)

    def to_payload(self) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        arrays: Dict[str, np.ndarray] = {}
        for name, value in self.weights.items():
            arrays[f"weights::{name}"] = np.asarray(value)
        if self.optimizer_state is not None:
            for key, value in flatten_optimizer_state(self.optimizer_state).items():
                arrays[f"optim::{key}"] = value
        for key, packed in self.rng.items():
            arrays[f"rng::{key}"] = np.asarray(packed, dtype=np.uint8)
        meta = {
            "system_id": self.system_id,
            "next_batch_id": self.next_batch_id,
            "samples_seen": self.samples_seen,
            "updates_applied": self.updates_applied,
            "drops_notified": self.drops_notified,
            "has_optimizer": self.optimizer_state is not None,
            "weight_names": list(self.weights.keys()),
        }
        return arrays, meta

    @classmethod
    def from_payload(cls, arrays: Dict[str, np.ndarray],
                     meta: Dict[str, Any]) -> "ClientCheckpoint":
        weights = {name: np.asarray(arrays[f"weights::{name}"])
                   for name in meta["weight_names"]}
        optimizer_state = None
        if meta["has_optimizer"]:
            optim_flat = {key[len("optim::"):]: value for key, value in arrays.items()
                          if key.startswith("optim::")}
            optimizer_state = unflatten_optimizer_state(optim_flat)
        rng = {key[len("rng::"):]: np.asarray(value, dtype=np.uint8)
               for key, value in arrays.items() if key.startswith("rng::")}
        return cls(
            system_id=int(meta["system_id"]),
            weights=weights,
            optimizer_state=optimizer_state,
            next_batch_id=int(meta["next_batch_id"]),
            samples_seen=int(meta["samples_seen"]),
            updates_applied=int(meta["updates_applied"]),
            drops_notified=int(meta["drops_notified"]),
            rng=rng,
        )


# --------------------------------------------------------------------------- #
# Whole-run snapshot (coordinator restart)
# --------------------------------------------------------------------------- #
@dataclass
class RunCheckpoint:
    """Replay-exact epoch-boundary snapshot of the entire deployment.

    ``epoch`` counts *completed* epochs: a restore resumes training at
    that epoch index.  ``link_states`` maps a link key (``"up::<node>"``,
    ``"down::<node>"`` or ``"sync::<a>::<b>"``) to that link's RNG
    stream position and traffic counters; ``rng_streams`` carries any
    other named generator positions (the retry-jitter stream).  The
    trainer owns capture/restore — this class is the container plus the
    flat payload conversion the stores persist.
    """

    epoch: int
    engine_clock: float
    config: Dict[str, Any]
    engine_stats: Dict[str, Any]
    shards: List[ShardCheckpoint]
    clients: List[ClientCheckpoint]
    assignment: Dict[int, int]
    original_assignment: Dict[int, int]
    last_sync_snapshot: Optional[Dict[str, np.ndarray]]
    last_sync_time_s: Optional[float]
    syncs_completed: int
    node_health: Dict[str, bool]
    traffic: Dict[str, Any]
    link_states: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    rng_streams: Dict[str, np.ndarray] = field(default_factory=dict)
    #: Fault-plan timeline position — the two halves of
    #: ``FaultPlan.state_dict``: shard crash lanes, client/network lane —
    #: and the per-message chaos stream positions
    #: (``MessageChaos.state_dict``); ``None`` when that mechanism is off.
    failure_state: Optional[Dict[str, Any]] = None
    chaos_state: Optional[Dict[str, Any]] = None
    message_chaos_state: Optional[Dict[str, Any]] = None
    #: Registry-owned obs instrument state (the queue-wait / retry
    #: histograms — ``MetricsRegistry.instruments_state``): without it a
    #: resumed run's metric rows would restart those series from zero
    #: instead of continuing the crashed run's.  ``None`` with obs off.
    obs_instruments: Optional[List[Dict[str, Any]]] = None

    def to_payload(self) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        arrays: Dict[str, np.ndarray] = {}
        shard_metas = []
        for index, shard in enumerate(self.shards):
            shard_arrays, shard_meta = shard.to_payload()
            for key, value in shard_arrays.items():
                arrays[f"shard{index}::{key}"] = value
            shard_metas.append(shard_meta)
        client_metas = []
        for index, client in enumerate(self.clients):
            client_arrays, client_meta = client.to_payload()
            for key, value in client_arrays.items():
                arrays[f"client{index}::{key}"] = value
            client_metas.append(client_meta)
        if self.last_sync_snapshot is not None:
            for name, value in self.last_sync_snapshot.items():
                arrays[f"sync_snapshot::{name}"] = np.asarray(value)
        arrays["transit_times"] = np.asarray(
            self.traffic.get("transit_times", []), dtype=np.float64
        )
        link_meta: Dict[str, Dict[str, Any]] = {}
        for key, state in self.link_states.items():
            arrays[f"link_rng::{key}"] = np.asarray(state["rng"], dtype=np.uint8)
            link_meta[key] = {
                name: value for name, value in state.items() if name != "rng"
            }
        for key, packed in self.rng_streams.items():
            arrays[f"stream::{key}"] = np.asarray(packed, dtype=np.uint8)
        traffic_meta = {key: value for key, value in self.traffic.items()
                        if key != "transit_times"}
        meta = {
            "epoch": self.epoch,
            "engine_clock": self.engine_clock,
            "config": self.config,
            "engine_stats": self.engine_stats,
            "shards": shard_metas,
            "clients": client_metas,
            "assignment": {str(k): int(v) for k, v in self.assignment.items()},
            "original_assignment": {
                str(k): int(v) for k, v in self.original_assignment.items()
            },
            "has_sync_snapshot": self.last_sync_snapshot is not None,
            "sync_snapshot_names": (
                list(self.last_sync_snapshot.keys())
                if self.last_sync_snapshot is not None else []
            ),
            "last_sync_time_s": self.last_sync_time_s,
            "syncs_completed": self.syncs_completed,
            "node_health": self.node_health,
            "traffic": traffic_meta,
            "links": link_meta,
            "failure_state": self.failure_state,
            "chaos_state": self.chaos_state,
            "message_chaos_state": self.message_chaos_state,
            "obs_instruments": self.obs_instruments,
        }
        return arrays, meta

    @classmethod
    def from_payload(cls, arrays: Dict[str, np.ndarray],
                     meta: Dict[str, Any]) -> "RunCheckpoint":
        # One pass: ``"<component>::<name>"`` → groups[component][name].
        # ``transit_times`` has no prefix and groups under its own name.
        groups: Dict[str, Dict[str, np.ndarray]] = {}
        for key, value in arrays.items():
            component, _, name = key.partition("::")
            groups.setdefault(component, {})[name] = value

        shards = [
            ShardCheckpoint.from_payload(groups.get(f"shard{index}", {}), shard_meta)
            for index, shard_meta in enumerate(meta["shards"])
        ]
        clients = [
            ClientCheckpoint.from_payload(groups.get(f"client{index}", {}), client_meta)
            for index, client_meta in enumerate(meta["clients"])
        ]
        last_sync_snapshot = None
        if meta["has_sync_snapshot"]:
            snapshot = groups.get("sync_snapshot", {})
            last_sync_snapshot = {
                name: np.asarray(snapshot[name]) for name in meta["sync_snapshot_names"]
            }
        traffic = dict(meta["traffic"])
        transit_times = groups.get("transit_times", {}).get("", np.empty(0, dtype=np.float64))
        traffic["transit_times"] = [float(value) for value in np.asarray(transit_times)]
        link_rngs = groups.get("link_rng", {})
        link_states: Dict[str, Dict[str, Any]] = {}
        for key, counters in meta["links"].items():
            state = dict(counters)
            state["rng"] = np.asarray(link_rngs[key], dtype=np.uint8)
            link_states[key] = state
        rng_streams = {key: np.asarray(value, dtype=np.uint8)
                       for key, value in groups.get("stream", {}).items()}
        return cls(
            epoch=int(meta["epoch"]),
            engine_clock=float(meta["engine_clock"]),
            config=dict(meta["config"]),
            engine_stats=dict(meta["engine_stats"]),
            shards=shards,
            clients=clients,
            assignment={int(k): int(v) for k, v in meta["assignment"].items()},
            original_assignment={
                int(k): int(v) for k, v in meta["original_assignment"].items()
            },
            last_sync_snapshot=last_sync_snapshot,
            last_sync_time_s=meta["last_sync_time_s"],
            syncs_completed=int(meta["syncs_completed"]),
            node_health=dict(meta["node_health"]),
            traffic=traffic,
            link_states=link_states,
            rng_streams=rng_streams,
            failure_state=meta["failure_state"],
            # ``.get``: run checkpoints written before the chaos plane
            # existed simply restore with chaos off.
            chaos_state=meta.get("chaos_state"),
            message_chaos_state=meta.get("message_chaos_state"),
            # ``.get``: pre-obs-checkpoint stores resume with fresh streams.
            obs_instruments=meta.get("obs_instruments"),
        )
