"""Checkpoint records: per-shard, per-client and whole-run.

A checkpoint record *is* the payload a :mod:`repro.state.store` backend
persists: a flat ``arrays`` dict (the npz path) and a JSON-able ``meta``
dict (everything scalar).  ``capture`` writes the two dicts straight from
the live objects and ``restore`` reads them straight back, so each field
is named exactly twice.

A :class:`ShardCheckpoint` is the unit of crash recovery: everything one
:class:`~repro.cluster.shard.ServerShard` needs to resume exactly where
it was — server-segment weights, the **full** optimizer state (moment
buffers included, via the extended ``Optimizer.state_dict``), any live
module RNG streams, the per-sync counters that weight the next
synchronization, and a drop-accounting ledger (the shard-side queue
counters) so a restore rejoins the cluster-wide invariant
``notified == queue + transport - nack - sync + failover``.  A
:class:`ClientCheckpoint` is the same for one end-system's segment.

A :class:`RunCheckpoint` extends that to the whole deployment (every
shard and client record nested under ``shard<i>::`` / ``client<i>::``,
the coordinator's assignment and sync snapshot, the engine clock and
statistics, the transport log, every link's RNG stream and counters, the
fault plan's progress).  The trainer writes and reads it
(``SpatioTemporalTrainer._capture_run_checkpoint`` /
``restore_run_checkpoint``).  At an epoch boundary the engine is
quiescent, so it is a *replay-exact* restore point.

``meta`` read back from the file store has passed through JSON, so its
dict keys are strings; readers convert keys and values with ``int()`` /
``float()`` and accept both forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

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
# Capture/restore helpers shared by the records
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


def group_payload_keys(arrays: Dict[str, np.ndarray]
                       ) -> Dict[str, Dict[str, np.ndarray]]:
    """One pass over the keys: ``"<component>::<name>"`` becomes
    ``groups[component][name]``; a key with no ``::`` groups under its
    own name with the empty name."""
    groups: Dict[str, Dict[str, np.ndarray]] = {}
    for key, value in arrays.items():
        component, _, name = key.partition("::")
        groups.setdefault(component, {})[name] = value
    return groups


def segment_arrays(weights: Dict[str, np.ndarray], optimizer: Any,
                   model: Any) -> Dict[str, np.ndarray]:
    """A model segment's ``weights::`` / ``optim::`` / ``rng::`` arrays
    (no ``optim::`` keys for a segment without an optimizer)."""
    arrays = {f"weights::{name}": value for name, value in weights.items()}
    if optimizer is not None:
        for key, value in flatten_optimizer_state(optimizer.state_dict()).items():
            arrays[f"optim::{key}"] = value
    for key, packed in module_rng_states(model).items():
        arrays[f"rng::{key}"] = packed
    return arrays


def restore_segment(arrays: Dict[str, np.ndarray], weight_names: List[str],
                    model: Any, optimizer: Any) -> None:
    """Reinstall :func:`segment_arrays` output onto ``model``/``optimizer``."""
    groups = group_payload_keys(arrays)
    weights = groups.get("weights", {})
    model.load_state_dict({name: weights[name] for name in weight_names})
    if optimizer is not None:
        # ``load_state_dict`` copies into fresh buffers: no aliasing.
        optimizer.load_state_dict(unflatten_optimizer_state(groups["optim"]))
    restore_module_rng_states(model, groups.get("rng", {}))


@dataclass
class _Record:
    """The ``(arrays, meta)`` payload a store persists."""

    arrays: Dict[str, np.ndarray]
    meta: Dict[str, Any]


# --------------------------------------------------------------------------- #
# Per-shard record
# --------------------------------------------------------------------------- #
class ShardCheckpoint(_Record):
    """Crash-consistent snapshot of one server shard."""

    @classmethod
    def capture(cls, shard: Any, *, sim_time: float, round_index: int = -1,
                generation: int = 0) -> "ShardCheckpoint":
        """Snapshot ``shard`` at simulated time ``sim_time`` (read-only)."""
        server = shard.server
        weights = shard.weights_snapshot()
        return cls(segment_arrays(weights, server.optimizer, server.model), {
            "shard_id": shard.shard_id,
            "sim_time": float(sim_time),
            "round_index": int(round_index),
            "generation": int(generation),
            "samples_since_sync": shard.samples_since_sync,
            "steps_since_sync": shard.steps_since_sync,
            "syncs_applied": shard.syncs_applied,
            "batches_processed": shard.batches_processed,
            "samples_processed": shard.samples_processed,
            # Drop-accounting ledger: the shard-side queue counters whose
            # restore rejoins the cluster-wide drop invariant.
            "ledger": queue_counter_state(shard.queue),
            "health": {
                "healthy": shard.healthy,
                "crashes": shard.crashes,
                "recoveries": shard.recoveries,
                "down_since": shard.down_since,
                "downtime_s": shard.downtime_s,
            },
            "rpo": shard.rpo_state(),
            "weight_names": list(weights),
        })

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
        meta = self.meta
        server = shard.server
        restore_segment(self.arrays, meta["weight_names"], server.model,
                        server.optimizer)
        shard.samples_since_sync = int(meta["samples_since_sync"])
        shard.steps_since_sync = int(meta["steps_since_sync"])
        if not include_counters:
            return
        shard.syncs_applied = int(meta["syncs_applied"])
        server.batches_processed = int(meta["batches_processed"])
        server.samples_processed = int(meta["samples_processed"])
        restore_queue_counters(shard.queue, meta["ledger"])
        health = meta["health"]
        shard.healthy = bool(health["healthy"])
        shard.crashes = int(health["crashes"])
        shard.recoveries = int(health["recoveries"])
        down_since = health["down_since"]
        shard.down_since = None if down_since is None else float(down_since)
        shard.downtime_s = float(health["downtime_s"])
        shard.load_rpo_state(meta["rpo"])

    @property
    def shard_id(self) -> int:
        return int(self.meta["shard_id"])

    @property
    def sim_time(self) -> float:
        return float(self.meta["sim_time"])

    @property
    def round_index(self) -> int:
        return int(self.meta["round_index"])

    @property
    def generation(self) -> int:
        return int(self.meta["generation"])

    @property
    def samples_processed(self) -> int:
        return int(self.meta["samples_processed"])


# --------------------------------------------------------------------------- #
# Per-client record
# --------------------------------------------------------------------------- #
class ClientCheckpoint(_Record):
    """Snapshot of one end-system's segment, optimizer and counters."""

    @classmethod
    def capture(cls, end_system: Any) -> "ClientCheckpoint":
        optimizer = end_system.optimizer
        weights = end_system.state_dict()
        return cls(segment_arrays(weights, optimizer, end_system.model), {
            "system_id": end_system.system_id,
            "next_batch_id": end_system._next_batch_id,
            "samples_seen": end_system.samples_seen,
            "updates_applied": end_system.updates_applied,
            "drops_notified": end_system.drops_notified,
            "has_optimizer": optimizer is not None,
            "weight_names": list(weights),
        })

    def restore(self, end_system: Any) -> None:
        meta = self.meta
        restore_segment(self.arrays, meta["weight_names"], end_system.model,
                        end_system.optimizer if meta["has_optimizer"] else None)
        end_system._next_batch_id = int(meta["next_batch_id"])
        end_system.samples_seen = int(meta["samples_seen"])
        end_system.updates_applied = int(meta["updates_applied"])
        end_system.drops_notified = int(meta["drops_notified"])


# --------------------------------------------------------------------------- #
# Whole-run record (coordinator restart)
# --------------------------------------------------------------------------- #
class RunCheckpoint(_Record):
    """Replay-exact epoch-boundary snapshot of the entire deployment.

    ``epoch`` counts *completed* epochs: a restore resumes training at
    that epoch index.  The trainer owns the payload's layout
    (``SpatioTemporalTrainer._capture_run_checkpoint`` writes it,
    ``restore_run_checkpoint`` reads it); this class is the container
    the stores persist.
    """

    @property
    def epoch(self) -> int:
        return int(self.meta["epoch"])

    @property
    def engine_clock(self) -> float:
        return float(self.meta["engine_clock"])
