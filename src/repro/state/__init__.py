"""Durable training state: checkpoint records and checkpoint stores.

:class:`ShardCheckpoint`, :class:`ClientCheckpoint` and
:class:`RunCheckpoint` are checkpoint records, each just the
``(arrays, meta)`` payload a store persists — weights, full optimizer
state, RNG stream positions, counters and the drop-accounting ledger —
written by ``capture`` straight from the live objects and read back by
``restore``.  :class:`CheckpointStore` is the persistence API, with an
in-memory reference backend and a crash-consistent file backend (atomic
temp-then-rename writes, versioned manifest, checksum verification with
fallback to the previous intact checkpoint).

The :class:`~repro.core.engine.TrainingEngine` writes per-shard
checkpoints on a configurable cadence and prefers the newest intact one
at crash recovery; the trainer writes a :class:`RunCheckpoint` at every
epoch boundary, from which a coordinator restart resumes replay-exact.
"""

from .checkpoint import (
    ClientCheckpoint,
    RunCheckpoint,
    ShardCheckpoint,
    module_rng_states,
    queue_counter_state,
    restore_module_rng_states,
    restore_queue_counters,
)
from .store import CheckpointStore, FileCheckpointStore, MemoryCheckpointStore

__all__ = [
    "ShardCheckpoint",
    "ClientCheckpoint",
    "RunCheckpoint",
    "CheckpointStore",
    "MemoryCheckpointStore",
    "FileCheckpointStore",
    "queue_counter_state",
    "restore_queue_counters",
    "module_rng_states",
    "restore_module_rng_states",
]
