"""Run-level invariants, shared by tests, experiments and the CLI.

The extended drop-accounting balance —

    notified == queue + transport - nack - sync + failover - deduped + gave_up

— was re-stated, formula and error message alike, in
``tests/core/test_lossy_semantics.py``, ``experiments/chaos_matrix.py``
and ``scripts/chaos_smoke.py``.  This module is the one statement of it:
a :class:`DropBalance` record built either from a live trainer or from a
metrics snapshot (so ``repro.obs report`` can re-check a finished run
from its JSONL alone), plus the raising helper the three call sites use.

Rationale for each term (the long-form story lives with the lossy-
semantics tests): a dropped NACK is not another lost batch, inter-server
sync snapshots never involve a client, crash-shed batches enter through
the failover counter, a deduplicated copy's batch survived with the
first copy, and an exhausted retry chain is exactly one lost batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

__all__ = [
    "DropBalance",
    "assert_drop_balance",
    "drop_balance",
    "drop_balance_from_metrics",
]

#: (field, metric name) pairs as they appear in a collected snapshot.
_METRIC_NAMES: Tuple[Tuple[str, str], ...] = (
    ("notified", "clients.drops_notified"),
    ("queue_dropped", "cluster.queue_dropped"),
    ("transport_dropped", "traffic.dropped_messages"),
    ("nack_dropped", "traffic.nack_dropped"),
    ("sync_dropped", "traffic.sync_dropped"),
    ("failover_dropped", "engine.failover_dropped"),
    ("deduped", "engine.deduped"),
    ("gave_up", "engine.gave_up"),
    ("leaked", "clients.pending_batches"),
)


@dataclass(frozen=True)
class DropBalance:
    """One evaluation of the leak-freedom balance."""

    notified: int
    queue_dropped: int
    transport_dropped: int
    nack_dropped: int
    sync_dropped: int
    failover_dropped: int
    deduped: int
    gave_up: int
    #: Batches still awaiting a gradient after the run (must be 0): the
    #: larger of the clients' pending activations and the engine's ledger
    #: (a client without trainable layers stores no activation).
    leaked: int = 0

    @property
    def expected(self) -> int:
        return (self.queue_dropped + self.transport_dropped
                - self.nack_dropped - self.sync_dropped
                + self.failover_dropped - self.deduped + self.gave_up)

    @property
    def holds(self) -> bool:
        return self.notified == self.expected and self.leaked == 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "notified": self.notified,
            "expected": self.expected,
            "queue_dropped": self.queue_dropped,
            "transport_dropped": self.transport_dropped,
            "nack_dropped": self.nack_dropped,
            "sync_dropped": self.sync_dropped,
            "failover_dropped": self.failover_dropped,
            "deduped": self.deduped,
            "gave_up": self.gave_up,
            "leaked": self.leaked,
            "holds": int(self.holds),
        }

    def describe(self) -> str:
        """The canonical out-of-balance message (pre-PR 9 wording)."""
        return (
            f"drop accounting out of balance: notified={self.notified} "
            f"expected={self.expected} (queue={self.queue_dropped}, "
            f"transport={self.transport_dropped}, nack={self.nack_dropped}, "
            f"sync={self.sync_dropped}, failover={self.failover_dropped}, "
            f"deduped={self.deduped}, gave_up={self.gave_up})"
        )

    def table(self) -> str:
        """Signed drop-balance ledger for the report CLI."""
        rows: List[Tuple[str, str, int]] = [
            ("queue_dropped", "+", self.queue_dropped),
            ("transport_dropped", "+", self.transport_dropped),
            ("nack_dropped", "-", self.nack_dropped),
            ("sync_dropped", "-", self.sync_dropped),
            ("failover_dropped", "+", self.failover_dropped),
            ("deduped", "-", self.deduped),
            ("gave_up", "+", self.gave_up),
        ]
        width = max(len(name) for name, _, _ in rows) + 2
        lines = [f"  {sign} {name:<{width}} {value:>8d}"
                 for name, sign, value in rows]
        lines.append(f"  = {'expected':<{width}} {self.expected:>8d}")
        lines.append(f"    {'notified':<{width}} {self.notified:>8d}")
        status = "BALANCED" if self.notified == self.expected else "VIOLATED"
        lines.append(f"    {'status':<{width}} {status:>8}")
        if self.leaked:
            lines.append(f"    {'leaked':<{width}} {self.leaked:>8d}")
        return "\n".join(lines)


def drop_balance(trainer: object) -> DropBalance:
    """Evaluate the balance on a live trainer (duck-typed).

    Works on anything exposing the ``SpatioTemporalTrainer`` surface:
    ``transport.log``, ``engine.stats``, ``engine.outstanding``,
    ``cluster.shards`` and ``end_systems``.
    """
    log = trainer.transport.log  # type: ignore[attr-defined]
    stats = trainer.engine.stats  # type: ignore[attr-defined]
    shards = trainer.cluster.shards  # type: ignore[attr-defined]
    end_systems = trainer.end_systems  # type: ignore[attr-defined]
    return DropBalance(
        notified=sum(es.drops_notified for es in end_systems),
        queue_dropped=sum(shard.queue.dropped for shard in shards),
        transport_dropped=log.dropped_messages,
        nack_dropped=log.nack_dropped,
        sync_dropped=log.sync_dropped,
        failover_dropped=stats.failover_dropped,
        deduped=stats.deduped,
        gave_up=stats.gave_up,
        leaked=max(sum(es.pending_batches for es in end_systems),
                   len(trainer.engine.outstanding)),  # type: ignore[attr-defined]
    )


def drop_balance_from_metrics(metrics: Mapping[str, float]) -> DropBalance:
    """Rebuild the balance from a flat ``{metric name: value}`` snapshot
    (the last row of an obs JSONL export)."""
    missing = [name for _, name in _METRIC_NAMES if name not in metrics]
    if missing:
        raise KeyError(
            f"metrics snapshot is missing drop-balance series: {missing}")
    values = {field: int(metrics[name]) for field, name in _METRIC_NAMES}
    return DropBalance(**values)


def assert_drop_balance(trainer: object) -> DropBalance:
    """Raise ``AssertionError`` on imbalance or leak; return the record."""
    balance = drop_balance(trainer)
    if balance.notified != balance.expected:
        raise AssertionError(balance.describe())
    outstanding = trainer.engine.outstanding  # type: ignore[attr-defined]
    untracked = [
        (es.system_id, batch_id)
        for es in trainer.end_systems  # type: ignore[attr-defined]
        for batch_id in es.pending_batch_ids
        if (es.system_id, batch_id) not in outstanding
    ]
    if untracked:
        raise AssertionError(
            f"pending activations missing from the engine's ledger: {untracked}")
    if balance.leaked:
        raise AssertionError(f"{balance.leaked} pending activations leaked")
    return balance
