"""Shard failover policies for the sharded cluster.

The PR 4 cluster assumed every :class:`~repro.cluster.shard.ServerShard`
lives forever; one crashed hub would strand its whole client band.  Shard
crashes and recoveries are events of the run's fault timeline
(:mod:`repro.chaos.plan`, fed by ``TrainingConfig.failure_schedule`` or
``failure_mtbf_s``/``failure_mttr_s``); this module supplies the decision
that follows one: a :class:`FailoverPolicy` says what happens to a dead
shard's clients.  :class:`RebalanceFailover` reassigns them across the
healthy survivors (reusing the pluggable
:class:`~repro.cluster.assigner.ShardAssigner` strategies for the
rebalancing decision, and failing them back on recovery), while
:class:`StandbyFailover` parks them until their home shard returns.

The :class:`~repro.core.engine.TrainingEngine` owns the *mechanics*: a
crash sheds the shard's queue/arena contents through
``EndSystem.notify_drop`` (so the leak-free accounting invariants
survive), the topology marks the hub's links down and reroutes reassigned
uplinks, and a recovering shard reinstalls the freshest durable state
before catching up through the regular sync path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from .assigner import ShardAssigner, get_assigner

__all__ = [
    "FailoverPolicy",
    "RebalanceFailover",
    "StandbyFailover",
    "available_failover_policies",
    "get_failover_policy",
]


class FailoverPolicy:
    """Decides where a dead shard's clients go (and whether they return).

    ``failback`` controls recovery: when ``True`` the policy's moves are
    undone once the crashed shard returns — its original clients migrate
    home and catch up through the regular sync path.
    """

    name = "base"
    failback = True

    def reassign(
        self,
        clients: Sequence[int],
        survivors: Sequence[int],
        latencies_s: Optional[Sequence[float]] = None,
        loads: Optional[Sequence[int]] = None,
    ) -> Dict[int, int]:
        """Map each orphaned client id to a surviving shard id.

        An empty mapping strands the clients (they wait for recovery);
        ``latencies_s``/``loads`` are per-client context aligned with
        ``clients``, forwarded to assignment strategies that want them.
        """
        raise NotImplementedError


class RebalanceFailover(FailoverPolicy):
    """Spread the orphans across the survivors via a pluggable assigner.

    The heavy lifting is the same :class:`ShardAssigner` machinery the
    initial placement uses: the orphaned clients are assigned onto the
    *survivor* set (``load_aware`` by default, so a crash does not dogpile
    one survivor), then mapped back to real shard ids.
    """

    name = "rebalance"
    failback = True

    def __init__(self, assigner: Union[str, ShardAssigner] = "load_aware") -> None:
        self.assigner = get_assigner(assigner) if isinstance(assigner, str) else assigner

    def reassign(self, clients, survivors, latencies_s=None, loads=None) -> Dict[int, int]:
        if not clients or not survivors:
            return {}
        placement = self.assigner.assign(
            len(clients), len(survivors), latencies_s=latencies_s, loads=loads
        )
        return {
            client: int(survivors[slot]) for client, slot in zip(clients, placement)
        }


class StandbyFailover(FailoverPolicy):
    """No reassignment: clients park until their home shard recovers.

    The degraded-service baseline every smarter policy must beat — the
    dead shard's band makes no progress during the outage, but nothing
    leaks and nobody else's latency band is disturbed.
    """

    name = "standby"
    failback = False

    def reassign(self, clients, survivors, latencies_s=None, loads=None) -> Dict[int, int]:
        return {}


_POLICIES = {
    RebalanceFailover.name: RebalanceFailover,
    StandbyFailover.name: StandbyFailover,
}


def available_failover_policies() -> List[str]:
    """Names of the registered failover policies."""
    return sorted(_POLICIES)


def get_failover_policy(name: str, assigner: Optional[str] = None) -> FailoverPolicy:
    """Instantiate a failover policy by registry name.

    ``assigner`` names the :class:`ShardAssigner` a rebalancing policy
    should reuse (ignored by policies that never reassign).
    """
    try:
        policy_cls = _POLICIES[name.lower()]
    except KeyError:
        known = ", ".join(available_failover_policies())
        raise KeyError(
            f"unknown failover policy {name!r}; known policies: {known}"
        ) from None
    if policy_cls is RebalanceFailover and assigner is not None:
        return RebalanceFailover(assigner=assigner)
    return policy_cls()
