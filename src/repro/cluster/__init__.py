"""Sharded multi-server split learning.

The paper's platform funnels every client through one central server;
this package breaks that bottleneck horizontally: several
:class:`~repro.cluster.shard.ServerShard` replicas each own one shard of
the clients (assigned by a pluggable
:class:`~repro.cluster.assigner.ShardAssigner`), and a
:class:`~repro.cluster.coordinator.ClusterCoordinator` keeps the replicas
consistent with periodic inter-server weight synchronization — a full
sample-weighted average every ``k`` rounds (barrier) or an asynchronous
staleness-weighted gossip merge.

Everything runs on the single discrete-event engine
(:class:`~repro.core.engine.TrainingEngine`): per-shard queues, arenas
and backpressure are preserved, and ``num_servers=1`` reduces exactly to
the single-server deployment.
"""

from .assigner import (
    LatencyAwareAssigner,
    LoadAwareAssigner,
    ShardAssigner,
    StaticHashAssigner,
    available_assigners,
    get_assigner,
)
from .coordinator import ClusterCoordinator
from .failover import (
    FailoverPolicy,
    RebalanceFailover,
    StandbyFailover,
    available_failover_policies,
    get_failover_policy,
)
from .shard import ServerShard

__all__ = [
    "ShardAssigner",
    "StaticHashAssigner",
    "LoadAwareAssigner",
    "LatencyAwareAssigner",
    "available_assigners",
    "get_assigner",
    "ClusterCoordinator",
    "ServerShard",
    "FailoverPolicy",
    "RebalanceFailover",
    "StandbyFailover",
    "available_failover_policies",
    "get_failover_policy",
]
