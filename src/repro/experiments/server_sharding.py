"""Server-sharding scaling sweep: accuracy and wall-clock vs. shard count.

The ROADMAP's north star is serving heavy traffic from very many
end-systems; the single central server the paper assumes is the obvious
bottleneck.  This experiment runs the same 100+ client heterogeneous
star workload against 1, 2 and 4 server shards
(:mod:`repro.cluster`), with clients assigned per shard by a pluggable
strategy and the shards kept consistent by sample-weighted full
averaging every round.

Reported per shard count: the client balance, final training and test
accuracy, the simulated completion time, the host wall-clock time, the
mean queue wait, and what the consistency protocol costs —
synchronization events and inter-server traffic volume.

Expected shape: accuracy degrades only mildly with shard count (periodic
averaging is FedAvg-grade consistency), and the *mean queue wait*
collapses under latency-aware sharding — a near shard's messages stop
queueing behind far-away arrivals at the round barrier, so its updates
apply fresh.  The simulated completion time stays pinned to the slowest
latency band (every client still contributes the same number of rounds;
sharding isolates stragglers, it does not remove them), and sync
traffic grows as S*(S-1) snapshots per sync.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..api import JobSpec, build_trainer, build_workload
from ..simnet.topology import multi_hub_star_topology
from ..utils.logging import get_logger
from .base import ExperimentResult, on_preset, respec

__all__ = ["base_spec", "run_server_sharding"]

logger = get_logger("experiments.server_sharding")

DEFAULT_SHARD_COUNTS = (1, 2, 4)


def _spread_latencies(num_end_systems: int, near_s: float, far_s: float):
    """Evenly spread one-way latencies from a nearby to a far-away client."""
    return list(np.linspace(near_s, far_s, num_end_systems))


def base_spec() -> JobSpec:
    """The sweep's job: 100 end-systems, latency-aware shards averaged every round."""
    return on_preset(
        JobSpec(name="server_sharding"), num_end_systems=100, num_samples=2000, epochs=2,
        batch_size=16, shard_assigner="latency_aware")


def run_server_sharding(
    spec: Optional[JobSpec] = None,
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    near_latency_s: float = 0.002,
    far_latency_s: float = 0.12,
    inter_server_latency_s: float = 0.005,
) -> ExperimentResult:
    """Sweep the shard count under a heterogeneous-latency star.

    Training runs in synchronous mode (the Table-I regime) so the round
    barrier makes the straggler effect visible: with one server every
    round waits for the farthest client, while latency-aware shards wait
    only for their own band.
    """
    spec = spec if spec is not None else base_spec()
    workload, config = spec.workload, spec.config
    pieces = build_workload(workload)
    latencies = _spread_latencies(workload.num_end_systems, near_latency_s, far_latency_s)

    result = ExperimentResult(
        name="Server sharding — accuracy and completion time vs. shard count "
             f"under a {workload.num_end_systems}-client star",
        headers=[
            "num_servers",
            "assigner",
            "clients_per_shard",
            "train_accuracy_pct",
            "test_accuracy_pct",
            "simulated_time_s",
            "wall_time_s",
            "weight_syncs",
            "sync_megabytes",
            "mean_queue_wait_ms",
        ],
        paper_reference={
            "figure": "architecture (Fig. 2) — scaling extension",
            "claim": "one centralized server absorbs every end-system's "
                     "activations; sharding with periodic weight sync is the "
                     "horizontal path past that bottleneck",
        },
        metadata={
            "workload": spec.to_json_dict(),
            "shard_counts": list(shard_counts),
            "shard_assigner": config.shard_assigner,
            "server_sync_every": config.server_sync_every,
            "server_sync_mode": config.server_sync_mode,
            "client_blocks": workload.client_blocks,
            "latency_range_s": [near_latency_s, far_latency_s],
            "inter_server_latency_s": inter_server_latency_s,
        },
    )

    for num_servers in shard_counts:
        topology = multi_hub_star_topology(
            workload.num_end_systems,
            num_servers,
            assigner=config.shard_assigner,
            latencies_s=latencies,
            inter_server_latency_s=inter_server_latency_s,
            seed=workload.seed,
        )
        trainer = build_trainer(respec(spec, num_servers=num_servers), pieces=pieces,
                                topology=topology)
        history = trainer.train(pieces.test, evaluate_every=config.epochs)
        wall_time = sum(record.wall_time_s for record in history.records)
        balance = "/".join(str(count) for count in trainer.cluster.clients_per_shard())
        logger.info(
            "sharding servers=%d balance=%s train_acc=%.4f sim_time=%.2fs syncs=%d",
            num_servers, balance, history.final_train_accuracy,
            history.total_simulated_time, trainer.engine.stats.weight_syncs,
        )
        result.add_row([
            num_servers,
            config.shard_assigner,
            balance,
            100.0 * history.final_train_accuracy,
            100.0 * (history.final_test_accuracy or 0.0),
            history.total_simulated_time,
            wall_time,
            trainer.engine.stats.weight_syncs,
            history.traffic["sync_megabytes"],
            1e3 * history.queue_stats["mean_waiting_time_s"],
        ])
    return result
