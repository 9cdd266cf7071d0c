"""Server-failover sweep: dependability under shard churn.

The DSN paper is about *dependable* distributed training, yet its
platform — and the PR 4 cluster that scales it — assumed every server
shard lives forever.  This experiment injects shard crashes into a
sharded deployment and sweeps the four axes that decide how much an
outage costs:

* **failure intensity** — no failures (the control row), then stochastic
  churn at a few MTBF settings (mean exponential up-time per shard, with
  a fixed MTTR);
* **checkpoint interval** — ``None`` (PR 5 behaviour: recovery falls
  back to the last inter-server sync snapshot, or the initial weights
  before the first sync) vs. periodic durable checkpoints, which bound
  the recovery point at the checkpoint cadence in exchange for write
  overhead;
* **failover policy** — ``"rebalance"`` (a dead shard's clients are
  spread over the survivors by the load-aware assigner and failed back
  on recovery) vs. ``"standby"`` (clients park until their home shard
  returns);
* **sync mode** — the blocking ``"average"`` rendezvous (which must skip
  dead shards to avoid hanging) vs. non-blocking ``"staleness"`` gossip.

Reported per configuration: crash/recovery counts, client reassignments,
work shed at crash time (leak-free, via ``notify_drop``), cumulative
shard downtime, the **recovery-point objective** actually achieved
(simulated seconds and samples of shard work lost per crash, split by
which artifact recovery restored from), the checkpoint write overhead
(count and wall-clock spent serializing), final train/test accuracy and
the simulated completion time.

Expected shape: the control rows reproduce the ``server_sharding``
behaviour, and with checkpointing enabled they price its pure overhead
(writes happen, nothing is ever restored).  Under churn, ``rebalance``
trades extra reassignment traffic for steady throughput while
``standby`` loses the dead band's progress for the whole outage; adding
checkpoints shifts recoveries from the sync/initial fallbacks onto the
checkpoint path and shrinks ``rpo_lost_s`` towards the checkpoint
cadence — the dependability claim, quantified.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..api import JobSpec, build_trainer, build_workload
from ..obs.invariants import assert_drop_balance
from ..simnet.topology import multi_hub_star_topology
from ..utils.logging import get_logger
from .base import ExperimentResult, on_preset, respec

__all__ = ["base_spec", "run_server_failover"]

logger = get_logger("experiments.server_failover")

#: Mean time between failures settings swept by default; ``None`` is the
#: failure-free control.
DEFAULT_MTBF_S = (None, 0.5, 0.1)

#: Checkpoint cadences swept by default; ``None`` is the PR 5 behaviour
#: (sync-snapshot/initial-weights recovery only, zero write overhead).
DEFAULT_CHECKPOINT_S = (None, 0.02)


def base_spec() -> JobSpec:
    """The sweep's job: 40 end-systems on two latency-aware shards synced every round.

    A crashed shard is down 50 ms on average (``failure_mttr_s``) and its
    clients fail over after 2 ms (``failover_delay_s``).
    """
    return on_preset(
        JobSpec(name="server_failover"), num_end_systems=40, num_samples=1600, epochs=2,
        batch_size=16, num_servers=2, shard_assigner="latency_aware", failure_mttr_s=0.05,
        failover_delay_s=0.002)


def run_server_failover(
    spec: Optional[JobSpec] = None,
    mtbf_values_s: Sequence[Optional[float]] = DEFAULT_MTBF_S,
    checkpoint_every_values_s: Sequence[Optional[float]] = DEFAULT_CHECKPOINT_S,
    failover_policies: Sequence[str] = ("rebalance", "standby"),
    sync_modes: Sequence[str] = ("average", "staleness"),
    near_latency_s: float = 0.002,
    far_latency_s: float = 0.08,
    inter_server_latency_s: float = 0.005,
) -> ExperimentResult:
    """Sweep MTBF x checkpoint interval x policy x sync mode on a star.

    Training runs in synchronous mode so both sync modes are admissible;
    the stochastic failure streams derive from the workload seed, so the
    same churn pattern hits every checkpoint/policy/sync-mode combination
    at a given MTBF — the comparison isolates the *response* to failures,
    not the failures themselves.  Checkpointing rows use the in-memory
    store: the overhead of serializing the snapshot is what is being
    measured, not the filesystem underneath it.
    """
    spec = spec if spec is not None else base_spec()
    workload, config = spec.workload, spec.config
    pieces = build_workload(workload)
    latencies = list(np.linspace(near_latency_s, far_latency_s,
                                 workload.num_end_systems))

    result = ExperimentResult(
        name="Server failover — dependability under shard churn "
             f"({workload.num_end_systems}-client star, {config.num_servers} shards)",
        headers=[
            "mtbf_s",
            "policy",
            "sync_mode",
            "ckpt_s",
            "crashes",
            "recoveries",
            "reassigned",
            "shed_msgs",
            "downtime_s",
            "rpo_lost_s",
            "rpo_samples",
            "recovered_from",
            "ckpts",
            "ckpt_wall_ms",
            "train_accuracy_pct",
            "test_accuracy_pct",
            "simulated_time_s",
        ],
        paper_reference={
            "figure": "dependability claim (title/Sec. I) — failover extension",
            "claim": "the platform must keep training through end-system and "
                     "server faults; shard failover with leak-free shedding, "
                     "durable checkpoints and a bounded recovery point is the "
                     "server-side half of that",
        },
        metadata={
            "workload": spec.to_json_dict(),
            "mtbf_values_s": list(mtbf_values_s),
            "mttr_s": config.failure_mttr_s,
            "checkpoint_every_values_s": list(checkpoint_every_values_s),
            "failover_policies": list(failover_policies),
            "sync_modes": list(sync_modes),
            "num_servers": config.num_servers,
            "shard_assigner": config.shard_assigner,
            "server_sync_every": config.server_sync_every,
            "failover_delay_s": config.failover_delay_s,
            "latency_range_s": [near_latency_s, far_latency_s],
            "inter_server_latency_s": inter_server_latency_s,
        },
    )

    for mtbf_s in mtbf_values_s:
        for checkpoint_every_s in checkpoint_every_values_s:
            for sync_mode in sync_modes:
                for policy in failover_policies:
                    if mtbf_s is None and policy != failover_policies[0]:
                        # The failure-free control is policy-independent;
                        # one row per sync mode x checkpoint cadence is
                        # enough (the cadence still matters: it prices
                        # the pure write overhead).
                        continue
                    topology = multi_hub_star_topology(
                        workload.num_end_systems,
                        config.num_servers,
                        assigner=config.shard_assigner,
                        latencies_s=latencies,
                        inter_server_latency_s=inter_server_latency_s,
                        seed=workload.seed,
                    )
                    row = respec(spec, server_sync_mode=sync_mode, failure_mtbf_s=mtbf_s,
                                 failover_policy=policy,
                                 checkpoint_every_s=checkpoint_every_s)
                    trainer = build_trainer(row, pieces=pieces, topology=topology)
                    history = trainer.train(pieces.test, evaluate_every=config.epochs)
                    stats = trainer.engine.stats
                    # Leak-freedom is part of the experiment's contract:
                    # a crash must never leave a client waiting forever.
                    assert_drop_balance(trainer)
                    queue_stats = history.queue_stats
                    downtime = queue_stats.get("total_downtime_s", 0.0)
                    recovered_from = "/".join(str(queue_stats.get(key, 0)) for key in (
                        "recoveries_from_checkpoint",
                        "recoveries_from_sync",
                        "recoveries_from_initial",
                    ))
                    logger.info(
                        "failover mtbf=%s ckpt=%s policy=%s sync=%s "
                        "crashes=%d reassigned=%d rpo=%.4fs acc=%.4f "
                        "sim_time=%.2fs",
                        mtbf_s, checkpoint_every_s, policy, sync_mode,
                        stats.shard_crashes, stats.clients_reassigned,
                        queue_stats.get("rpo_lost_s", 0.0),
                        history.final_train_accuracy,
                        history.total_simulated_time,
                    )
                    result.add_row([
                        mtbf_s if mtbf_s is not None else "inf",
                        policy if mtbf_s is not None else "-",
                        sync_mode,
                        checkpoint_every_s if checkpoint_every_s is not None else "off",
                        stats.shard_crashes,
                        stats.shard_recoveries,
                        stats.clients_reassigned,
                        stats.failover_dropped,
                        downtime,
                        queue_stats.get("rpo_lost_s", 0.0),
                        queue_stats.get("rpo_lost_samples", 0),
                        recovered_from,
                        queue_stats.get("checkpoints_written", 0),
                        1e3 * queue_stats.get("checkpoint_write_wall_s", 0.0),
                        100.0 * history.final_train_accuracy,
                        100.0 * (history.final_test_accuracy or 0.0),
                        history.total_simulated_time,
                    ])
    return result
