"""Queue-scheduling ablation (the paper's Fig. 2 discussion).

Section II of the paper argues that, because end-systems are
geo-distributed, "the parameters from the end-system can arrive at the
server lately or sparsely.  Then, the learning performance can be biased
due to the differences of arrivals from end-systems.  Thus, parameter
scheduling is required".  The paper defines the queue but does not
evaluate it; this ablation does.

Setup: end-systems with strongly heterogeneous uplink latencies train in
*asynchronous* mode, where the server processes activations as they
arrive and a client only sends its next batch once the previous gradient
has returned.  We sweep the queue's scheduling policy and report

* Jain's fairness index over per-end-system processed samples (1.0 means
  every end-system contributed equally — no bias),
* the mean queueing delay,
* the spread (max - min) of per-end-system test accuracy, and
* the overall test accuracy.

Expected shape: FIFO lets nearby end-systems dominate (lower fairness),
while staleness-aware / weighted-fair scheduling restores balance at a
small cost in waiting time.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..api import JobSpec, build_trainer, build_workload
from ..simnet.topology import star_topology
from ..utils.logging import get_logger
from .base import ExperimentResult, on_preset, respec

__all__ = ["base_spec", "run_staleness"]

logger = get_logger("experiments.staleness")

#: Default heterogeneous one-way latencies: one nearby, one regional,
#: one intercontinental end-system plus an extremely remote one.
DEFAULT_LATENCIES_S = (0.002, 0.020, 0.080, 0.200)


def base_spec() -> JobSpec:
    """The ablation's job: one Dirichlet(0.5) shard per default latency.

    Asynchronous, two batches in flight per client, a 20 ms server step
    and per-message server updates: batched draining would collapse the
    queue contention the ablation measures.
    """
    return on_preset(
        JobSpec(name="staleness"), num_end_systems=len(DEFAULT_LATENCIES_S),
        partition="dirichlet", partition_kwargs={"alpha": 0.5}, mode="asynchronous",
        max_in_flight=2, server_step_time_s=0.02, server_batching=False)


def run_staleness(
    spec: Optional[JobSpec] = None,
    policies: Sequence[str] = ("fifo", "round_robin", "staleness", "weighted_fair"),
    latencies_s: Sequence[float] = DEFAULT_LATENCIES_S,
    simulated_budget_s: Optional[float] = None,
) -> ExperimentResult:
    """Compare queue scheduling policies under heterogeneous latencies.

    Training runs in asynchronous mode for a fixed *simulated time budget*
    (not a fixed number of passes): within that window a nearby end-system
    can ship many more batches than a remote one, so the scheduling policy
    determines how the server's limited throughput is divided — which is
    exactly the bias the paper's queue discussion is about.
    """
    spec = spec if spec is not None else base_spec()
    workload, config = spec.workload, spec.config
    if workload.num_end_systems != len(latencies_s):
        raise ValueError(
            f"workload has {workload.num_end_systems} end-systems but "
            f"{len(latencies_s)} latencies were given"
        )
    pieces = build_workload(workload)
    if simulated_budget_s is None:
        # Budget sized so the server could process roughly `epochs` passes
        # over the data if it were never starved: batches/pass * step time.
        total_batches_per_pass = sum(
            max(1, len(part) // config.batch_size) for part in pieces.parts
        )
        simulated_budget_s = config.epochs * total_batches_per_pass * config.server_step_time_s

    result = ExperimentResult(
        name="Queue scheduling ablation — arrival bias under heterogeneous latency",
        headers=[
            "policy",
            "fairness_index",
            "accuracy_pct",
            "accuracy_spread_pct",
            "mean_queue_wait_ms",
            "updates_fast_client",
            "updates_slow_client",
            "simulated_time_s",
        ],
        paper_reference={
            "figure": "2",
            "claim": "parameter scheduling is required to avoid bias from late/sparse arrivals",
        },
        metadata={
            "workload": spec.to_json_dict(),
            "latencies_s": list(latencies_s),
            "client_blocks": workload.client_blocks,
            "max_in_flight": config.max_in_flight,
            "server_step_time_s": config.server_step_time_s,
            "simulated_budget_s": simulated_budget_s,
        },
    )

    for policy in policies:
        topology = star_topology(
            workload.num_end_systems,
            latencies_s=latencies_s,
            jitter_std_s=0.002,
            seed=workload.seed,
        )
        trainer = build_trainer(respec(spec, queue_policy=policy), pieces=pieces,
                                topology=topology)
        history = trainer.train_time_budget(simulated_budget_s, test_dataset=pieces.test)
        per_system = history.per_system_accuracy or {}
        accuracies = list(per_system.values())
        spread = (max(accuracies) - min(accuracies)) * 100.0 if accuracies else 0.0
        updates = trainer.per_system_update_counts()
        fastest = int(np.argmin(latencies_s))
        slowest = int(np.argmax(latencies_s))
        logger.info(
            "staleness policy=%s fairness=%.3f accuracy=%.2f%%",
            policy, history.queue_stats.get("fairness_index", 1.0),
            100.0 * (history.final_test_accuracy or 0.0),
        )
        result.add_row([
            policy,
            history.queue_stats.get("fairness_index", 1.0),
            100.0 * (history.final_test_accuracy or 0.0),
            spread,
            1e3 * history.queue_stats.get("mean_waiting_time_s", 0.0),
            updates.get(fastest, 0),
            updates.get(slowest, 0),
            history.total_simulated_time,
        ])
    return result
