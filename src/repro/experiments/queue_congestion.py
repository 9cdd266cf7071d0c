"""Queue-congestion sweep: bounded queues under a 100+ client star.

The paper's parameter-scheduling queue only matters once it can fill up:
with hundreds of geo-distributed end-systems racing one server, the
queue's capacity and its overflow behaviour decide how much work is shed,
who gets starved and what that costs in accuracy.  This experiment sweeps

* **queue capacity** (including unbounded as the reference),
* **backpressure policy** — ``"drop"`` (overflowing arrivals are shed and
  the client is NACKed) vs ``"block"`` (admission control defers sends
  until the queue has room), and
* **scheduling policy** — who the server serves first once the queue is
  contended,

under a heterogeneous-latency star with (by default) 100 end-systems
training in asynchronous mode.  Reported per configuration: processed and
dropped message counts, deferred (blocked) sends, Jain's fairness index
over processed samples, mean queue wait, the mean queue-drop NACK delay
(the client learns of an overflow one *downlink delay* after it happens,
so far-away clients waste longer holding doomed activations), training
accuracy and the simulated completion time.  Leak detection is built in: a configuration
row is only emitted after asserting that no end-system is left holding a
pending activation, which is precisely the bug the bounded-queue path
used to have.

Expected shape: small capacities with ``drop`` shed a large fraction of
far-away clients' traffic (fairness falls with FIFO, less so with fair
policies), while ``block`` keeps every sample at the cost of simulated
time; unbounded queues reproduce the lossless baseline.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..api import JobSpec, build_trainer, build_workload
from ..obs.invariants import assert_drop_balance
from ..simnet.topology import star_topology
from ..utils.logging import get_logger
from .base import ExperimentResult, on_preset, respec

__all__ = ["base_spec", "run_queue_congestion"]

logger = get_logger("experiments.queue_congestion")

#: Queue capacities swept by default; ``None`` is the unbounded reference.
DEFAULT_CAPACITIES: Tuple[Optional[int], ...] = (4, 16, None)


def _spread_latencies(num_end_systems: int, near_s: float, far_s: float) -> List[float]:
    """Evenly spread one-way latencies from a nearby to a far-away client."""
    return list(np.linspace(near_s, far_s, num_end_systems))


def base_spec() -> JobSpec:
    """The sweep's job: 100 end-systems, asynchronous, one batch in flight, 4 ms steps.

    Per-message server steps (``server_batching=False``) let the queue
    actually fill while the server is busy; batched draining would empty
    it every step and hide the contention being measured.
    """
    return on_preset(
        JobSpec(name="queue_congestion"), num_end_systems=100, num_samples=2000, epochs=1,
        batch_size=16, mode="asynchronous", server_step_time_s=0.004, server_batching=False)


def run_queue_congestion(
    spec: Optional[JobSpec] = None,
    capacities: Sequence[Optional[int]] = DEFAULT_CAPACITIES,
    backpressures: Sequence[str] = ("drop", "block"),
    policies: Sequence[str] = ("fifo", "round_robin"),
    near_latency_s: float = 0.002,
    far_latency_s: float = 0.12,
) -> ExperimentResult:
    """Sweep queue capacity × backpressure × scheduling under congestion.

    Training runs in asynchronous mode for one pass over every client's
    local shard (whatever ``spec``'s epoch budget), with per-message
    server steps so queue occupancy actually builds up while the server
    is busy.  Unbounded capacity is only paired with the ``"drop"`` label
    (the two backpressure policies are indistinguishable without a
    bound).
    """
    spec = spec if spec is not None else base_spec()
    workload, config = spec.workload, spec.config
    pieces = build_workload(workload)
    latencies = _spread_latencies(workload.num_end_systems, near_latency_s, far_latency_s)

    result = ExperimentResult(
        name="Queue congestion — bounded scheduling queues under a "
             f"{workload.num_end_systems}-client star",
        headers=[
            "capacity",
            "backpressure",
            "policy",
            "processed_batches",
            "queue_dropped",
            "link_dropped",
            "blocked_sends",
            "fairness_index",
            "mean_queue_wait_ms",
            "mean_nack_delay_ms",
            "train_accuracy_pct",
            "simulated_time_s",
        ],
        paper_reference={
            "figure": "2 (queue discussion)",
            "claim": "a queue data structure needs to be defined to absorb "
                     "late/sparse arrivals from geo-distributed end-systems",
        },
        metadata={
            "workload": spec.to_json_dict(),
            "capacities": [capacity for capacity in capacities],
            "backpressures": list(backpressures),
            "policies": list(policies),
            "client_blocks": workload.client_blocks,
            "max_in_flight": config.max_in_flight,
            "server_step_time_s": config.server_step_time_s,
            "latency_range_s": [near_latency_s, far_latency_s],
        },
    )

    for policy in policies:
        for capacity in capacities:
            # Without a bound the backpressure policy is moot: run once.
            sweep_backpressures = backpressures if capacity is not None else ("drop",)
            for backpressure in sweep_backpressures:
                topology = star_topology(
                    workload.num_end_systems,
                    latencies_s=latencies,
                    seed=workload.seed,
                )
                row = respec(spec, epochs=1, queue_policy=policy, max_queue_size=capacity,
                             queue_backpressure=backpressure)
                trainer = build_trainer(row, pieces=pieces, topology=topology)
                history = trainer.train()
                assert_drop_balance(trainer)
                queue_dropped = history.queue_stats["dropped"]
                logger.info(
                    "congestion policy=%s capacity=%s backpressure=%s dropped=%d "
                    "blocked=%d fairness=%.3f",
                    policy, capacity, backpressure, queue_dropped,
                    history.queue_stats["blocked_sends"],
                    history.queue_stats["fairness_index"],
                )
                result.add_row([
                    "unbounded" if capacity is None else capacity,
                    backpressure,
                    policy,
                    trainer.server.batches_processed,
                    queue_dropped,
                    history.traffic["dropped_messages"],
                    history.queue_stats["blocked_sends"],
                    history.queue_stats["fairness_index"],
                    1e3 * history.queue_stats["mean_waiting_time_s"],
                    1e3 * history.queue_stats["mean_nack_delay_s"],
                    100.0 * history.final_train_accuracy,
                    history.total_simulated_time,
                ])
    return result
