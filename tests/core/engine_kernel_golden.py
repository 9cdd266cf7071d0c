"""Cells and capture behind ``fixtures/engine_kernel_parent.json``.

The fixture pins the simulated physics of every fork that the engine's
message kernel merged — {synchronous, asynchronous} × {unreliable,
reliable delivery} × {unbounded, ``"drop"``, ``"block"`` queues} ×
{batched, per-message drains}, plus chaos duplication, a straggler-parked
drain, a budget stop and a crash with failover under retries — as produced
by the last commit whose ``core/engine.py`` spelled each of them out
separately.  This module is both the recorder and the test's helper, so the
fixture and its check can never describe different runs: run as a script
with *that* commit's ``src`` on ``PYTHONPATH`` it writes the fixture (see
``fixtures/README.md``); ``test_engine_kernel.py`` imports the same cells
and ``snapshot`` and compares what the current code produces, exactly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict

import numpy as np

from repro.core.config import TrainingConfig
from repro.core.trainer import SpatioTemporalTrainer
from repro.simnet.topology import multi_hub_star_topology

# Same tiny workload and same capture as the PR 15 fault-timeline golden.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "cluster"))
import fault_timeline_golden as fault_golden  # noqa: E402

GOLDEN = Path(__file__).parent / "fixtures" / "engine_kernel_parent.json"

#: Two shards, three clients on shard 0 and one on shard 1 (so a queue of
#: two overflows at shard 0 only); every cell runs on lossy, jittered,
#: heterogeneous links so both legs lose transfers in both delivery modes.
BASE = dict(epochs=2, batch_size=4, num_servers=2, server_sync_every=2,
            server_step_time_s=0.002, max_in_flight=2)

MODES = {
    "sync": dict(mode="synchronous", server_sync_mode="average"),
    "async": dict(mode="asynchronous", server_sync_mode="staleness"),
}

#: The reliable cells retry over the same lossy links with corruption on
#: top; the 5 ms ack timeout is shorter than the slow clients' one-way
#: latency (spurious-timeout duplicates) and one retry is few enough that
#: whole chains are lost (give-ups).
DELIVERY = {
    "unreliable": {},
    "reliable": dict(reliable_delivery=True, retry_timeout_s=0.005, retry_max=1,
                     chaos_corrupt_probability=0.15),
}

QUEUES = {
    "unbounded": {},
    "drop": dict(max_queue_size=2, queue_backpressure="drop"),
    "block": dict(max_queue_size=2, queue_backpressure="block"),
}

DRAINS = {"batched": dict(server_batching=True),
          "permsg": dict(server_batching=False)}

CELLS: Dict[str, Dict[str, Any]] = {
    f"{mode}-{delivery}-{queue}-{drain}": dict(
        BASE, **MODES[mode], **DELIVERY[delivery], **QUEUES[queue], **DRAINS[drain])
    for mode in MODES for delivery in DELIVERY for queue in QUEUES for drain in DRAINS
}
for _mode in MODES:
    CELLS[f"{_mode}-duplicate"] = dict(
        BASE, **MODES[_mode], chaos_duplicate_probability=0.5)
    # A crash with rebalance failover, failback and a scripted move while
    # retries are in flight and senders are blocked: the hook protocol
    # (shard down / client moved / shard up) on the reliable path.
    CELLS[f"{_mode}-reliable-crash"] = dict(
        BASE, **MODES[_mode], **DELIVERY["reliable"], **QUEUES["block"],
        failure_schedule=[(0.02, 1, 0.03), (0.09, 0, 0.02)],
        failover_policy="rebalance", failover_delay_s=0.002,
        chaos_schedule=[("move", 0.06, 0, 1)])
#: The sync drain re-parked at the stalled instant, with a quorum timer.
CELLS["sync-straggler"] = dict(
    BASE, **MODES["sync"], sync_quorum=0.5, sync_timeout_s=0.004,
    chaos_schedule=[("straggler", 0.0, 0.08, 1, 4.0)])
#: ``train_time_budget``: the async ``halt`` with NACKs, give-ups and
#: queued work outstanding.  One shard: at the recording commit a budget
#: stop on several shards leaks the gradients still in flight from the
#: *other* shards (``pending_batches`` stays non-zero), which is a defect
#: and not physics worth pinning.
CELLS["async-budget"] = dict(
    BASE, **MODES["async"], **DELIVERY["reliable"], **QUEUES["drop"],
    num_servers=1, server_batching=False, server_step_time_s=0.01)
BUDGET_S = 0.07


def make_trainer(spec, parts, normalize, overrides):
    topology = multi_hub_star_topology(
        len(parts), overrides["num_servers"],
        assignment=[0, 0, 0, 1] if overrides["num_servers"] == 2 else [0] * 4,
        latencies_s=[0.002, 0.006, 0.003, 0.009], jitter_std_s=0.0005,
        drop_probability=0.25, seed=17)
    config = TrainingConfig.fast_debug(**overrides)
    return SpatioTemporalTrainer(spec, parts, config, topology=topology,
                                 train_transform=normalize)


def snapshot(trainer, history) -> Dict[str, Any]:
    """Everything the message path can move, as plain JSON."""
    return dict(
        fault_golden.snapshot(trainer, history),
        clients=[
            {"samples_seen": es.samples_seen, "pending_batches": es.pending_batches,
             "updates_applied": es.updates_applied,
             "drops_notified": es.drops_notified}
            for es in trainer.end_systems
        ],
    )


def run_cell(spec, parts, normalize, name: str) -> Dict[str, Any]:
    trainer = make_trainer(spec, parts, normalize, CELLS[name])
    if name == "async-budget":
        return snapshot(trainer, trainer.train_time_budget(BUDGET_S))
    return snapshot(trainer, trainer.train())


def main() -> None:
    from repro.nn.dtype import default_dtype

    with default_dtype(np.float64):
        spec, parts, normalize = fault_golden._tiny_workload()
        golden = {name: run_cell(spec, parts, normalize, name) for name in CELLS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(golden)} runs)", file=sys.stderr)


if __name__ == "__main__":
    main()
