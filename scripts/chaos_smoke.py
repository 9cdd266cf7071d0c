#!/usr/bin/env python
"""CI chaos smoke: scripted faults + reliable delivery on a tiny workload.

Drives one training run through the full chaos plane — link loss, a link
flap, a hub-to-hub partition, a straggling shard, per-message corruption
/ duplication / reordering — with the reliability layer on (retries,
dedup, quorum-degraded sync), then asserts the robustness contract
end-to-end:

* chaos actually fired (fault events, corrupted/duplicated messages and
  retransmissions are all non-zero — the smoke tested something);
* the extended drop-accounting balance holds: every lost batch notified
  its client exactly once, and nothing leaked;
* determinism: a second run with the same seed produces a byte-identical
  traffic ledger and identical run-level statistics.

Exit status 0 means the chaos plane works on this checkout; any
assertion failure (or crash in the run itself) fails the build.

Usage (from the repo root)::

    PYTHONPATH=src python scripts/chaos_smoke.py
"""

from __future__ import annotations

import sys

import numpy as np

from repro.api import JobSpec, JobWorkload, build_trainer, build_workload
from repro.core.config import TrainingConfig
from repro.obs.invariants import assert_drop_balance
from repro.simnet.topology import multi_hub_star_topology

#: Every fault class the plane supports, landing inside the tiny run.
CHAOS_SCHEDULE = [
    ("flap", 0.01, 0.02, 0),
    ("partition", 0.03, 0.03, 0, 1),
    ("straggler", 0.01, 0.08, 2, 20.0),
    ("leave", 0.06, 0.02, 3),
]

SPEC = JobSpec(
    name="chaos-smoke",
    workload=JobWorkload(num_samples=320, num_end_systems=8),
    config=TrainingConfig(
        epochs=1,
        batch_size=16,
        num_servers=3,
        shard_assigner="latency_aware",
        server_step_time_s=0.004,
        reliable_delivery=True,
        retry_timeout_s=0.01,
        sync_quorum=0.5,
        sync_timeout_s=0.02,
        chaos_schedule=CHAOS_SCHEDULE,
        chaos_corrupt_probability=0.05,
        chaos_duplicate_probability=0.1,
        chaos_reorder_probability=0.1,
    ),
)


def run_once(pieces):
    workload = SPEC.workload
    latencies = list(np.linspace(0.002, 0.03, workload.num_end_systems))
    topology = multi_hub_star_topology(
        workload.num_end_systems, SPEC.config.num_servers,
        assigner=SPEC.config.shard_assigner,
        latencies_s=latencies,
        drop_probability=0.1,
        inter_server_latency_s=0.005,
        seed=workload.seed,
    )
    trainer = build_trainer(SPEC, pieces=pieces, topology=topology)
    history = trainer.train()
    return trainer, history


def main() -> int:
    pieces = build_workload(SPEC.workload)

    trainer, history = run_once(pieces)
    log = trainer.transport.log
    stats = trainer.engine.stats

    # The smoke must exercise the plane, not sail past it.
    assert stats.chaos_events > 0, "no chaos events fired"
    assert log.corrupted_messages > 0, "message corruption never fired"
    assert log.retried_messages > 0, "no physically-lost attempt was retried"
    assert stats.deduped > 0, "the idempotent receiver absorbed nothing"
    assert stats.quorum_syncs > 0, (
        "the straggler never forced a quorum-degraded sync"
    )
    assert_drop_balance(trainer)

    # Same seed, same faults, same ledger — chaos is a regression tool
    # only because it is deterministic.
    twin, twin_history = run_once(pieces)
    assert_drop_balance(twin)
    assert log.summary() == twin.transport.log.summary(), (
        "same-seed runs produced different traffic ledgers"
    )
    assert history.queue_stats == twin_history.queue_stats, (
        "same-seed runs produced different run statistics"
    )
    assert history.reliability() == twin_history.reliability()

    reliability = history.reliability()
    print("chaos smoke OK: "
          f"chaos_events={stats.chaos_events}, "
          f"corrupted={log.corrupted_messages}, "
          f"duplicated={log.duplicated_messages}, "
          f"reordered={log.reordered_messages}, "
          f"retried={log.retried_messages}, "
          f"deduped={stats.deduped}, gave_up={stats.gave_up}, "
          f"quorum_syncs={stats.quorum_syncs}, "
          f"sync_timeouts={stats.sync_timeouts}")
    print(f"reliability view: {reliability}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
