#!/usr/bin/env python
"""CI crash-recovery smoke: churn + durable checkpoints on a tiny workload.

Runs the ``server_failover`` sweep once with stochastic shard churn and
periodic checkpointing enabled, then asserts the dependability contract
end-to-end:

* crashes actually happened and every one was recovered from;
* checkpoints were written and at least one recovery restored from one;
* the RPO columns (lost simulated seconds / samples per crash) are
  present and sane — lost work is non-negative and bounded by the run;
* an asynchronous run whose parked (``standby``) shard never recovers
  still ends, with the drop balance intact, while interval checkpoints
  are on (the CI step's ``timeout-minutes`` turns a hang into a failure).

Exit status 0 means the crash-recovery path works on this checkout;
any assertion failure (or crash in the sweep itself) fails the build.

Usage (from the repo root)::

    PYTHONPATH=src python scripts/crash_recovery_smoke.py
"""

from __future__ import annotations

import sys

from repro.api import JobSpec, JobWorkload, build_trainer
from repro.core.config import TrainingConfig
from repro.experiments import get_experiment, on_preset, run_server_failover
from repro.obs.invariants import assert_drop_balance

#: Asynchronous + ``standby``: shard 1 crashes and stays down.
NEVER_RECOVERING = JobSpec(
    name="never-recovering-shard",
    workload=JobWorkload(num_samples=240, num_end_systems=8),
    config=TrainingConfig(
        epochs=1, batch_size=16, mode="asynchronous", num_servers=2,
        server_sync_mode="staleness", failover_policy="standby",
        failure_schedule=[(0.01, 1)], checkpoint_every_s=0.005,
    ),
)


def never_recovering_shard() -> None:
    """The run must end, with the dead shard's clients parked."""
    trainer = build_trainer(NEVER_RECOVERING)
    trainer.train()
    stats = trainer.engine.stats
    assert (stats.shard_crashes, stats.shard_recoveries) == (1, 0)
    assert stats.checkpoints_written > 0, "no interval capture fired"
    assert_drop_balance(trainer)
    epochs = NEVER_RECOVERING.config.epochs
    stranded = [es.system_id for es in trainer.end_systems
                if es.samples_seen < epochs * es.num_local_samples]
    assert stranded, "nobody was parked on the dead shard"
    print(f"never-recovering shard OK: run ended with clients {stranded} "
          f"parked, {stats.checkpoints_written} checkpoints")


def main() -> int:
    spec = on_preset(
        get_experiment("server_failover").base_spec(),
        num_samples=240, num_end_systems=8, epochs=1, batch_size=16,
        failure_mttr_s=0.01,
        server_sync_every=1000,  # no sync snapshot: checkpoints or bust
    )
    result = run_server_failover(
        spec,
        mtbf_values_s=(0.02,),
        checkpoint_every_values_s=(0.002,),
        failover_policies=("standby",),
        sync_modes=("average",),
        near_latency_s=0.002,
        far_latency_s=0.03,
    )
    print(result.to_table())

    index = {name: position for position, name in enumerate(result.headers)}
    required = ("crashes", "recoveries", "rpo_lost_s", "rpo_samples",
                "recovered_from", "ckpts", "ckpt_wall_ms", "simulated_time_s")
    missing = [name for name in required if name not in index]
    assert not missing, f"RPO columns missing from the sweep: {missing}"

    assert len(result.rows) == 1
    row = result.rows[0]
    crashes = row[index["crashes"]]
    recoveries = row[index["recoveries"]]
    assert crashes > 0, "churn never fired — the smoke tested nothing"
    assert recoveries > 0, f"{crashes} crashes but no recoveries"
    assert row[index["ckpts"]] > 0, "no checkpoints were written"
    assert row[index["ckpt_wall_ms"]] > 0.0, "checkpoint overhead unaccounted"
    from_checkpoint = int(row[index["recovered_from"]].split("/")[0])
    assert from_checkpoint > 0, (
        f"no recovery used a checkpoint (recovered_from="
        f"{row[index['recovered_from']]!r})"
    )
    rpo_lost_s = row[index["rpo_lost_s"]]
    assert 0.0 <= rpo_lost_s <= crashes * row[index["simulated_time_s"]], (
        f"implausible rpo_lost_s={rpo_lost_s}"
    )
    assert row[index["rpo_samples"]] >= 0

    never_recovering_shard()

    print(f"crash-recovery smoke OK: {crashes} crashes, {recoveries} "
          f"recoveries ({from_checkpoint} from checkpoints), "
          f"rpo_lost_s={rpo_lost_s:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
