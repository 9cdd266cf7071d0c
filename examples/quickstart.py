"""Quickstart: train a spatio-temporal split-learning deployment in ~30 seconds.

This example builds the smallest end-to-end deployment that still shows
every moving part of the paper's framework, driven entirely through the
public API (:mod:`repro.api`):

1. a :class:`~repro.api.JobSpec` — the versioned, JSON-serializable
   description of the whole job: a synthetic CIFAR-10-like dataset
   partitioned IID across 3 end-systems, the block-structured CNN of the
   paper's Fig. 3 (scaled down), and a split at L1 — each end-system
   keeps Conv2D+MaxPooling2D block 1 and its raw data, the centralized
   server keeps everything else,
2. synchronous training over a simulated star network, and
3. evaluation plus a privacy check on the smashed activations.

The same spec, serialized with ``spec.to_json_dict()``, is exactly what
``POST /v1/jobs`` on the run-server accepts — see
``examples/run_server_job.py``.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import json

from repro.api import JobSpec, JobWorkload, build_split, build_trainer, build_workload
from repro.core.config import TrainingConfig
from repro.core.privacy import leakage_report
from repro.utils.tables import format_table


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Describe the whole job as one versioned, serializable spec.
    # ------------------------------------------------------------------ #
    spec = JobSpec(
        name="quickstart",
        workload=JobWorkload(num_samples=1200, num_end_systems=3,
                             partition="iid", client_blocks=1, seed=0),
        config=TrainingConfig(epochs=6, batch_size=32, client_lr=1e-3,
                              server_lr=1e-3, seed=0),
    )
    print("JobSpec (what POST /v1/jobs would accept):")
    print(json.dumps(spec.to_json_dict(), indent=2)[:400] + " ...")
    print()

    # ------------------------------------------------------------------ #
    # 2. Materialize it: dataset, shards, architecture; cut it.
    # ------------------------------------------------------------------ #
    pieces = build_workload(spec.workload)
    print(f"dataset: {len(pieces.train)} train / {len(pieces.test)} test "
          f"samples, {len(pieces.parts)} end-systems "
          f"({[len(shard) for shard in pieces.parts]} samples each)")
    print(f"architecture: {pieces.architecture.describe()}")
    split = build_split(spec, pieces)
    print(f"split: end-systems hold {split.label}; smashed "
          f"activation shape {split.smashed_shape}")

    # ------------------------------------------------------------------ #
    # 3. Train synchronously over a simulated star network.
    # ------------------------------------------------------------------ #
    trainer = build_trainer(spec, pieces=pieces)
    history = trainer.train(test_dataset=pieces.test)

    print()
    print(format_table(
        ["epoch", "train_acc", "test_acc", "simulated_time_s"],
        [[record.epoch,
          record.train_accuracy,
          record.test_accuracy if record.test_accuracy is not None else float("nan"),
          record.simulated_time_s]
         for record in history],
        float_format="{:.3f}",
        title="Training progress",
    ))
    print()
    print(f"final test accuracy: {history.final_test_accuracy:.1%}")
    print(f"uplink traffic:      {history.traffic['uplink_megabytes']:.1f} MB")
    print(f"queue fairness:      {history.queue_stats['fairness_index']:.3f}")

    # ------------------------------------------------------------------ #
    # 4. Privacy: what could the server reconstruct from what it received?
    # ------------------------------------------------------------------ #
    probe_images, _ = pieces.test.arrays()
    report = leakage_report(trainer.end_systems[0].model, probe_images[:150])
    print()
    print(format_table(
        ["layer", "pixel_correlation", "reconstruction_nmse"],
        [[entry.layer, entry.correlation, entry.reconstruction_nmse] for entry in report],
        float_format="{:.3f}",
        title="Leakage per client-side layer (higher NMSE = better privacy)",
    ))


if __name__ == "__main__":
    main()
