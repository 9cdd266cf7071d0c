"""Ablation — spatio-temporal split learning vs. the standard alternatives.

The paper frames split learning as the privacy-preserving member of the
federated-learning family.  This experiment puts the proposed framework
side by side with the three natural comparators on the *same* data
partition and training budget:

* **centralized** — all data pooled on the server (non-private upper
  bound; Table I row 1),
* **sequential split** — classic single-client split learning where the
  institutions take turns with one shared client segment (Vepakomma et
  al.),
* **fedavg** — federated averaging, where every client trains a complete
  local model copy and the server averages weights,
* **spatio-temporal** — the paper's proposal.

Reported per method: test accuracy, whether raw data leaves the clients,
the number of parameters a client must host, and the uplink traffic.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..api import JobSpec, build_split, build_trainer, build_workload
from ..baselines.centralized import CentralizedTrainer
from ..baselines.fedavg import FedAvgTrainer
from ..baselines.vanilla_split import SequentialSplitTrainer
from ..core.split import SplitSpec
from ..nn.dtype import get_default_dtype
from ..simnet.link import payload_bytes
from ..utils.logging import get_logger
from .base import ExperimentResult, on_preset

__all__ = ["base_spec", "run_baselines_comparison"]

logger = get_logger("experiments.baselines")


def _client_parameters(split: SplitSpec) -> int:
    """Parameters a single end-system must host under a given method."""
    return split.build_client_segment(seed=0).num_parameters()


def base_spec() -> JobSpec:
    """The comparison's job: the laptop workload at the L1 cut.

    Per-message server updates keep the accuracy comparison against the
    sequential baselines apples-to-apples.
    """
    return on_preset(JobSpec(name="baselines"), server_batching=False)


def run_baselines_comparison(
    spec: Optional[JobSpec] = None,
    methods: Sequence[str] = ("centralized", "sequential_split", "fedavg", "spatio_temporal"),
    fedavg_local_epochs: int = 1,
) -> ExperimentResult:
    """Compare training paradigms on the same partitioned workload."""
    spec = spec if spec is not None else base_spec()
    pieces = build_workload(spec.workload)
    architecture = pieces.architecture
    split = build_split(spec, pieces)
    full_model_parameters = architecture.build(seed=0).num_parameters()
    epochs, batch_size, seed = spec.config.epochs, spec.config.batch_size, spec.config.seed
    # Bytes per value on the wire: activations and weights ship in the
    # dtype the models compute in.
    value_bytes = get_default_dtype().itemsize

    result = ExperimentResult(
        name="Baseline comparison — centralized vs. split variants vs. FedAvg",
        headers=[
            "method",
            "accuracy_pct",
            "raw_data_leaves_client",
            "client_parameters",
            "uplink_megabytes",
        ],
        paper_reference={
            "claim": "split learning attains near-centralized accuracy without sharing raw data",
        },
        metadata={
            "workload": spec.to_json_dict(),
            "client_blocks": spec.workload.client_blocks,
            "full_model_parameters": full_model_parameters,
        },
    )

    normalize = pieces.normalize
    test = pieces.test
    parts = pieces.parts
    train = pieces.train

    if "centralized" in methods:
        trainer = CentralizedTrainer(architecture.build(seed=seed))
        history = trainer.fit(
            train, test_dataset=test, epochs=epochs,
            batch_size=batch_size, transform=normalize, seed=seed,
        )
        images, _ = train.arrays()
        uplink_mb = payload_bytes(images) / 1e6  # raw data upload, once
        result.add_row([
            "centralized",
            100.0 * (history.final_test_accuracy or 0.0),
            "yes",
            0,
            uplink_mb,
        ])

    if "sequential_split" in methods:
        trainer = SequentialSplitTrainer(
            split, parts, batch_size=batch_size, seed=seed, transform=normalize,
        )
        history = trainer.fit(test_dataset=test, epochs=epochs)
        channels, height, width = split.smashed_shape
        # Every batch uploads its smashed activations once per epoch visit.
        samples = sum(len(part) for part in parts)
        uplink_mb = samples * epochs * channels * height * width * value_bytes / 1e6
        result.add_row([
            "sequential_split",
            100.0 * (history.final_test_accuracy or 0.0),
            "no",
            _client_parameters(split),
            uplink_mb,
        ])

    if "fedavg" in methods:
        trainer = FedAvgTrainer(
            architecture, parts, local_epochs=fedavg_local_epochs,
            batch_size=batch_size, seed=seed, transform=normalize,
        )
        history = trainer.fit(test_dataset=test, rounds=epochs)
        # Each round every client uploads a full model copy.
        uplink_mb = epochs * len(parts) * full_model_parameters * value_bytes / 1e6
        result.add_row([
            "fedavg",
            100.0 * (history.final_test_accuracy or 0.0),
            "no",
            full_model_parameters,
            uplink_mb,
        ])

    if "spatio_temporal" in methods:
        history = build_trainer(spec, pieces=pieces).train(
            test_dataset=test, evaluate_every=10 ** 6)
        result.add_row([
            "spatio_temporal",
            100.0 * (history.final_test_accuracy or 0.0),
            "no",
            _client_parameters(split),
            history.traffic.get("uplink_megabytes", 0.0),
        ])

    for row in result.rows:
        logger.info("baselines method=%s accuracy=%.2f%%", row[0], row[1])
    result.metadata["runners"] = sorted(row[0] for row in result.rows)
    return result
