"""The one typed facade between a :class:`JobSpec` and a running trainer.

Every consumer — the run-server worker subprocess, the experiments CLI,
the examples and direct-Python users — materializes workloads and builds
trainers through this module, so "what does this JobSpec actually run"
has exactly one answer.

The materialization is a pure function of the workload description:
synthetic dataset seeded off ``workload.seed``, deterministic
train/test split, deterministic partitioning.  Two processes
materializing the same spec hold bit-identical datasets, which is the
property that lets a worker crash, a *different* worker process resume
from the checkpoint store, and the result still match an uninterrupted
twin at 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

from ..core.models import CNNArchitecture, paper_cnn_architecture, tiny_cnn_architecture
from ..core.split import SplitSpec
from ..core.trainer import SpatioTemporalTrainer
from ..data.datasets import SyntheticCIFAR10, train_test_split
from ..data.partition import get_partitioner
from ..data.transforms import Normalize
from ..simnet.topology import GeoTopology
from .jobspec import JobSpec, JobWorkload

__all__ = [
    "MaterializedWorkload",
    "build_workload",
    "build_split",
    "build_trainer",
    "resume_trainer",
    "run_job",
    "scale_architecture",
    "scale_image_size",
]


@dataclass
class MaterializedWorkload:
    """A workload turned into live objects, ready to train on."""

    dataset: Any
    train: Any
    test: Any
    parts: Any
    architecture: Any
    normalize: Any


def scale_image_size(scale: str) -> int:
    """Input image side length of a workload scale (``"paper"``/``"laptop"``)."""
    return 32 if scale == "paper" else 16


def scale_architecture(scale: str) -> CNNArchitecture:
    """The CNN of a workload scale: Fig. 3's, or its 3-block laptop twin."""
    if scale == "paper":
        return paper_cnn_architecture()
    return tiny_cnn_architecture(image_size=scale_image_size(scale), num_blocks=3,
                                 base_filters=8, dense_units=64)


def build_workload(workload: JobWorkload) -> MaterializedWorkload:
    """Materialize a workload description into datasets, parts and model.

    The one implementation behind the public API, the run-server worker
    and the experiment harness.  The cut is not materialized: the same
    pieces serve every ``client_blocks`` (see :func:`build_split`).
    """
    dataset = SyntheticCIFAR10(
        num_samples=workload.num_samples,
        image_size=scale_image_size(workload.scale),
        seed=workload.seed,
        pixel_noise=0.15,
        deformation_noise=0.3,
    )
    train, test = train_test_split(
        dataset, test_fraction=workload.test_fraction, seed=workload.seed)
    partitioner = get_partitioner(
        workload.partition, workload.num_end_systems, seed=workload.seed,
        **workload.partition_kwargs)
    parts = partitioner.partition(train)
    architecture = scale_architecture(workload.scale)
    normalize = Normalize(mean=[0.5, 0.5, 0.5], std=[0.5, 0.5, 0.5])
    return MaterializedWorkload(
        dataset=dataset,
        train=train,
        test=test,
        parts=parts,
        architecture=architecture,
        normalize=normalize,
    )


def build_split(spec: JobSpec, pieces: MaterializedWorkload) -> SplitSpec:
    """The cut ``spec`` names (``workload.client_blocks``) on ``pieces``' model."""
    return SplitSpec(pieces.architecture, client_blocks=spec.workload.client_blocks)


def build_trainer(spec: JobSpec, *,
                  checkpoint_store: Optional[Any] = None,
                  checkpoint_dir: Optional[str] = None,
                  pieces: Optional[MaterializedWorkload] = None,
                  topology: Optional[GeoTopology] = None,
                  ) -> SpatioTemporalTrainer:
    """Construct a fresh trainer for ``spec``.

    ``checkpoint_dir`` overrides ``spec.config.checkpoint_dir`` (the
    run-server redirects it into the job directory); ``checkpoint_store``
    wins over both when given.  Pass ``pieces`` to reuse an
    already-materialized workload instead of rebuilding the dataset; the
    cut always comes from ``spec``.  ``topology`` is the network the
    trainer runs on (default: the trainer's uniform star).
    """
    config = spec.config
    if checkpoint_dir is not None:
        config = replace(config, checkpoint_dir=checkpoint_dir)
    if pieces is None:
        pieces = build_workload(spec.workload)
    return SpatioTemporalTrainer(
        build_split(spec, pieces),
        pieces.parts,
        config=config,
        topology=topology,
        train_transform=pieces.normalize,
        checkpoint_store=checkpoint_store,
    )


def resume_trainer(spec: JobSpec, store: Any, *,
                   pieces: Optional[MaterializedWorkload] = None,
                   ) -> SpatioTemporalTrainer:
    """Rebuild a trainer from ``store``'s newest intact run checkpoint.

    The mutable state (weights, optimizer moments, RNG streams, clock,
    counters — and the config itself) comes from the checkpoint; the
    spec supplies only the immutable inputs the store cannot hold, the
    architecture and the datasets.  Replay-exact per ``tests/state``.
    """
    if pieces is None:
        pieces = build_workload(spec.workload)
    return SpatioTemporalTrainer.resume_from_store(
        store,
        build_split(spec, pieces),
        pieces.parts,
        train_transform=pieces.normalize,
    )


def run_job(spec: JobSpec, *, epochs: Optional[int] = None) -> Any:
    """Run a JobSpec to completion in-process; returns the history.

    The direct-Python path — same facade as the server's worker, minus
    the process boundary.  ``epochs`` overrides ``spec.config.epochs``.
    """
    pieces = build_workload(spec.workload)
    trainer = build_trainer(spec, pieces=pieces)
    return trainer.train(test_dataset=pieces.test if spec.evaluate else None,
                         epochs=epochs)
