"""Extension ablation — compressing or perturbing the smashed activations.

The paper ships raw float activations from every end-system to the server.
This ablation (beyond the paper's evaluation; README.md's experiment list
names it ``compression``) asks what happens
to the three quantities the system cares about — accuracy, uplink traffic
and privacy leakage — when the cut-layer traffic is

* quantized to 8 bits (:class:`~repro.core.compression.Uint8Quantizer`),
* sparsified to its top-k entries (:class:`~repro.core.compression.TopKSparsifier`), or
* clipped and noised DP-style (:class:`~repro.core.compression.GaussianNoisePerturbation`),

compared against the paper's uncompressed baseline.

Expected shape: 8-bit quantization is essentially free (large traffic
saving, negligible accuracy change); aggressive sparsification and noise
trade accuracy for traffic/privacy respectively.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..core.compression import ActivationTransform, get_transform
from ..core.config import TrainingConfig
from ..core.end_system import EndSystem
from ..core.privacy import LinearReconstructionAttack
from ..core.server import CentralServer
from ..core.split import SplitSpec
from ..data.loader import DataLoader
from ..nn.metrics import MetricTracker, accuracy
from ..utils.logging import get_logger
from ..utils.rng import SeedSequence
from .base import ExperimentResult, WorkloadSpec, build_workload

__all__ = ["run_compression", "DEFAULT_TRANSFORMS"]

logger = get_logger("experiments.compression")

#: (label, transform factory kwargs) pairs evaluated by default.
DEFAULT_TRANSFORMS: Sequence[Dict] = (
    {"name": "none"},
    {"name": "uint8"},
    {"name": "topk", "keep_fraction": 0.25},
    {"name": "gaussian_noise", "noise_multiplier": 0.25, "clip_norm": 5.0},
)


def _train_with_transform(
    workload: WorkloadSpec,
    pieces: Dict,
    spec: SplitSpec,
    transform: ActivationTransform,
) -> Dict[str, float]:
    """Train one split deployment where every uplink passes through ``transform``."""
    config = TrainingConfig(epochs=workload.epochs, batch_size=workload.batch_size,
                            seed=workload.seed, server_batching=False)
    seeds = SeedSequence(workload.seed)
    normalize = pieces["normalize"]
    end_systems = []
    for system_id, part in enumerate(pieces["parts"]):
        loader = DataLoader(part, batch_size=config.batch_size, shuffle=True,
                            transform=normalize, seed=config.seed + system_id)
        end_systems.append(EndSystem(
            system_id, loader, spec,
            optimizer_kwargs=config.client_optimizer_kwargs,
            seed=int(seeds.generator(f"client-{system_id}").integers(0, 2 ** 31)),
        ))
    server = CentralServer(
        spec, optimizer_kwargs=config.server_optimizer_kwargs,
        seed=int(seeds.generator("server").integers(0, 2 ** 31)),
    )

    uplink_bytes = 0
    tracker = MetricTracker()
    for epoch in range(config.epochs):
        iterators = {system.system_id: system.batches(epoch) for system in end_systems}
        active = set(iterators)
        while active:
            for system in end_systems:
                if system.system_id not in active:
                    continue
                try:
                    images, labels = next(iterators[system.system_id])
                except StopIteration:
                    active.discard(system.system_id)
                    continue
                message = system.forward_batch(images, labels)
                result = transform.apply(message.activations)
                message.activations = result.activations
                uplink_bytes += result.wire_bytes + message.labels.nbytes
                gradient = server.process(message)
                system.apply_gradient(gradient)
                tracker.update({"loss": gradient.loss, "accuracy": gradient.accuracy},
                               count=message.batch_size)

    # Evaluation: mean accuracy over end-system heads, as the trainer does.
    test_images, test_labels = pieces["test"].arrays()
    test_images = normalize(test_images)
    accuracies = []
    for system in end_systems:
        logits = server.predict(system.forward_inference(test_images))
        accuracies.append(accuracy(logits, test_labels))

    # Leakage: how well can a linear adversary invert what actually crossed
    # the wire (i.e. the transformed activations of end-system 0)?
    probe_raw, _ = pieces["test"].arrays()
    probe = probe_raw[:200]
    smashed = transform.apply(end_systems[0].forward_inference(normalize(probe))).activations
    split_index = probe.shape[0] // 2
    attack = LinearReconstructionAttack(ridge=1e-3).fit(smashed[:split_index], probe[:split_index])
    leakage = attack.evaluate(smashed[split_index:], probe[split_index:])

    return {
        "accuracy": float(np.mean(accuracies)),
        "train_accuracy": tracker.averages().get("accuracy", 0.0),
        "uplink_megabytes": uplink_bytes / 1e6,
        "reconstruction_nmse": leakage["reconstruction_nmse"],
    }


def run_compression(
    workload: Optional[WorkloadSpec] = None,
    transforms: Sequence[Dict] = DEFAULT_TRANSFORMS,
    client_blocks: int = 1,
) -> ExperimentResult:
    """Sweep cut-layer transforms and report accuracy / traffic / leakage.

    Runs under the float64 dtype policy: the compression ratios reported
    here (and the paper's uplink accounting) are relative to a 64-bit
    float wire format, so the sweep pins that baseline regardless of the
    library's float32 training default.
    """
    from ..nn.dtype import default_dtype

    with default_dtype(np.float64):
        return _run_compression_sweep(workload, transforms, client_blocks)


def _run_compression_sweep(
    workload: Optional[WorkloadSpec],
    transforms: Sequence[Dict],
    client_blocks: int,
) -> ExperimentResult:
    workload = workload if workload is not None else WorkloadSpec.laptop()
    pieces = build_workload(workload)
    spec = SplitSpec(pieces["architecture"], client_blocks=client_blocks)

    result = ExperimentResult(
        name="Extension — compressing / perturbing the smashed activations",
        headers=[
            "transform",
            "accuracy_pct",
            "uplink_megabytes",
            "uplink_vs_baseline",
            "reconstruction_nmse",
        ],
        paper_reference={
            "claim": "the paper ships raw activations; this ablation explores the "
                     "accuracy / traffic / privacy trade-off of compressing them",
        },
        metadata={"workload": workload.__dict__.copy(), "client_blocks": client_blocks},
    )

    baseline_megabytes: Optional[float] = None
    for transform_spec in transforms:
        kwargs = dict(transform_spec)
        name = kwargs.pop("name")
        transform = get_transform(name, **kwargs)
        metrics = _train_with_transform(workload, pieces, spec, transform)
        if baseline_megabytes is None:
            baseline_megabytes = metrics["uplink_megabytes"]
        label = name if not kwargs else f"{name}({', '.join(f'{k}={v}' for k, v in kwargs.items())})"
        logger.info("compression transform=%s accuracy=%.2f%%", label,
                    100.0 * metrics["accuracy"])
        result.add_row([
            label,
            100.0 * metrics["accuracy"],
            metrics["uplink_megabytes"],
            metrics["uplink_megabytes"] / max(baseline_megabytes, 1e-12),
            metrics["reconstruction_nmse"],
        ])
    return result
