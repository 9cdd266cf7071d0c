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

Every row trains the spec (by default Table I's: synchronous, ``fifo``,
per-message server updates) on a trainer from
:func:`repro.api.build_trainer`; the row's transform
is the codec of every end-system, so it encodes each activation message
before it ships.  Uplink traffic is the transport log's, framing and
labels included, so the ``none`` row equals Table I's row at the same cut.
Leakage is measured on what end-system 0's codec puts on the wire.

Expected shape: 8-bit quantization is essentially free (large traffic
saving, negligible accuracy change); aggressive sparsification and noise
trade accuracy for traffic/privacy respectively.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..api import JobSpec, MaterializedWorkload, build_trainer, build_workload
from ..core.compression import get_transform
from ..core.privacy import LinearReconstructionAttack
from ..core.trainer import SpatioTemporalTrainer
from ..nn.dtype import default_dtype
from ..utils.logging import get_logger
from .base import ExperimentResult, on_preset

__all__ = ["run_compression", "base_spec", "DEFAULT_TRANSFORMS"]

logger = get_logger("experiments.compression")

#: (label, transform factory kwargs) pairs evaluated by default.
DEFAULT_TRANSFORMS: Sequence[Dict] = (
    {"name": "none"},
    {"name": "uint8"},
    {"name": "topk", "keep_fraction": 0.25},
    {"name": "gaussian_noise", "noise_multiplier": 0.25, "clip_norm": 5.0},
)


def _leakage(trainer: SpatioTemporalTrainer, pieces: MaterializedWorkload) -> float:
    """Reconstruction NMSE of a linear adversary on end-system 0's wire activations."""
    probe = pieces.test.arrays()[0][:200]
    client = trainer.end_systems[0]
    smashed = client.codec.apply(
        client.forward_inference(pieces.normalize(probe))).activations
    half = probe.shape[0] // 2
    attack = LinearReconstructionAttack(ridge=1e-3).fit(smashed[:half], probe[:half])
    return attack.evaluate(smashed[half:], probe[half:])["reconstruction_nmse"]


def base_spec() -> JobSpec:
    """The sweep's job: Table I's, so the ``none`` row is Table I's L1 row."""
    return on_preset(JobSpec(name="compression"), server_batching=False)


def run_compression(
    spec: Optional[JobSpec] = None,
    transforms: Sequence[Dict] = DEFAULT_TRANSFORMS,
) -> ExperimentResult:
    """Sweep cut-layer transforms and report accuracy / traffic / leakage.

    Runs under the float64 dtype policy: the compression ratios reported
    here (and the paper's uplink accounting) are relative to a 64-bit
    float wire format, so the sweep pins that baseline regardless of the
    library's float32 training default.
    """
    spec = spec if spec is not None else base_spec()
    with default_dtype(np.float64):
        pieces = build_workload(spec.workload)
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
            metadata={"workload": spec.to_json_dict(),
                      "client_blocks": spec.workload.client_blocks},
        )

        baseline_megabytes: Optional[float] = None
        for transform_spec in transforms:
            kwargs = dict(transform_spec)
            name = kwargs.pop("name")
            label = name if not kwargs else f"{name}({', '.join(f'{k}={v}' for k, v in kwargs.items())})"
            if name == "gaussian_noise":
                kwargs.setdefault("seed", spec.workload.seed)
            codec = get_transform(name, **kwargs)
            trainer = build_trainer(spec, pieces=pieces)
            for end_system in trainer.end_systems:
                end_system.codec = codec
            history = trainer.train(test_dataset=pieces.test, evaluate_every=10 ** 6)
            accuracy_pct = 100.0 * (history.final_test_accuracy or 0.0)
            megabytes = history.traffic.get("uplink_megabytes", 0.0)
            if baseline_megabytes is None:
                baseline_megabytes = megabytes
            logger.info("compression transform=%s accuracy=%.2f%%", label, accuracy_pct)
            result.add_row([
                label,
                accuracy_pct,
                megabytes,
                megabytes / max(baseline_megabytes, 1e-12),
                _leakage(trainer, pieces),
            ])
    return result
