"""Figure 4 — what the server can see of the raw training images.

The paper's Fig. 4 shows three image captures for one CIFAR-10 sample:

* (a) the original image,
* (b) the activation after the ``Conv2D`` of block ``L1`` — blurred but
  "may be recognized", and
* (c) the activation after the complete ``L1`` block (Conv2D +
  MaxPooling2D) — which "can definitely hide original images".

This experiment quantifies that visual argument.  For the raw input and
for every layer of the end-system segment it reports

* the pixel correlation between the rendered activation (channel mean,
  the direct analogue of the figure) and the original image, and
* the quality (NMSE / PSNR / SSIM) a ridge-regression inversion attack
  achieves when reconstructing the original images from the activations.

The expected shape is monotone: the post-pooling activation leaks
markedly less than the pre-pooling activation, which leaks less than the
input itself.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..api import JobSpec, build_trainer, build_workload
from ..core.privacy import leakage_report
from ..utils.logging import get_logger
from .base import ExperimentResult, on_preset, respec

__all__ = ["run_figure4", "base_spec", "PAPER_FIGURE4"]

logger = get_logger("experiments.figure4")

#: The paper's qualitative claims for Fig. 4, for reference in reports.
PAPER_FIGURE4: Dict[str, str] = {
    "input": "original image (fully visible)",
    "L1_conv": "blurred but may be recognized",
    "L1_pool": "definitely hides the original image",
}


def base_spec() -> JobSpec:
    """The probe's job: the laptop workload, the figure's L1 cut."""
    return on_preset(JobSpec(name="figure4"), server_batching=False)


def run_figure4(
    spec: Optional[JobSpec] = None,
    num_probe_images: int = 200,
    train_first: bool = True,
    attack_ridge: float = 1e-3,
) -> ExperimentResult:
    """Reproduce Fig. 4 as a per-layer leakage table.

    Parameters
    ----------
    spec:
        The probed job; defaults to :func:`base_spec`.  Its
        ``workload.client_blocks`` is how many blocks the probed
        end-system holds (1 reproduces the figure; larger values extend
        it to deeper cuts).
    num_probe_images:
        How many raw images are pushed through the client segment for the
        correlation / reconstruction analysis.
    train_first:
        When ``True`` the split model is briefly trained (a third of the
        spec's epochs, at least one) before probing, so the activations
        come from realistic (not randomly initialized) filters; disable
        for a faster, initialization-only probe.
    """
    spec = spec if spec is not None else base_spec()
    if spec.workload.client_blocks < 1:
        raise ValueError("figure 4 requires at least one client block")
    pieces = build_workload(spec.workload)
    trainer = build_trainer(respec(spec, epochs=max(1, spec.config.epochs // 3)),
                            pieces=pieces)
    if train_first:
        trainer.train(test_dataset=None)

    # Probe the first end-system's segment with raw (un-normalized) images:
    # Fig. 4 is about what crosses the wire, and the wire carries the
    # activations of whatever the client feeds its own layers.
    images, _ = pieces.test.arrays()
    probe = images[: min(num_probe_images, images.shape[0])]
    # Correlation/reconstruction targets are the original [0,1] images.
    report = leakage_report(trainer.end_systems[0].model, probe, ridge=attack_ridge)

    result = ExperimentResult(
        name="Figure 4 — privacy of smashed activations (leakage per layer)",
        headers=[
            "layer",
            "activation_shape",
            "pixel_correlation",
            "reconstruction_nmse",
            "reconstruction_psnr_db",
            "reconstruction_ssim",
            "paper_observation",
        ],
        paper_reference={"figure": "4", "observations": dict(PAPER_FIGURE4)},
        metadata={
            "workload": spec.to_json_dict(),
            "client_blocks": spec.workload.client_blocks,
            "trained": train_first,
            "num_probe_images": int(probe.shape[0]),
        },
    )
    for entry in report:
        result.add_row([
            entry.layer,
            "x".join(str(dim) for dim in entry.activation_shape),
            entry.correlation,
            entry.reconstruction_nmse,
            entry.reconstruction_psnr,
            entry.reconstruction_ssim,
            PAPER_FIGURE4.get(entry.layer, ""),
        ])
        logger.info(
            "figure4 layer=%s correlation=%.3f nmse=%.3f",
            entry.layer, entry.correlation, entry.reconstruction_nmse,
        )
    return result
