"""Table I — accuracy vs. number of layers at the end-systems.

The paper's Table I reports test accuracy of the Fig.-3 CNN on CIFAR-10
as the blocks held by the end-systems grow:

==========================================  =========
Layers at end-systems                        Accuracy
==========================================  =========
Nothing (All layers are in the server)       71.09 %
L1                                           68.18 %
L1, L2                                       67.92 %
L1, L2, L3                                   66.00 %
L1, L2, L3, L4                               65.66 %
==========================================  =========

The claim is that the degradation is small (2.91 % for the privacy-
preserving L1 cut, 5.43 % in the worst case) and grows with the number of
client-side blocks — the tradeoff discussed in Section II.  This module
re-runs that sweep on the synthetic CIFAR-10-like workload and reports the
same rows, plus the degradation relative to the centralized row.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..api import JobSpec, build_trainer, build_workload
from ..utils.logging import get_logger
from .base import ExperimentResult, on_preset, respec

__all__ = ["PAPER_TABLE1", "base_spec", "run_table1"]

logger = get_logger("experiments.table1")

#: Accuracy values reported in the paper's Table I, keyed by client blocks.
PAPER_TABLE1: Dict[int, float] = {
    0: 71.09,
    1: 68.18,
    2: 67.92,
    3: 66.00,
    4: 65.66,
}


def base_spec() -> JobSpec:
    """Table I's job: the laptop workload, synchronous, ``fifo``.

    The paper's per-message server updates (``server_batching=False``):
    batched draining changes the step count per epoch.
    """
    return on_preset(JobSpec(name="table1"), server_batching=False)


def run_table1(
    spec: Optional[JobSpec] = None,
    client_block_range: Optional[List[int]] = None,
) -> ExperimentResult:
    """Reproduce Table I: sweep the cut depth and measure test accuracy.

    Parameters
    ----------
    spec:
        The job every row trains, at the row's cut; defaults to
        :func:`base_spec`.
    client_block_range:
        Which cuts to evaluate.  Defaults to ``0 .. num_blocks - 1`` (the
        paper stops one block short of moving the entire feature extractor
        to the end-systems).
    """
    spec = spec if spec is not None else base_spec()
    pieces = build_workload(spec.workload)
    architecture = pieces.architecture
    if client_block_range is None:
        client_block_range = list(range(architecture.num_blocks))

    result = ExperimentResult(
        name="Table I — accuracy vs. layers at end-systems",
        headers=[
            "layers_at_end_systems",
            "client_blocks",
            "accuracy_pct",
            "degradation_pct",
            "paper_accuracy_pct",
            "uplink_megabytes",
            "simulated_time_s",
        ],
        paper_reference={"table": "I", "values_pct": dict(PAPER_TABLE1)},
        metadata={
            "workload": spec.to_json_dict(),
            "queue_policy": spec.config.queue_policy,
            "architecture": architecture.describe(),
        },
    )

    baseline_accuracy: Optional[float] = None
    for client_blocks in client_block_range:
        trainer = build_trainer(respec(spec, client_blocks=client_blocks), pieces=pieces)
        history = trainer.train(test_dataset=pieces.test, evaluate_every=10 ** 6)
        accuracy_pct = 100.0 * (history.final_test_accuracy or 0.0)
        if baseline_accuracy is None:
            baseline_accuracy = accuracy_pct
        degradation = baseline_accuracy - accuracy_pct
        logger.info("table1 cut=%d accuracy=%.2f%%", client_blocks, accuracy_pct)
        result.add_row([
            trainer.split_spec.label,
            client_blocks,
            accuracy_pct,
            degradation,
            PAPER_TABLE1.get(client_blocks, float("nan")),
            history.traffic.get("uplink_megabytes", 0.0),
            history.total_simulated_time,
        ])
    return result
