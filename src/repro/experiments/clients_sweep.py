"""Ablation — accuracy vs. number of end-systems M.

The paper's headline claim is that *multiple* end-systems can share one
centralized server ("multiple end-systems are not considered in split
learning research contributions, yet") while keeping near-optimal
accuracy.  This sweep fixes the cut (L1 by default, the paper's main
privacy-preserving configuration) and varies the number of end-systems
the same total dataset is partitioned across.

Because the total data volume is constant, the server segment always sees
the same number of samples; what changes is that each end-system's local
first block is trained on a ``1/M`` fraction of the data.  The expected
shape is a slow decline in accuracy as M grows — the spatial analogue of
Table I's depth tradeoff.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..api import JobSpec, build_trainer, build_workload
from ..utils.logging import get_logger
from .base import ExperimentResult, on_preset, respec

__all__ = ["base_spec", "run_clients_sweep"]

logger = get_logger("experiments.clients_sweep")


def base_spec() -> JobSpec:
    """The sweep's job: the laptop workload at the L1 cut, Table I's config.

    Per-message server updates keep accuracy comparable across client
    counts.
    """
    return on_preset(JobSpec(name="clients_sweep"), server_batching=False)


def run_clients_sweep(
    spec: Optional[JobSpec] = None,
    num_end_systems: Sequence[int] = (1, 2, 4, 8),
) -> ExperimentResult:
    """Sweep the number of end-systems at ``spec``'s cut."""
    spec = spec if spec is not None else base_spec()
    result = ExperimentResult(
        name="Ablation — accuracy vs. number of end-systems (fixed cut)",
        headers=[
            "num_end_systems",
            "client_blocks",
            "accuracy_pct",
            "mean_per_system_accuracy_pct",
            "min_per_system_accuracy_pct",
            "samples_per_end_system",
            "uplink_megabytes",
        ],
        paper_reference={
            "claim": "multiple end-systems sharing one server retain near-optimal accuracy",
        },
        metadata={
            "workload": spec.to_json_dict(),
            "client_blocks": spec.workload.client_blocks,
            "queue_policy": spec.config.queue_policy,
        },
    )

    for count in num_end_systems:
        scaled = respec(spec, num_end_systems=count)
        pieces = build_workload(scaled.workload)
        history = build_trainer(scaled, pieces=pieces).train(
            test_dataset=pieces.test, evaluate_every=10 ** 6)
        per_system = list((history.per_system_accuracy or {}).values())
        accuracy_pct = 100.0 * (history.final_test_accuracy or 0.0)
        logger.info("clients_sweep M=%d accuracy=%.2f%%", count, accuracy_pct)
        result.add_row([
            count,
            spec.workload.client_blocks,
            accuracy_pct,
            100.0 * (sum(per_system) / len(per_system)) if per_system else accuracy_pct,
            100.0 * min(per_system) if per_system else accuracy_pct,
            min(len(part) for part in pieces.parts),
            history.traffic.get("uplink_megabytes", 0.0),
        ])
    return result
