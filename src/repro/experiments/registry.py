"""Registry mapping experiment names to their runners.

The registry is what the CLI (``repro-experiments``) and the benchmark
harness iterate over; adding a new experiment means registering its
runner and base spec here with the paper artefact it reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..api import JobSpec
from . import (baselines_comparison, chaos_matrix, clients_sweep, compression, figure4,
               queue_congestion, server_failover, server_sharding, staleness, table1)
from .base import ExperimentResult

__all__ = ["ExperimentEntry", "REGISTRY", "list_experiments", "get_experiment", "run_experiment"]


@dataclass(frozen=True)
class ExperimentEntry:
    """One registered experiment."""

    name: str
    paper_artifact: str
    description: str
    runner: Callable[..., ExperimentResult]
    #: The job the runner sweeps when it is given no ``spec``.
    base_spec: Callable[[], JobSpec]


REGISTRY: Dict[str, ExperimentEntry] = {
    "table1": ExperimentEntry(
        name="table1",
        paper_artifact="Table I",
        description="Test accuracy vs. number of CNN blocks held by the end-systems.",
        runner=table1.run_table1,
        base_spec=table1.base_spec,
    ),
    "figure4": ExperimentEntry(
        name="figure4",
        paper_artifact="Figure 4",
        description="Privacy of smashed activations: per-layer leakage and reconstruction attack.",
        runner=figure4.run_figure4,
        base_spec=figure4.base_spec,
    ),
    "staleness": ExperimentEntry(
        name="staleness",
        paper_artifact="Figure 2 (queue discussion)",
        description="Queue scheduling ablation under heterogeneous geo-distributed latencies.",
        runner=staleness.run_staleness,
        base_spec=staleness.base_spec,
    ),
    "clients_sweep": ExperimentEntry(
        name="clients_sweep",
        paper_artifact="Multiple end-systems claim",
        description="Accuracy vs. number of end-systems at a fixed cut.",
        runner=clients_sweep.run_clients_sweep,
        base_spec=clients_sweep.base_spec,
    ),
    "baselines": ExperimentEntry(
        name="baselines",
        paper_artifact="Section I positioning",
        description="Spatio-temporal split learning vs. centralized, sequential split and FedAvg.",
        runner=baselines_comparison.run_baselines_comparison,
        base_spec=baselines_comparison.base_spec,
    ),
    "queue_congestion": ExperimentEntry(
        name="queue_congestion",
        paper_artifact="Figure 2 (bounded queue)",
        description="Bounded scheduling queues under a 100+ client star: capacity x backpressure x policy.",
        runner=queue_congestion.run_queue_congestion,
        base_spec=queue_congestion.base_spec,
    ),
    "server_sharding": ExperimentEntry(
        name="server_sharding",
        paper_artifact="Fig. 2 architecture (scaling extension)",
        description="Sharded multi-server deployment: accuracy and completion time "
                    "vs. shard count under a 100+ client heterogeneous star.",
        runner=server_sharding.run_server_sharding,
        base_spec=server_sharding.base_spec,
    ),
    "server_failover": ExperimentEntry(
        name="server_failover",
        paper_artifact="Dependability claim (Sec. I) — failover extension",
        description="Shard failover under churn: MTBF x checkpoint interval x "
                    "failover policy x sync mode on a sharded heterogeneous "
                    "star, reporting achieved RPO vs. checkpoint overhead.",
        runner=server_failover.run_server_failover,
        base_spec=server_failover.base_spec,
    ),
    "chaos_matrix": ExperimentEntry(
        name="chaos_matrix",
        paper_artifact="Dependability claim (Sec. I) — lossy-network extension",
        description="Fault regimes (loss, corruption, duplication, reordering, "
                    "flaps, partitions, stragglers) x reliable delivery on a "
                    "sharded star, with the drop-accounting balance enforced "
                    "per cell.",
        runner=chaos_matrix.run_chaos_matrix,
        base_spec=chaos_matrix.base_spec,
    ),
    "compression": ExperimentEntry(
        name="compression",
        paper_artifact="Extension (future work)",
        description="Accuracy / traffic / leakage trade-off of compressing or noising the smashed activations.",
        runner=compression.run_compression,
        base_spec=compression.base_spec,
    ),
}


def list_experiments() -> List[ExperimentEntry]:
    """All registered experiments in a stable order."""
    return [REGISTRY[name] for name in sorted(REGISTRY)]


def get_experiment(name: str) -> ExperimentEntry:
    """Look up one experiment by name."""
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown experiment {name!r}; known experiments: {known}") from None


def run_experiment(name: str, spec: Optional[JobSpec] = None,
                   **kwargs) -> ExperimentResult:
    """Run a registered experiment on ``spec`` (default: its base spec)."""
    return get_experiment(name).runner(spec=spec, **kwargs)
