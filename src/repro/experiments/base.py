"""Shared plumbing for the experiment harness.

Every experiment (one per paper table/figure plus the ablations) follows
the same recipe: build a workload (dataset + partition + architecture),
run one or more training configurations, and emit a table of rows in the
same layout the paper uses.  :class:`ExperimentResult` is that table plus
metadata; :class:`WorkloadSpec` is the workload description with two
presets — ``"paper"`` (the full Fig.-3 CNN on 32x32 images) and
``"laptop"`` (a scaled-down but structurally identical configuration that
finishes in seconds and is used by the test-suite and the default
benchmark runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


from ..api.jobspec import JobWorkload
from ..api.runtime import build_workload as _materialize_workload
from ..api.runtime import scale_architecture, scale_image_size
from ..core.models import CNNArchitecture
from ..utils.tables import format_table

__all__ = ["WorkloadSpec", "ExperimentResult", "build_workload"]


@dataclass
class WorkloadSpec:
    """Description of the dataset / partition / architecture an experiment uses.

    Parameters
    ----------
    scale:
        ``"paper"`` for the full Fig.-3 configuration (5 blocks, 32x32
        images) or ``"laptop"`` for the scaled-down configuration used by
        tests and quick benchmark runs.
    num_samples:
        Total synthetic dataset size (train + test).
    num_end_systems:
        Number of end-systems M the data is partitioned across.
    partition:
        Partitioner name (``iid``, ``dirichlet``, ``label_shard``,
        ``quantity_skew``).
    partition_kwargs:
        Extra arguments for the partitioner (e.g. ``{"alpha": 0.3}``).
    epochs / batch_size:
        Training budget shared by every configuration in the experiment.
    seed:
        Master seed.
    """

    scale: str = "laptop"
    num_samples: int = 1200
    num_end_systems: int = 4
    partition: str = "iid"
    partition_kwargs: Dict[str, float] = field(default_factory=dict)
    test_fraction: float = 0.25
    epochs: int = 6
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scale not in {"paper", "laptop"}:
            raise ValueError(f"scale must be 'paper' or 'laptop', got {self.scale!r}")
        if self.num_end_systems <= 0:
            raise ValueError("num_end_systems must be positive")
        if self.num_samples < 10 * self.num_end_systems:
            raise ValueError("num_samples is too small for the requested number of end-systems")

    @property
    def image_size(self) -> int:
        """Input image side length for this scale."""
        return scale_image_size(self.scale)

    def architecture(self) -> CNNArchitecture:
        """CNN architecture matching the scale."""
        return scale_architecture(self.scale)

    @classmethod
    def paper(cls, **overrides) -> "WorkloadSpec":
        """The full-size workload (minutes of compute on a laptop)."""
        defaults = dict(scale="paper", num_samples=6000, epochs=15, batch_size=64)
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def laptop(cls, **overrides) -> "WorkloadSpec":
        """The quick workload used by tests and default benchmark runs."""
        return cls(**overrides)

    def to_job_workload(self, client_blocks: int = 1) -> JobWorkload:
        """The public-API equivalent of this workload description.

        ``epochs`` and ``batch_size`` live on the experiment side (they
        belong to ``TrainingConfig`` in the public schema); everything
        else maps one-to-one onto :class:`repro.api.JobWorkload`.
        """
        return JobWorkload(
            scale=self.scale,
            num_samples=self.num_samples,
            num_end_systems=self.num_end_systems,
            partition=self.partition,
            partition_kwargs=dict(self.partition_kwargs),
            test_fraction=self.test_fraction,
            client_blocks=client_blocks,
            seed=self.seed,
        )


def build_workload(spec: WorkloadSpec) -> Dict[str, object]:
    """Materialize a workload: dataset splits, per-end-system shards and transforms.

    Compatibility shim over :func:`repro.api.build_workload` — the single
    materialization implementation now lives in the public API so the
    experiment harness, the run-server worker and direct-Python users all
    build bit-identical deployments from the same description.  Returns
    the historical dictionary shape with keys ``train``, ``test``,
    ``parts`` (list of per-end-system subsets), ``architecture`` and
    ``normalize``.
    """
    pieces = _materialize_workload(spec.to_job_workload())
    return {
        "dataset": pieces.dataset,
        "train": pieces.train,
        "test": pieces.test,
        "parts": pieces.parts,
        "architecture": pieces.architecture,
        "normalize": pieces.normalize,
    }


@dataclass
class ExperimentResult:
    """Tabular output of one experiment, in the paper's row layout."""

    name: str
    headers: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)
    paper_reference: Optional[Dict[str, object]] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    def add_row(self, row: Sequence[object]) -> None:
        """Append one result row (must match ``headers`` in length)."""
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells but the experiment defines "
                f"{len(self.headers)} headers"
            )
        self.rows.append(list(row))

    def to_table(self, float_format: str = "{:.2f}") -> str:
        """Render the result as an aligned plain-text table."""
        return format_table(self.headers, self.rows, float_format=float_format,
                            title=self.name)

    def column(self, header: str) -> List[object]:
        """Extract one column by header name."""
        try:
            index = list(self.headers).index(header)
        except ValueError:
            raise KeyError(f"no column named {header!r}; headers: {list(self.headers)}") from None
        return [row[index] for row in self.rows]

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation of the full result."""
        return {
            "name": self.name,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "paper_reference": self.paper_reference,
            "metadata": self.metadata,
        }
