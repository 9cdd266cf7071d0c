"""Shared plumbing for the experiment harness.

Every experiment (one per paper table/figure plus the ablations) is a
sweep over one :class:`~repro.api.JobSpec`, its *base spec*: the module's
``base_spec()`` names the canonical workload and training configuration,
each row is that spec with the row's axis fields replaced
(:func:`respec`), and every trainer comes from
:func:`repro.api.build_trainer`.  Runners take ``spec`` (default: their
base spec) and emit an :class:`ExperimentResult` — the rows in the layout
the paper uses, with the base spec's JSON under ``metadata["workload"]``.

:data:`PRESETS` are the two workloads a flagged CLI run starts from
(:func:`on_preset`): ``"laptop"``, a scaled-down but structurally
identical configuration that finishes in seconds (the test-suite's and
most base specs'), and ``"paper"``, the full Fig.-3 CNN on 32x32 images.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, List, Optional, Sequence

from ..api.jobspec import JobSpec, JobWorkload
from ..utils.tables import format_table

__all__ = ["PRESETS", "ExperimentResult", "on_preset", "respec"]

_WORKLOAD_FIELDS = frozenset(field_info.name for field_info in fields(JobWorkload))

_LAPTOP: Dict[str, Any] = {
    name: value for name, value in asdict(JobWorkload()).items() if name != "client_blocks"}

#: Per scale, every field a preset sets: the workload section (the cut
#: excepted) plus the training budget and seed.
PRESETS: Dict[str, Dict[str, Any]] = {
    "laptop": {**_LAPTOP, "epochs": 6, "batch_size": 32},
    "paper": {**_LAPTOP, "scale": "paper", "num_samples": 6000, "epochs": 15,
              "batch_size": 64},
}


def respec(spec: JobSpec, **changes: Any) -> JobSpec:
    """``spec`` with each change set on the section that declares it.

    Workload fields go to ``spec.workload`` and every other name to
    ``spec.config`` (an unknown name is a ``TypeError``); ``seed`` sets
    both, so the dataset, partition and training streams move together.
    """
    workload = {name: value for name, value in changes.items() if name in _WORKLOAD_FIELDS}
    config = {name: value for name, value in changes.items()
              if name not in _WORKLOAD_FIELDS or name == "seed"}
    return replace(spec, workload=replace(spec.workload, **workload),
                   config=replace(spec.config, **config))


def on_preset(spec: JobSpec, scale: str = "laptop", **changes: Any) -> JobSpec:
    """``spec`` on the ``scale`` preset, then ``changes``: what a flagged CLI run trains.

    The cut and every other configuration field stay ``spec``'s.
    """
    return respec(spec, **{**PRESETS[scale], **changes})


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
