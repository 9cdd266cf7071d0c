"""The versioned public job schema: ``JobSpec`` = workload + config.

A JobSpec is the *complete*, self-contained description of a training
job — everything a worker process needs to rebuild the deployment from
nothing: the synthetic workload (dataset size, partitioning, CNN
architecture scale, split cut) and the full
:class:`~repro.core.config.TrainingConfig`.  It is what ``POST
/v1/jobs`` accepts, what the worker reads back from disk, and what
direct-Python users hand to :func:`repro.api.run_job`.

Three design rules, enforced here:

* **Versioned.**  Every payload carries ``schema_version`` (and the
  nested config carries its own); readers reject versions newer than
  they understand instead of misreading them.
* **Strict.**  Unknown keys are rejected with their names — a typo'd
  knob must fail submission, not silently train with defaults.
* **Round-trip exact.**  ``JobSpec.from_json_dict(spec.to_json_dict())``
  reconstructs an equal spec, through JSON, with every value revalidated
  by the same ``__post_init__`` validators direct construction uses.
  The golden fixture in ``tests/api`` pins the serialized form so any
  schema drift is a reviewed diff.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Mapping

from ..core.config import TrainingConfig

__all__ = ["JOBSPEC_SCHEMA_VERSION", "JobWorkload", "JobSpec"]

#: Version of the JobSpec JSON schema (the envelope; the nested config
#: payload is versioned independently by ``CONFIG_SCHEMA_VERSION``).
JOBSPEC_SCHEMA_VERSION = 1

#: Workload presets: image side length and architecture knobs per scale.
_SCALES = ("laptop", "paper")


def _reject_unknown_keys(payload: Mapping[str, Any], known: set,
                         what: str) -> None:
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValueError(
            f"unknown {what} keys: {', '.join(unknown)} "
            "(schema is strict; remove or rename them)"
        )


@dataclass
class JobWorkload:
    """Deterministic description of a job's dataset, partition and model.

    The synthetic dataset, its partition, the CNN of ``scale`` and the
    split cut, so a JobSpec fully determines the deployment (the
    experiment harness describes its runs with the same class).
    Everything is derived from ``seed`` — two workers
    materializing the same workload build bit-identical datasets, which
    is what makes crash-resumed jobs replay-exact.
    """

    scale: str = "laptop"
    num_samples: int = 1200
    num_end_systems: int = 4
    partition: str = "iid"
    partition_kwargs: Dict[str, float] = field(default_factory=dict)
    test_fraction: float = 0.25
    client_blocks: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scale not in _SCALES:
            raise ValueError(
                f"scale must be one of {', '.join(_SCALES)}, got {self.scale!r}")
        if self.num_end_systems <= 0:
            raise ValueError("num_end_systems must be positive")
        if self.num_samples < 10 * self.num_end_systems:
            raise ValueError(
                "num_samples is too small for the requested number of "
                "end-systems")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        if self.client_blocks < 0:
            raise ValueError("client_blocks must be non-negative")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an int, got {self.seed!r}")

    def to_json_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "JobWorkload":
        if not isinstance(payload, Mapping):
            raise TypeError(
                f"workload payload must be a mapping, got "
                f"{type(payload).__name__}")
        data = dict(payload)
        _reject_unknown_keys(
            data, {field_info.name for field_info in fields(cls)},
            "JobWorkload")
        return cls(**data)


@dataclass
class JobSpec:
    """One submittable training job: name + workload + config."""

    name: str = "job"
    workload: JobWorkload = field(default_factory=JobWorkload)
    config: TrainingConfig = field(default_factory=TrainingConfig)
    #: Evaluate on the held-out split every epoch (adds compute but
    #: makes the result's accuracy curve meaningful).
    evaluate: bool = True

    def __post_init__(self) -> None:
        if not self.name or not str(self.name).strip():
            raise ValueError("name must be a non-empty string")

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-safe payload (the ``POST /v1/jobs`` request body)."""
        return {
            "schema_version": JOBSPEC_SCHEMA_VERSION,
            "name": self.name,
            "evaluate": self.evaluate,
            "workload": self.workload.to_json_dict(),
            "config": self.config.to_dict(),
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "JobSpec":
        """Parse and validate a payload produced by :meth:`to_json_dict`.

        Rejects unknown keys and unsupported ``schema_version``s at the
        envelope, workload and config levels; every surviving value is
        revalidated by the dataclass validators.
        """
        if not isinstance(payload, Mapping):
            raise TypeError(
                f"JobSpec payload must be a mapping, got "
                f"{type(payload).__name__}")
        data = dict(payload)
        version = int(data.pop("schema_version", 1))
        if not 1 <= version <= JOBSPEC_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported JobSpec schema_version {version} "
                f"(this build reads versions 1..{JOBSPEC_SCHEMA_VERSION})")
        _reject_unknown_keys(
            data, {"name", "evaluate", "workload", "config"}, "JobSpec")
        workload = JobWorkload.from_json_dict(data.get("workload", {}))
        config = TrainingConfig.from_dict(data.get("config", {}))
        return cls(
            name=str(data.get("name", "job")),
            workload=workload,
            config=config,
            evaluate=bool(data.get("evaluate", True)),
        )

    @classmethod
    def fast_debug(cls, name: str = "fast-debug",
                   **config_overrides: Any) -> "JobSpec":
        """A tiny spec for tests and smoke jobs (seconds, not minutes)."""
        return cls(
            name=name,
            workload=JobWorkload(num_samples=160, num_end_systems=2),
            config=TrainingConfig.fast_debug(**config_overrides),
        )
