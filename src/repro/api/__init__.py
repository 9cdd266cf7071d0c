"""``repro.api`` — the versioned public surface for running jobs.

Three layers, smallest first:

* :mod:`~repro.api.jobspec` — the ``JobSpec`` schema: a versioned,
  strict, round-trip-exact JSON description of one training job.
* :mod:`~repro.api.runtime` — ``build_workload`` / ``build_split`` /
  ``build_trainer`` / ``resume_trainer`` / ``run_job``: the one facade
  that turns a JobSpec into a live trainer (used in-process, by the
  experiments and by the run-server's worker).
* :mod:`~repro.api.client` — ``RunClient``: the stdlib HTTP SDK for a
  :mod:`repro.server` instance (``submit`` / ``status`` / ``pause`` /
  ``resume`` / ``metrics`` / ``cancel`` ...), shared by the CLI, the
  tests and the smoke script.
"""

from .client import TERMINAL_STATES, ApiError, RunClient, ServerUnavailable
from .jobspec import JOBSPEC_SCHEMA_VERSION, JobSpec, JobWorkload
from .runtime import (MaterializedWorkload, build_split, build_trainer,
                      build_workload, resume_trainer, run_job)

__all__ = [
    "JOBSPEC_SCHEMA_VERSION",
    "JobSpec",
    "JobWorkload",
    "MaterializedWorkload",
    "build_workload",
    "build_split",
    "build_trainer",
    "resume_trainer",
    "run_job",
    "RunClient",
    "ApiError",
    "ServerUnavailable",
    "TERMINAL_STATES",
]
