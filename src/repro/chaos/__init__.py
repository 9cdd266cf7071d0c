"""Seeded deterministic fault injection for the simulated deployment.

``repro.chaos`` holds everything that goes wrong on purpose: the run's
one fault timeline — shard crashes and recoveries, link flaps and client
churn, hub↔hub partitions, shard stragglers, scripted client moves — and
per-message corruption/duplication/reordering at the transport.  Every
fault is drawn from seeded streams, so a chaos run is a pure function of
its seed and two runs with the same seed produce byte-identical traffic
logs.

* :class:`FaultEvent` / :class:`FaultPlan` — one timed fault-phase
  transition and the per-lane peek/advance timeline protocol the engine
  consumes.
* :class:`ScheduledFaults` — scripted timelines from
  ``TrainingConfig.chaos_schedule`` entries and
  ``TrainingConfig.failure_schedule`` crashes.
* :class:`StochasticFaults` — exponential MTBF/MTTR churn (client
  flaps/leaves, shard crashes) with per-target seeded streams.
* :func:`build_fault_plan` — the plan a ``TrainingConfig`` describes.
* :class:`MessageChaos` — seeded per-message corruption, duplication and
  reordering applied inside :class:`repro.simnet.transport.Transport`.
"""

from .message_chaos import MessageChaos
from .plan import FaultEvent, FaultPlan, ScheduledFaults, StochasticFaults, build_fault_plan

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "ScheduledFaults",
    "StochasticFaults",
    "MessageChaos",
    "build_fault_plan",
]
