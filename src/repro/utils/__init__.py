"""Shared utilities: seeding, logging, timing, perf counters, arenas and tables."""

from . import arena, perf
from .arena import ActivationArena
from .logging import get_logger, set_verbosity
from .rng import SeedSequence
from .timer import Timer
from .tables import format_table

__all__ = [
    "get_logger",
    "set_verbosity",
    "SeedSequence",
    "Timer",
    "format_table",
    "arena",
    "ActivationArena",
    "perf",
]
