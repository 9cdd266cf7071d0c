"""Shared utilities: seeding, logging, perf counters, arenas and tables."""

from . import arena, perf
from .arena import ActivationArena
from .logging import get_logger, set_verbosity
from .rng import SeedSequence
from .tables import format_table

__all__ = [
    "get_logger",
    "set_verbosity",
    "SeedSequence",
    "format_table",
    "arena",
    "ActivationArena",
    "perf",
]
