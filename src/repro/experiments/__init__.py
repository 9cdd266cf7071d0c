"""Experiment harness: one module per paper table/figure plus ablations."""

from .base import PRESETS, ExperimentResult, on_preset, respec
from .baselines_comparison import run_baselines_comparison
from .chaos_matrix import run_chaos_matrix
from .clients_sweep import run_clients_sweep
from .compression import run_compression
from .figure4 import PAPER_FIGURE4, run_figure4
from .queue_congestion import run_queue_congestion
from .registry import (
    REGISTRY,
    ExperimentEntry,
    get_experiment,
    list_experiments,
    run_experiment,
)
from .server_failover import run_server_failover
from .server_sharding import run_server_sharding
from .staleness import run_staleness
from .table1 import PAPER_TABLE1, run_table1

__all__ = [
    "ExperimentResult",
    "PRESETS",
    "on_preset",
    "respec",
    "run_table1",
    "run_figure4",
    "run_staleness",
    "run_clients_sweep",
    "run_baselines_comparison",
    "run_chaos_matrix",
    "run_compression",
    "run_queue_congestion",
    "run_server_failover",
    "run_server_sharding",
    "PAPER_TABLE1",
    "PAPER_FIGURE4",
    "REGISTRY",
    "ExperimentEntry",
    "list_experiments",
    "get_experiment",
    "run_experiment",
]
