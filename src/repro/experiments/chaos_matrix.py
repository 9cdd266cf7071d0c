"""Chaos matrix: fault regimes x reliable delivery.

The DSN paper claims a *dependable* split-learning platform, and the
PR 5/6 cluster already survives shard crashes.  This experiment turns on
the PR 8 chaos plane — deterministic, seeded injection of link loss,
message corruption/duplication/reordering, link flaps, hub-to-hub
partitions and stragglers — and asks the matching question for the
*network* half of dependability: how much does the reliability layer
(sequence-numbered transfers with ack/timeout/backoff retries,
idempotent dedup, quorum-degraded sync) actually buy under each fault
regime?

The sweep is a matrix of fault regime x ``reliable_delivery``:

* ``clean`` — fault-free control; the reliability-on row must match the
  off row to the last gradient.  Loss-absorbing retries and give-ups
  read zero here; with an ack timeout below the far clients' RTT the
  sender still emits *spurious* retransmissions (the first copy was
  merely late), which the idempotent receiver absorbs — the ``deduped``
  column prices exactly that overhead;
* ``lossy`` — plain i.i.d. link loss (the paper's lossy-network story);
* ``chaos`` — link loss plus per-message corruption, duplication and
  reordering at the transport;
* ``churn`` — a scripted timeline of link flaps, a hub-to-hub partition
  and a straggling shard, with quorum-degraded sync allowed to proceed
  without the straggler.

Reported per cell: transport losses, retransmissions, abandoned
transfers (``gave_up``), duplicates absorbed, chaos counters, degraded
vs. abandoned syncs, client drop notifications, final accuracy and
simulated completion time.  Every cell also re-asserts the extended
drop-accounting balance — the leak-freedom contract is part of the
experiment, not just the test suite.

Expected shape: under ``lossy``/``chaos`` the reliability layer converts
transport drops into retries (fewer notifications, better accuracy, a
little extra simulated time); under ``churn`` quorum sync keeps rounds
moving while the partition holds.  Identical seeds mean the off/on pairs
face byte-identical fault streams.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..api import JobSpec, build_trainer, build_workload
from ..obs.invariants import assert_drop_balance
from ..simnet.topology import multi_hub_star_topology
from ..utils.logging import get_logger
from .base import ExperimentResult, on_preset, respec

__all__ = ["run_chaos_matrix", "base_spec", "DEFAULT_REGIMES"]

logger = get_logger("experiments.chaos_matrix")

#: Fault regimes swept by default.  Each value is a dict of
#: ``TrainingConfig`` overrides plus the pseudo-knob ``link_drop`` that
#: parameterises the topology's physical loss probability.
DEFAULT_REGIMES: Dict[str, Dict[str, object]] = {
    "clean": {},
    "lossy": {"link_drop": 0.15},
    "chaos": {
        "link_drop": 0.1,
        "chaos_corrupt_probability": 0.05,
        "chaos_duplicate_probability": 0.05,
        "chaos_reorder_probability": 0.1,
    },
    "churn": {
        "link_drop": 0.05,
        "server_step_time_s": 0.004,
        "sync_quorum": 0.5,
        "sync_timeout_s": 0.05,
        # The schedule is phrased in simulated seconds; the tiny
        # workloads finish in well under a second, so the faults land
        # mid-run.
        "chaos_schedule": [
            ("flap", 0.01, 0.02, 0),
            ("partition", 0.03, 0.03, 0, 1),
            ("straggler", 0.02, 0.05, 1, 4.0),
            ("flap", 0.08, 0.01, 1),
        ],
    },
}


def base_spec() -> JobSpec:
    """The matrix's job: 16 end-systems on two latency-aware shards, ``"average"`` sync.

    Reliable delivery, where a cell turns it on, retries after 10 ms up
    to three times.
    """
    return on_preset(
        JobSpec(name="chaos_matrix"), num_end_systems=16, num_samples=640, epochs=2,
        batch_size=16, num_servers=2, shard_assigner="latency_aware", retry_timeout_s=0.01)


def run_chaos_matrix(
    spec: Optional[JobSpec] = None,
    regimes: Optional[Dict[str, Dict[str, object]]] = None,
    reliability_values: Sequence[bool] = (False, True),
    near_latency_s: float = 0.002,
    far_latency_s: float = 0.05,
    inter_server_latency_s: float = 0.005,
    obs_dir: Optional[str] = None,
    obs_flush_every_s: float = 0.02,
    obs_trace_sample_rate: float = 1.0,
) -> ExperimentResult:
    """Sweep fault regime x reliable delivery on a sharded star.

    Training runs synchronously with ``"average"`` sync so the quorum
    path is admissible.  The same workload seed drives both halves of
    each regime pair, so the reliability layer is evaluated against the
    exact fault stream its control row suffered.

    With ``obs_dir`` set every cell trains with the ``repro.obs`` plane
    on and exports ``<obs_dir>/<regime>_<on|off>/metrics.jsonl`` plus
    ``trace.json`` — the JSONL round-trips through ``python -m repro.obs
    report`` (which re-checks the drop balance from the export alone).
    """
    spec = spec if spec is not None else base_spec()
    workload, config = spec.workload, spec.config
    regimes = regimes if regimes is not None else DEFAULT_REGIMES
    pieces = build_workload(workload)
    latencies = list(np.linspace(near_latency_s, far_latency_s,
                                 workload.num_end_systems))

    result = ExperimentResult(
        name="Chaos matrix — fault regimes x reliable delivery "
             f"({workload.num_end_systems}-client star, {config.num_servers} shards)",
        headers=[
            "regime",
            "reliable",
            "dropped",
            "retried",
            "gave_up",
            "deduped",
            "corrupted",
            "duplicated",
            "reordered",
            "chaos_events",
            "quorum_syncs",
            "sync_timeouts",
            "notified",
            "train_accuracy_pct",
            "test_accuracy_pct",
            "simulated_time_s",
        ],
        paper_reference={
            "figure": "dependability claim (title/Sec. I) — lossy-network extension",
            "claim": "training must survive an unreliable network, not just "
                     "unreliable servers; retries, dedup and quorum sync are "
                     "the transport-side half of the dependability story",
        },
        metadata={
            "workload": spec.to_json_dict(),
            "regimes": {name: dict(overrides)
                        for name, overrides in regimes.items()},
            "reliability_values": [bool(v) for v in reliability_values],
            "num_servers": config.num_servers,
            "retry_timeout_s": config.retry_timeout_s,
            "retry_max": config.retry_max,
            "latency_range_s": [near_latency_s, far_latency_s],
            "inter_server_latency_s": inter_server_latency_s,
        },
    )

    for regime_name, overrides in regimes.items():
        overrides = dict(overrides)
        link_drop = float(overrides.pop("link_drop", 0.0))
        for reliable in reliability_values:
            topology = multi_hub_star_topology(
                workload.num_end_systems,
                config.num_servers,
                assigner=config.shard_assigner,
                latencies_s=latencies,
                drop_probability=link_drop,
                inter_server_latency_s=inter_server_latency_s,
                seed=workload.seed,
            )
            obs_knobs: Dict[str, object] = {}
            if obs_dir is not None:
                cell = f"{regime_name}_{'on' if reliable else 'off'}"
                obs_knobs = {
                    "obs_enabled": True,
                    "obs_flush_every_s": obs_flush_every_s,
                    "obs_trace_sample_rate": obs_trace_sample_rate,
                    "obs_dir": f"{obs_dir}/{cell}",
                }
            row = respec(spec, reliable_delivery=bool(reliable), **obs_knobs, **overrides)
            trainer = build_trainer(row, pieces=pieces, topology=topology)
            history = trainer.train(pieces.test, evaluate_every=config.epochs)
            # The leak-freedom contract is part of the experiment, not
            # just the test suite (see repro.obs.invariants).
            assert_drop_balance(trainer)
            log = trainer.transport.log
            stats = trainer.engine.stats
            notified = sum(es.drops_notified for es in trainer.end_systems)
            logger.info(
                "chaos regime=%s reliable=%s dropped=%d retried=%d "
                "gave_up=%d deduped=%d chaos_events=%d acc=%.4f "
                "sim_time=%.3fs",
                regime_name, reliable, log.dropped_messages,
                log.retried_messages, stats.gave_up, stats.deduped,
                stats.chaos_events, history.final_train_accuracy,
                history.total_simulated_time,
            )
            result.add_row([
                regime_name,
                "on" if reliable else "off",
                log.dropped_messages,
                log.retried_messages,
                stats.gave_up,
                stats.deduped,
                log.corrupted_messages,
                log.duplicated_messages,
                log.reordered_messages,
                stats.chaos_events,
                stats.quorum_syncs,
                stats.sync_timeouts,
                notified,
                100.0 * history.final_train_accuracy,
                100.0 * (history.final_test_accuracy or 0.0),
                history.total_simulated_time,
            ])
    return result
