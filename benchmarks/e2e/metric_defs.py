"""Metric declarations and the burst-robust estimators behind them.

``BENCHMARK.json`` at the repo root is the contract the outside driver
reads; this module is the same list in code (the harness test checks the
two agree) plus what the JSON cannot hold: which span names feed each
per-layer metric, and the two ``server_job``-only end-to-end extras.

Why the minimum: on this shared 2-vCPU box host slow-downs only ever *add*
time, and they come both as bursts of a second or two and as spells of a
minute or more.  A run's median drifts with how many bursts it caught, and
so — less — does its lower quartile; the fastest sample is the one least
touched by either.  Over three ten-run studies (README, "Calibration") the
minimum had the smallest run-to-run spread in 15 of 18 metric × workload
cells and halved the worst cell of the lower quartile the issue proposed.
Every timing is therefore the minimum of its per-round samples, and a rate
is the sample's fixed work divided by that; a sample is never shorter than
a quarter second and every pass is verified, so the minimum cannot be a
truncated or failed operation.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

__all__ = ["END_TO_END", "EXTRAS", "PER_LAYER", "WORKLOADS", "EndToEnd", "LayerMetric",
           "summarize", "timed_batch"]

#: Workload names, in the order a full set runs them.
WORKLOADS: Tuple[str, ...] = ("paper_sync", "fanout_async", "storm_cluster", "server_job")


class EndToEnd(NamedTuple):
    unit: str
    better: str  # "lower" | "higher"
    what: str


#: Reported by every workload with tracing off (bounds live in BENCHMARK.json).
END_TO_END: Dict[str, EndToEnd] = {
    "setup_s": EndToEnd("s", "lower", "JSON text → JobSpec → build_workload → build_trainer; "
                        "server_job: fresh interpreter importing the worker + server → health()"),
    "train_samples_per_s": EndToEnd("1/s", "higher", "training samples per host second of "
                                    "trainer.train(); server_job: of submit → completed → "
                                    "result()"),
    "eval_samples_per_s": EndToEnd("1/s", "higher", "test samples × end-systems per second of "
                                   "trainer.evaluate"),
    "resume_s": EndToEnd("s", "lower", "rebuild a trainer from the newest run checkpoint on disk"),
    "peak_rss_mb": EndToEnd("MB", "lower", "ru_maxrss of the workload's process; server_job: "
                            "the largest reaped worker"),
}


class Extra(NamedTuple):
    unit: str
    better: str
    bound: float
    what: str


#: ``server_job``-only end-to-end numbers.  The outside contract wants every
#: ``end_to_end`` metric from every workload, which these cannot give, so
#: they ride in the ``--out`` file and are gated by ``compare.py`` alone.
EXTRAS: Dict[str, Extra] = {
    "kill_to_done_s": Extra("s", "lower", 0.25, "SIGKILL of the worker → interrupted → "
                            "resume → completed"),
    "metrics_poll_ms": Extra("ms", "lower", 0.25, "RunClient.metrics(job, since=total-5) on the "
                             "finished job, batch mean"),
}


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric (and workload) this one should move
    spans: Tuple[str, ...] = ()  # "ms" metrics: summed self time of these span names
    root: str = "pass"  # analysed window: the pass, or the secondary phase of this metric


def _ms(name: str, moves: str, *spans: str, root: str = "pass") -> LayerMetric:
    return LayerMetric(name, "ms", "lower", moves, spans, root)


def _count(name: str, moves: str, unit: str = "count") -> LayerMetric:
    return LayerMetric(name, unit, "lower", moves)


_CLIENT_SPANS = tuple(f"api.client.{call}" for call in (
    "health", "submit", "status", "resume", "metrics", "metrics_raw", "snapshot", "result"))

#: Traced-run metrics.  ``*_ms`` is self time; the rest are counts the
#: simulator repeats exactly, or ratios of the above.
PER_LAYER: Tuple[LayerMetric, ...] = (
    _ms("api.jobspec_parse_ms", "setup_s (all)", "api.jobspec_parse"),
    _ms("api.build_workload_ms", "setup_s (all)", "api.build_workload"),
    _ms("api.build_trainer_ms", "setup_s (all; 200 end-systems on fanout_async)",
        "api.build_trainer"),
    _ms("api.client_request_ms", "train_samples_per_s, metrics_poll_ms (server_job)",
        *_CLIENT_SPANS),
    _count("api.client_requests", "train_samples_per_s (server_job)"),
    _ms("server.submit_ms", "train_samples_per_s (server_job)", "server.submit"),
    _ms("server.worker_import_ms", "setup_s, train_samples_per_s (server_job)",
        "server.worker_import"),
    _count("server.spawn_to_first_epoch_ms", "train_samples_per_s (server_job)", "ms"),
    _ms("server.status_poll_ms", "train_samples_per_s (server_job)", "server.status"),
    LayerMetric("server.wait_share", "share", "lower", "train_samples_per_s (server_job)"),
    _count("server.reconcile_ms", "kill_to_done_s (server_job)", "ms"),
    _count("server.metrics_serve_ms", "metrics_poll_ms (server_job)", "ms"),
    _ms("core.engine_self_ms", "train_samples_per_s (fanout_async; not paper_sync)",
        "core.engine.run", "core.engine.event", "core.trainer.train"),
    _count("core.engine_events", "train_samples_per_s (fanout_async)"),
    _count("core.engine_us_per_event", "train_samples_per_s (fanout_async)", "us"),
    _ms("core.queue_ops_ms", "train_samples_per_s (fanout_async)",
        "core.queue.push", "core.queue.pop", "core.queue.drain"),
    _ms("core.server_process_ms", "train_samples_per_s (fanout_async, paper_sync)",
        "core.server.process"),
    _ms("core.end_system_forward_ms", "train_samples_per_s (fanout_async)",
        "core.end_system.forward"),
    _ms("core.end_system_backward_ms", "train_samples_per_s (fanout_async)",
        "core.end_system.backward"),
    _ms("core.evaluate_ms", "eval_samples_per_s", "core.trainer.evaluate",
        "core.server.evaluate", "core.end_system.inference", root="eval_samples_per_s"),
    _ms("simnet.transport_send_ms", "train_samples_per_s (fanout_async, storm_cluster)",
        "simnet.transport.send"),
    _count("simnet.transport_sends", "train_samples_per_s (fanout_async, storm_cluster)"),
    _ms("simnet.simulator_self_ms", "train_samples_per_s (fanout_async, storm_cluster)",
        "simnet.simulator.run"),
    _count("simnet.bytes_sent", "train_samples_per_s (fanout_async, storm_cluster)", "bytes"),
    _ms("cluster.sync_ms", "train_samples_per_s (storm_cluster only)",
        "cluster.sync", "cluster.reassign"),
    _count("cluster.syncs", "train_samples_per_s (storm_cluster only)"),
    _count("cluster.failovers", "train_samples_per_s (storm_cluster only)"),
    _ms("backend.gemm_ms", "train_samples_per_s, eval_samples_per_s (paper_sync)",
        "backend.gemm"),
    _count("backend.gemm_calls", "train_samples_per_s (paper_sync)"),
    _count("backend.gemm_flops", "train_samples_per_s (paper_sync)", "flop"),
    _ms("nn.self_ms", "train_samples_per_s, eval_samples_per_s (paper_sync)",
        "nn.forward", "nn.loss", "nn.backward", "nn.zero_grad"),
    _ms("nn.optimizer_step_ms", "train_samples_per_s (paper_sync)", "nn.optimizer_step"),
    _ms("data.dataset_gen_ms", "setup_s (all)", "data.dataset_gen"),
    _ms("data.loader_next_ms", "train_samples_per_s (fanout_async)", "data.loader_next"),
    _count("data.batches", "train_samples_per_s (fanout_async)"),
    _ms("state.checkpoint_write_ms", "train_samples_per_s (storm_cluster, server_job)",
        "state.checkpoint_write", "state.capture"),
    _count("state.checkpoint_writes", "train_samples_per_s (storm_cluster, server_job)"),
    _count("state.checkpoint_bytes", "train_samples_per_s (storm_cluster, server_job)", "bytes"),
    _ms("state.checkpoint_read_ms", "resume_s, kill_to_done_s", "state.checkpoint_read",
        root="resume_s"),
    _ms("state.restore_ms", "resume_s, kill_to_done_s", "state.restore",
        "core.trainer.resume", "api.resume_trainer", root="resume_s"),
    _ms("obs.flush_ms", "train_samples_per_s (storm_cluster)", "obs.flush", "obs.trace_event"),
    _count("obs.flushes", "train_samples_per_s (storm_cluster)"),
    _ms("obs.export_ms", "train_samples_per_s (storm_cluster)", "obs.export"),
    _count("obs.metrics_bytes", "train_samples_per_s (storm_cluster)", "bytes"),
    _ms("obs.load_rows_ms", "metrics_poll_ms (server_job)", "obs.load_rows",
        root="metrics_poll_ms"),
    _count("obs.rows", "metrics_poll_ms (server_job)"),
    _count("chaos.events", "train_samples_per_s (storm_cluster only)"),
    _count("chaos.retries", "train_samples_per_s (storm_cluster only)"),
    _count("chaos.deduped", "train_samples_per_s (storm_cluster only)"),
    _ms("chaos.message_chaos_ms", "train_samples_per_s (storm_cluster only)",
        "chaos.message_chaos", "chaos.plan"),
    _ms("utils.arena_stage_ms", "train_samples_per_s (fanout_async, storm_cluster)",
        "utils.arena.stage"),
    _ms("utils.arena_gather_ms", "train_samples_per_s (fanout_async, storm_cluster)",
        "utils.arena.gather", "utils.arena.release"),
    _count("trace.wall_ms", "—", "ms"),
    LayerMetric("trace.coverage", "share", "higher", "—"),
    LayerMetric("trace.overhead_share", "share", "lower", "—"),
)

#: Per-layer metrics that must repeat exactly between runs of one seed.
EXACT_COUNTS: Tuple[str, ...] = (
    "core.engine_events", "simnet.transport_sends", "simnet.bytes_sent", "cluster.syncs",
    "cluster.failovers", "backend.gemm_calls", "backend.gemm_flops", "data.batches",
    "state.checkpoint_writes", "state.checkpoint_bytes", "obs.flushes", "obs.metrics_bytes",
    "obs.rows", "chaos.events", "chaos.retries", "chaos.deduped",
)


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """The gated estimate (the fastest sample) plus the ungated context
    printed beside it: sample count, median, upper quartile, raw samples."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        median = upper = float(values[0])
    else:
        _, median, upper = statistics.quantiles(values, n=4, method="inclusive")
    return {"value": float(min(values)), "n": len(values), "median": float(median),
            "p75": float(upper), "samples": [float(value) for value in values]}


def timed_batch(call: Callable[[], Optional[float]], calls: int,
                clock: Callable[[], float] = time.perf_counter) -> float:
    """Mean seconds per call over one batch of exactly ``calls`` calls.

    A short operation is never timed alone: the batch is sized (a constant
    of the workload, never adaptive) so that one sample spans at least a
    quarter second.  A call with an untimed lead-in returns the seconds it
    measured itself, which replace the batch's clock for that call.
    """
    if calls <= 0:
        raise ValueError("calls must be positive")
    timed = 0.0
    for _ in range(calls):
        start = clock()
        own = call()
        timed += clock() - start if own is None else own
    return timed / calls
