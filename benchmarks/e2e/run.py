#!/usr/bin/env python3
"""One command for the repo benchmark: run a workload, verify it, print every metric.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

``--trace 0`` measures the end-to-end metrics with tracing off, in rounds —
a pass (set-up, run), then one fixed-size batch of each secondary operation
(evaluate, resume, …) on what the pass left behind — one discarded warm-up
round, then rounds until ``--seconds`` is spent.  Every timing is the minimum
of its per-round samples (see ``metric_defs`` for why).
``--trace 1`` is a separate, shorter run that installs the span tracer and
produces the per-layer metrics; it is never the source of an end-to-end
number.  Without ``--workload`` all four run, each in its own process.

The last line of standard output is one JSON object — ``correct``,
``attempted``, ``failed``, ``metrics`` — and the exit code is non-zero on
any failed check.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
WORK = HERE / ".work"  # job directories, checkpoints, traces (gitignored)

#: BLAS threading is an uncontrolled ±20 % knob on the tiny per-message GEMMs
#: (ROADMAP, "State measured"); pinned before NumPy loads, inherited by workers.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def pin_environment() -> None:
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(REPO / "src"))


def environment() -> Dict[str, Any]:
    """What the numbers were measured on (recorded in every ``--out`` file)."""
    import numpy as np
    from repro.nn import get_default_dtype, set_default_dtype

    set_default_dtype(np.float32)
    try:
        rev = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        **PINNED_ENV,
        "dtype": str(get_default_dtype()),
        "nproc": os.cpu_count(),
        "git_rev": rev,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


class Ledger:
    """Operations attempted and failed; a failure is never a time."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def run(self, what: str, operation: Any) -> Any:
        """``operation()``'s result, or ``None`` after recording a failed check
        (``workloads.CheckFailed`` is an ``AssertionError``)."""
        self.attempted += 1
        try:
            return operation()
        except AssertionError as exc:
            self.failed += 1
            self.errors.append(f"{what}: {exc}")
            print(f"FAILED {what}: {exc}", flush=True)
            return None


def _converted(times: Dict[str, Any], convert: Callable[[float], float]) -> Dict[str, Any]:
    """A summary of seconds in another unit (a rate, milliseconds), keeping
    the ungated context — ``n``, median, upper quartile, samples — beside it."""
    converted: Dict[str, Any] = {key: convert(times[key]) for key in ("value", "median", "p75")}
    converted.update(n=times["n"], samples=[convert(seconds) for seconds in times["samples"]])
    return converted


# --------------------------------------------------------------------------- #
# One round: a pass, then one batch of every per-pass phase
# --------------------------------------------------------------------------- #
def run_round(workload: Any, ledger: Ledger, calls: Optional[int] = None) -> Optional[Any]:
    """``(PassResult, {metric: seconds per call})``, or ``None`` if the pass failed.

    ``calls`` overrides every phase's batch size (the traced run uses 1).
    """
    from metric_defs import timed_batch

    result = ledger.run(f"pass {workload.passes_run}", workload.run_pass)
    if result is None:
        return None
    batches: Dict[str, float] = {}
    for phase in workload.phases():
        if not phase.per_pass:
            continue
        size = calls or phase.calls_per_batch

        def batch(phase: Any = phase, size: int = size) -> float:
            if phase.before is not None:
                phase.before()
            with workload.tracer.span(f"harness.{phase.metric}"):
                return timed_batch(phase.call, size)

        mean = ledger.run(phase.metric, batch)
        if mean is not None:
            ledger.attempted += size - 1
            batches[phase.metric] = mean
    return result, batches


# --------------------------------------------------------------------------- #
# --trace 0: the end-to-end metrics
# --------------------------------------------------------------------------- #
def measure(workload: Any, seconds: float, ledger: Ledger) -> Dict[str, Any]:
    from metric_defs import END_TO_END, EXTRAS, summarize, timed_batch

    began = time.perf_counter()
    end = began + seconds
    rounds: List[Any] = []
    durations: List[float] = []
    while True:
        started = time.perf_counter()
        done = run_round(workload, ledger)
        gc.collect()  # untimed: every round starts from a collected heap
        if not durations:
            # The first round only fills caches (page cache, .pyc, allocator
            # arenas, the resume twin); freezing what survives it keeps the
            # collector from re-walking the imported modules on later rounds.
            gc.freeze()
        elif done is not None:
            rounds.append(done)
        durations.append(time.perf_counter() - started)
        # Stop when a typical round (the warm-up is not one) no longer fits
        # before the time kept back for the phases that run after the rounds.
        if rounds:
            reserve = sum(phase.reserve_s for phase in workload.phases())
            if time.perf_counter() + statistics.median(durations[1:]) > end - reserve:
                break
        if workload.passes_run >= 3 and not rounds:
            raise SystemExit("every pass failed its checks; nothing to report")

    def digest_is_stable() -> None:
        # A deterministic simulator: host speed may vary, simulated statistics not.
        digests = {result.digest for result, _ in rounds}
        assert len(digests) == 1, f"{len(digests)} distinct digests: {sorted(digests)}"

    ledger.run("sim_digest identical on every pass", digest_is_stable)

    samples: Dict[str, List[float]] = defaultdict(list)
    for _, batches in rounds:
        for metric, mean in batches.items():
            samples[metric].append(mean)
    phases = {phase.metric: phase for phase in workload.phases()}
    for phase in phases.values():
        if phase.per_pass:
            continue
        while True:  # with the time that is left; at least one sample
            took = ledger.run(phase.metric, lambda phase=phase:
                              timed_batch(phase.call, phase.calls_per_batch))
            if took is not None:
                samples[phase.metric].append(took)
            if took is None or time.perf_counter() + phase.reserve_s > end:
                break

    metrics: Dict[str, Dict[str, Any]] = {
        "setup_s": summarize([result.setup_s for result, _ in rounds]),
        "train_samples_per_s": _converted(summarize([result.run_s for result, _ in rounds]),
                                          lambda seconds: workload.train_samples / seconds),
    }
    for metric, values in samples.items():
        phase = phases[metric]
        metrics[metric] = _converted(
            summarize(values),
            (lambda seconds, phase=phase: phase.work / seconds) if phase.work else
            (lambda seconds, phase=phase: seconds * phase.scale))
    metrics["peak_rss_mb"] = {"value": workload.peak_rss_mb(), "n": 1}

    for name, metric in metrics.items():
        metric["unit"] = (END_TO_END.get(name) or EXTRAS[name]).unit
    report = {
        "metrics": {name: metrics[name] for name in END_TO_END if name in metrics},
        "extras": {name: metrics[name] for name in EXTRAS if name in metrics},
        "passes": len(rounds),
        "sim_digest": list(rounds[-1][0].digest),
    }
    if workload.poll_times:
        cuts = statistics.quantiles(workload.poll_times, n=20, method="inclusive")
        report["polls"] = {"n": len(workload.poll_times), "p50_ms": cuts[9] * 1e3,
                           "p95_ms": cuts[18] * 1e3}
    return report


# --------------------------------------------------------------------------- #
# --trace 1: the per-layer split
# --------------------------------------------------------------------------- #
def trace(workload: Any, tracer: Any, ledger: Ledger) -> Dict[str, Any]:
    from metric_defs import PER_LAYER
    from tracing import HARNESS, layer_of, layer_table, self_times, subtree

    def one_round() -> float:
        done = run_round(workload, ledger, calls=1)
        if done is None:
            raise SystemExit("a pass failed its checks; no trace to analyse")
        result = done[0]
        return float(result.setup_s + result.run_s)

    workload.setup_repeats = 1  # the layer table describes one set-up, not a timed pair
    one_round()  # warm-up
    base_s = one_round()
    with tracer:
        one_round()
        traced_s = one_round()  # the analysed round
        counts = dict(workload.counts())
        for phase in workload.phases():
            if not phase.per_pass:
                with tracer.span(f"{HARNESS}.{phase.metric}"):
                    ledger.run(phase.metric, phase.call)

    spans = tracer.spans
    own = self_times(spans)
    latest: Dict[str, Any] = {}
    for span in spans:  # the last root of each kind is the analysed one
        if layer_of(span.name) == HARNESS and span.cause == 0:
            if span.name not in latest or span.start > latest[span.name].start:
                latest[span.name] = span
    windows = {"pass": subtree(spans, [latest[f"{HARNESS}.setup"], latest[f"{HARNESS}.run"]])}
    for name, root in latest.items():
        windows[name.split(".", 1)[1]] = subtree(spans, [root])

    by_name: Dict[str, Dict[str, float]] = {}
    calls: Dict[str, Dict[str, int]] = {}
    for window, members in windows.items():
        by_name[window] = defaultdict(float)
        calls[window] = defaultdict(int)
        for span in members:
            by_name[window][span.name] += own[span.span_id] * 1e3
            calls[window][span.name] += 1

    values: Dict[str, float] = {}
    for metric in PER_LAYER:
        window = by_name.get(metric.root, {})
        values[metric.name] = sum(window.get(name, 0.0) for name in metric.spans)
    values.update({name: float(value) for name, value in counts.items()})
    pass_calls = calls["pass"]
    values["api.client_requests"] = sum(
        count for name, count in pass_calls.items() if name.startswith("api.client."))
    values["simnet.transport_sends"] = pass_calls.get("simnet.transport.send", 0)
    values["data.batches"] = pass_calls.get("core.end_system.forward", 0)
    values["backend.gemm_flops"] = float(latest[f"{HARNESS}.run"].note["gemm_flops"])
    events = values.get("core.engine_events", 0.0)
    values["core.engine_us_per_event"] = (
        values["core.engine_self_ms"] * 1e3 / events if events else 0.0)

    wall_ms = sum(latest[f"{HARNESS}.{part}"].duration for part in ("setup", "run")) * 1e3
    pass_layers = layer_table(windows["pass"], own)
    covered = sum(seconds for layer, seconds in pass_layers.items() if layer != HARNESS)
    values["trace.wall_ms"] = wall_ms
    values["trace.coverage"] = covered * 1e3 / wall_ms
    values["trace.overhead_share"] = (traced_s - base_s) / base_s
    run_layers = layer_table(windows["run"], own)
    run_ms = latest[f"{HARNESS}.run"].duration * 1e3
    values["server.wait_share"] = run_layers.get("wait", 0.0) * 1e3 / run_ms
    values.update(_server_timings(windows["run"], windows.get("metrics_poll_ms", ()),
                                  own, workload))

    tables = {window: _shares(layer_table(members, own))
              for window, members in windows.items()}
    WORK.mkdir(parents=True, exist_ok=True)
    trace_file = WORK / f"trace-{workload.name}.json"
    tracer.write_chrome_trace(trace_file)
    units = {metric.name: metric.unit for metric in PER_LAYER}
    return {
        "metrics": {metric.name: {"value": values.get(metric.name, 0.0),
                                  "unit": units[metric.name]} for metric in PER_LAYER},
        "layer_tables": tables,
        "spans": len(spans),
        "trace_file": str(trace_file.relative_to(REPO)),
    }


def _shares(layers: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    total = sum(layers.values())
    return {layer: {"ms": seconds * 1e3, "share": seconds / total if total else 0.0}
            for layer, seconds in sorted(layers.items(), key=lambda item: -item[1])}


def _server_timings(run_window: Sequence[Any], poll_window: Sequence[Any],
                    own: Dict[int, float], workload: Any) -> Dict[str, float]:
    """``server_job`` numbers the span-name sums cannot give: handler-thread
    time attributed to the client call that caused it, and intervals
    between spans."""
    def handler_ms(window: Sequence[Any], caused_by: str, *inner: str) -> float:
        names = {span.span_id: span.name for span in window}
        total = 0.0
        for span in window:
            cause = names.get(span.cause)
            if (span.name == "server.http_handler" and cause == caused_by) or \
                    (span.name in inner and cause == "server.http_handler"):
                total += own[span.span_id]
        return total * 1e3

    timings = {
        "server.submit_ms": handler_ms(run_window, "api.client.submit", "server.submit"),
        "server.status_poll_ms": handler_ms(run_window, "api.client.status", "server.status"),
        "server.metrics_serve_ms": handler_ms(poll_window, "api.client.metrics"),
        "server.reconcile_ms": workload.reconcile_s * 1e3,
        "server.spawn_to_first_epoch_ms": 0.0,
        "obs.rows": float(workload.rows_polled),
    }
    submitted = [span.end for span in run_window if span.name == "api.client.submit"]
    first_epoch = [span.end for span in run_window
                   if span.name == "api.client.status" and span.note
                   and (span.note.get("epochs_completed") or 0) >= 1]
    if submitted and first_epoch:
        timings["server.spawn_to_first_epoch_ms"] = (min(first_epoch) - submitted[0]) * 1e3
    return timings


# --------------------------------------------------------------------------- #
# Output
# --------------------------------------------------------------------------- #
def print_report(report: Dict[str, Any]) -> None:
    print(f"== {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"seconds={report['seconds']}  ({report['elapsed_s']:.1f} s elapsed)")
    print("   env: " + " ".join(f"{key}={value}" for key, value in report["env"].items()))
    for group in ("metrics", "extras"):
        for name, metric in report.get(group, {}).items():
            context = ""
            if "median" in metric:
                context = (f"   n={metric['n']} median={metric['median']:.6g} "
                           f"p75={metric['p75']:.6g}")
            tag = "" if group == "metrics" else "  (extra, gated by compare.py only)"
            print(f"   {name:<34} {metric['value']:>14.6g} {metric['unit']:<6}{context}{tag}")
    if "polls" in report:
        polls = report["polls"]
        print(f"   polls: n={polls['n']} p50={polls['p50_ms']:.3f} ms "
              f"p95={polls['p95_ms']:.3f} ms (ungated)")
    if "sim_digest" in report:
        print(f"   sim_digest={report['sim_digest']} passes={report['passes']}")
    for window, table in report.get("layer_tables", {}).items():
        row = "  ".join(f"{layer} {cell['ms']:.1f}ms {cell['share']:.1%}"
                        for layer, cell in table.items())
        print(f"   layers[{window}]: {row}")
    if "trace_file" in report:
        print(f"   {report['spans']} spans → {report['trace_file']}")
    print(f"   failed_share={report['failed_share']:.4f} "
          f"({report['failed']}/{report['attempted']})")


def run_one(args: argparse.Namespace) -> int:
    pin_environment()
    try:
        from tracing import NULL_TRACER, SpanTracer
        from workloads import BUILDERS
    except ImportError as exc:
        print(f"cannot load the system under test from {REPO / 'src'}: {exc}", file=sys.stderr)
        return 2

    env = environment()
    began = time.perf_counter()
    tracer = SpanTracer() if args.trace else NULL_TRACER
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = BUILDERS[args.workload](args.seed, workdir, tracer)
    ledger = Ledger()
    try:
        report = trace(workload, tracer, ledger) if args.trace else \
            measure(workload, args.seconds, ledger)
    finally:
        workload.close()
    report.update(
        workload=args.workload, seed=args.seed, trace=args.trace, seconds=args.seconds,
        env=env, attempted=ledger.attempted, failed=ledger.failed, errors=ledger.errors,
        failed_share=ledger.failed / max(ledger.attempted, 1),
        elapsed_s=time.perf_counter() - began,
    )
    expected = _declared("per_layer" if args.trace else "end_to_end")
    missing = [name for name in expected if name not in report["metrics"]]
    correct = ledger.failed == 0 and not missing
    print_report(report)
    if args.out:
        _write_out(args.out, {"env": env, "workloads": {args.workload: report}})
    if missing:
        print(f"missing metrics: {missing}")
    print(json.dumps({
        "correct": correct, "attempted": max(ledger.attempted, 1), "failed": ledger.failed,
        "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in report["metrics"].items()},
    }))
    return 0 if correct else 1


def _declared(group: str) -> List[str]:
    contract = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [metric["name"] for metric in contract[group]]


def _write_out(path: str, payload: Dict[str, Any]) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so ``peak_rss_mb`` is its own."""
    from metric_defs import WORKLOADS

    WORK.mkdir(parents=True, exist_ok=True)
    merged: Dict[str, Any] = {"workloads": {}}
    summary: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        part = WORK / f"part-{os.getpid()}-{name}.json"
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(part)],
            stdout=subprocess.PIPE, text=True)
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 and not part.exists():
            print(lines[-1])
            return done.returncode
        last = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        summary["metrics"].update({f"{name}/{metric}": value
                                   for metric, value in last["metrics"].items()})
        payload = json.loads(part.read_text(encoding="utf-8"))
        part.unlink()
        merged["env"] = payload["env"]
        merged["workloads"].update(payload["workloads"])
    if args.out:
        _write_out(args.out, merged)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    from metric_defs import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="omit to run all four, each in a child process")
    parser.add_argument("--seed", type=int, default=0,
                        help="generates the inputs only (dataset, split, partition)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement budget of a --trace 0 run, warm-up included")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full report (for compare.py) to this file")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
