"""Shared configuration for the benchmark harness.

Each benchmark regenerates one of the paper's tables/figures (or one of
the ablations README.md lists with the experiments) on the laptop-scale workload and
prints the resulting table, so that running::

    pytest benchmarks/ --benchmark-only -s

produces the same rows the paper reports.  The goal is shape fidelity
(who wins, by roughly what factor, where the trend bends), not absolute
numbers — the substrate is a NumPy simulator, not the authors' GPU
testbed.  ``--scale paper`` on the CLI (``repro-experiments``) runs the
full-size configuration instead.
"""

from __future__ import annotations

import datetime
import json
import platform
from pathlib import Path

from typing import Any, Dict

import pytest

from repro.api import JobSpec
from repro.experiments import get_experiment, on_preset

# Seed-tree timings of the substrate group (mean ms, measured before the
# fast-compute-substrate work landed) so BENCH_substrate.json always shows
# the before/after trajectory.
SEED_BASELINE_MS = {
    "test_paper_cnn_forward": 25.03,
    "test_paper_cnn_forward_backward": 59.33,
    "test_split_round_trip": 10.48,
    "test_synthetic_dataset_generation": 47.33,
    "test_one_synchronous_epoch_wall_time": 142.01,
}

# PR 2 timings of the hotpath/engine groups (mean ms from the PR 2
# BENCH_substrate.json) — the reference for PR 3's server-throughput
# substrate (fused losses/pooling, backend GEMMs, activation arena).
PR2_BASELINE_MS = {
    "test_conv2d_forward[float32]": 1.561,
    "test_conv2d_forward[float64]": 3.387,
    "test_conv2d_forward_backward[float32]": 3.807,
    "test_conv2d_forward_backward[float64]": 9.021,
    "test_max_pool_forward_backward": 3.650,
    "test_max_pool_inference_fast_path": 0.214,
    "test_col2im_non_overlapping_fast_path": 0.261,
    "test_col2im_general_path": 0.422,
    "test_server_sequential_drain": 20.668,
    "test_server_batched_drain": 12.446,
    "test_async_epoch_100_clients_event_throughput": 120.413,
    "test_async_epoch_100_clients_bounded_queue": 73.305,
}


def pytest_addoption(parser):
    parser.addoption(
        "--bench-samples", type=int, default=1200,
        help="synthetic dataset size used by the benchmark workloads",
    )
    parser.addoption(
        "--bench-epochs", type=int, default=6,
        help="training epochs used by the benchmark workloads",
    )


@pytest.fixture(scope="session")
def bench_workload(request) -> Dict[str, Any]:
    """Laptop-preset workload shared by the experiment benchmarks."""
    return dict(
        num_samples=request.config.getoption("--bench-samples"),
        epochs=request.config.getoption("--bench-epochs"),
        num_end_systems=4,
        batch_size=32,
        seed=0,
    )


@pytest.fixture(scope="session")
def quick_bench_workload(request) -> Dict[str, Any]:
    """Smaller workload for the per-configuration micro-benchmarks."""
    return dict(
        num_samples=max(400, request.config.getoption("--bench-samples") // 3),
        epochs=max(2, request.config.getoption("--bench-epochs") // 3),
        num_end_systems=4,
        batch_size=32,
        seed=0,
    )


def bench_spec(experiment: str, workload: Dict[str, Any], **changes: Any) -> JobSpec:
    """``experiment``'s base spec on the laptop preset with ``workload`` and ``changes``."""
    return on_preset(get_experiment(experiment).base_spec(), **workload, **changes)


def run_once(benchmark, function, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, iterations=1, rounds=1)


def pytest_sessionfinish(session, exitstatus):
    """Emit ``BENCH_substrate.json`` with the substrate/hotpath op timings.

    The file records mean/min timings per benchmark together with the
    seed-tree baseline and the substrate's op-level perf counters, so
    future PRs can track the performance trajectory without re-running
    the seed revision.
    """
    # Only benchmark-only sessions may write the tracking file: a plain
    # test run executes benchmarks once un-calibrated and has the process
    # -global perf counters polluted with unit-test traffic.
    if not session.config.getoption("--benchmark-only", default=False):
        return
    bench_session = getattr(session.config, "_benchmarksession", None)
    benchmarks = getattr(bench_session, "benchmarks", None)
    if not benchmarks:
        return
    rows = []
    for bench in benchmarks:
        group = getattr(bench, "group", None)
        if group not in {"substrate", "hotpaths-conv", "hotpaths-pool",
                         "hotpaths-col2im", "hotpaths-server", "engine",
                         "cluster", "state", "chaos", "obs"}:
            continue
        stats = getattr(bench, "stats", None)
        if stats is None:
            continue
        name = getattr(bench, "name", "?")
        row = {
            "name": name,
            "group": group,
            "mean_ms": getattr(stats, "mean", float("nan")) * 1e3,
            "min_ms": getattr(stats, "min", float("nan")) * 1e3,
            "stddev_ms": getattr(stats, "stddev", float("nan")) * 1e3,
            "rounds": getattr(stats, "rounds", None),
        }
        extra_info = dict(getattr(bench, "extra_info", None) or {})
        if extra_info:
            # The engine benchmarks report event throughput here so the
            # scheduler's overhead is tracked across PRs alongside timings.
            row["extra_info"] = extra_info
        baseline = SEED_BASELINE_MS.get(name)
        if baseline is not None:
            row["seed_baseline_ms"] = baseline
            mean = row["mean_ms"]
            row["speedup_vs_seed"] = round(baseline / mean, 3) if mean else None
        pr2_baseline = PR2_BASELINE_MS.get(name)
        if pr2_baseline is not None:
            row["pr2_baseline_ms"] = pr2_baseline
            mean = row["mean_ms"]
            row["speedup_vs_pr2"] = round(pr2_baseline / mean, 3) if mean else None
        rows.append(row)
    if not rows:
        return
    # Only (re)write the tracking file when the run covered every tracked
    # benchmark — the substrate group *and* the gated hotpaths/engine set
    # that check_regression.py consumes; a filtered run (-k, single file)
    # must not clobber the cross-PR snapshot with partial data.
    row_names = {row["name"] for row in rows}
    if not row_names.issuperset(SEED_BASELINE_MS) or not row_names.issuperset(PR2_BASELINE_MS):
        return

    from repro.nn import get_default_dtype
    from repro.utils.perf import counters

    payload = {
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "default_dtype": str(get_default_dtype()),
        "perf_counters": counters.snapshot(),
        "benchmarks": sorted(rows, key=lambda row: (row["group"], row["name"])),
    }
    output = Path(str(session.config.rootpath)) / "BENCH_substrate.json"
    output.write_text(json.dumps(payload, indent=2) + "\n")
