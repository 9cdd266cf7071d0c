#!/usr/bin/env python
"""CI observability smoke: metrics + traces on a small chaotic run.

Drives one obs-enabled training run (lossy links, reliable delivery,
full-rate tracing, periodic flushes), exports the artifacts, and asserts
the observability contract end-to-end:

* the metrics sink flushed and the final snapshot satisfies the
  drop-balance invariant (``repro.obs.invariants``);
* the exported trace is schema-valid Chrome trace-event JSON and
  actually contains message-lifecycle spans;
* the ``repro.obs report`` CLI round-trips the exported
  ``metrics.jsonl`` (exit 0, invariant HOLDS) in both table and JSON
  formats;
* obs is deterministic: a same-seed run produces an identical metrics
  export and an identical trace;
* obs is inert when off: a same-seed obs-off run reaches the identical
  traffic ledger.

Exit status 0 means the obs plane works on this checkout; any assertion
failure (or crash in the run itself) fails the build.

Usage (from the repo root)::

    PYTHONPATH=src python scripts/obs_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from dataclasses import replace

from repro.api import JobSpec, JobWorkload, build_trainer, build_workload
from repro.core.config import TrainingConfig
from repro.obs.invariants import assert_drop_balance, drop_balance_from_metrics
from repro.obs.tracing import validate_chrome_trace
from repro.simnet.topology import star_topology

SPEC = JobSpec(
    name="obs-smoke",
    workload=JobWorkload(num_samples=320, num_end_systems=8),
    config=TrainingConfig(
        epochs=1,
        batch_size=16,
        mode="asynchronous",
        max_queue_size=2,
        server_step_time_s=0.004,
        reliable_delivery=True,
        retry_timeout_s=0.01,
    ),
)


def run_once(pieces, obs_dir=None, obs_enabled=True):
    workload = SPEC.workload
    latencies = list(np.linspace(0.002, 0.03, workload.num_end_systems))
    topology = star_topology(
        workload.num_end_systems,
        latencies_s=latencies,
        drop_probability=0.1,
        seed=workload.seed,
    )
    config = SPEC.config
    if obs_enabled:
        config = replace(config, obs_enabled=True, obs_trace_sample_rate=1.0,
                         obs_flush_every_s=0.05, obs_dir=obs_dir)
    trainer = build_trainer(replace(SPEC, config=config), pieces=pieces, topology=topology)
    history = trainer.train()
    return trainer, history


def main() -> int:
    pieces = build_workload(SPEC.workload)

    with tempfile.TemporaryDirectory(prefix="obs_smoke_") as tmp:
        out = Path(tmp) / "run"
        trainer, history = run_once(pieces, obs_dir=str(out))

        # The smoke must exercise the plane, not sail past it.
        obs = history.observability()
        assert trainer.obs.enabled, "obs bundle was not enabled"
        assert obs["flushes"] > 0, "the metrics sink never flushed"
        assert obs["trace_emitted"] > 0, "the tracer emitted nothing"

        # The live registry snapshot satisfies the drop ledger both via
        # the trainer objects and via the exported metric names.
        assert_drop_balance(trainer)
        balance = drop_balance_from_metrics(trainer.obs.last_snapshot())
        assert balance.holds, f"metrics-view ledger violated: {balance.describe()}"

        # Exported artifacts: schema-valid trace, parseable JSONL.
        metrics_path = out / "metrics.jsonl"
        trace_path = out / "trace.json"
        assert metrics_path.exists() and trace_path.exists(), (
            "obs export did not write metrics.jsonl + trace.json"
        )
        trace = json.loads(trace_path.read_text())
        problems = validate_chrome_trace(trace)
        assert not problems, f"invalid Chrome trace: {problems[:5]}"
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert spans, "trace contains no lifecycle spans"
        rows = [json.loads(line) for line in metrics_path.read_text().splitlines()]
        assert len(rows) == obs["flushes"], "JSONL row count != flush count"

        # The report CLI round-trips the export.
        for fmt in ("table", "json"):
            result = subprocess.run(
                [sys.executable, "-m", "repro.obs", "report",
                 str(metrics_path), "--format", fmt],
                capture_output=True, text=True,
                env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            )
            assert result.returncode == 0, (
                f"report --format {fmt} failed "
                f"({result.returncode}):\n{result.stderr}"
            )
        assert "HOLDS" in result.stdout or json.loads(result.stdout), (
            "report produced no output"
        )

        # Determinism: a same-seed obs run exports identical artifacts.
        # The ``perf.*`` series are profiling, not physics — workspace
        # cache hits/misses depend on process-level allocator state, so
        # they are exempt (exactly like ``flush_wall_ms``).
        def physics_rows(path: Path):
            return [
                {"t": row["t"],
                 "metrics": [m for m in row["metrics"]
                             if not m["name"].startswith("perf.")]}
                for row in map(json.loads, path.read_text().splitlines())
            ]

        twin_out = Path(tmp) / "twin"
        twin, _ = run_once(pieces, obs_dir=str(twin_out))
        assert physics_rows(twin_out / "metrics.jsonl") == physics_rows(metrics_path), (
            "same-seed runs exported different metrics"
        )
        assert (twin_out / "trace.json").read_text() == trace_path.read_text(), (
            "same-seed runs exported different traces"
        )

        # Inertness: obs-off reaches the identical physical run.
        off, _ = run_once(pieces, obs_enabled=False)
        assert not off.obs.enabled and off.obs.flushes == 0
        assert off.transport.log.summary() == trainer.transport.log.summary(), (
            "enabling obs changed the traffic ledger"
        )

        print("obs smoke OK: "
              f"flushes={obs['flushes']}, "
              f"metric_rows={obs['metric_rows']}, "
              f"trace_events={obs['trace_events']}, "
              f"trace_emitted={obs['trace_emitted']}, "
              f"spans={len(spans)}, "
              f"queue_dropped={balance.queue_dropped}, "
              f"notified={balance.notified}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
