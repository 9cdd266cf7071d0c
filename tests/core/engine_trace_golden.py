"""Cells and capture behind ``fixtures/engine_trace_parent.json``.

The fixture pins the engine's trace content — every event the tracer
records, its order and its bytes — for the 30 cells of
``engine_kernel_golden.py`` (same tiny workload, same topology), each run
with the observability plane on at two trace sample rates: 1.0 (every
batch) and 0.5 (the seeded per-batch sampler).  Per run it stores the
SHA-256 of the canonical ``tracer.chrome_trace()`` JSON and the count of
each event name, so the fixture stays a few kB while any moved, missing,
reordered or re-argued event still fails the check.

This module is both the recorder and the test's helper: run as a script
with the recording commit's ``src`` on ``PYTHONPATH`` it writes the fixture
(see ``fixtures/README.md``); ``test_engine_trace.py`` imports the same
cells and ``capture`` and compares what the current code produces, exactly.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Tuple

import numpy as np

import engine_kernel_golden as kernel_golden

GOLDEN = Path(__file__).parent / "fixtures" / "engine_trace_parent.json"

#: Trace sample rates: everything, and the seeded half.
RATES = (1.0, 0.5)

#: ``"<kernel cell>@<rate>"`` -> (kernel cell, sample rate).
CASES: Dict[str, Tuple[str, float]] = {
    f"{name}@{rate}": (name, rate)
    for name in kernel_golden.CELLS for rate in RATES
}


def run_traced(spec, parts, normalize, name: str, rate: float):
    """Train one kernel cell with tracing on; returns the trainer."""
    overrides = dict(kernel_golden.CELLS[name], obs_enabled=True,
                     obs_trace_sample_rate=rate)
    trainer = kernel_golden.make_trainer(spec, parts, normalize, overrides)
    if name == "async-budget":
        trainer.train_time_budget(kernel_golden.BUDGET_S)
    else:
        trainer.train()
    return trainer


def capture(trainer) -> Dict[str, Any]:
    """The trace's digest (canonical JSON) and its per-name event counts."""
    payload = trainer.obs.tracer.chrome_trace()
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    counts = Counter(event["name"] for event in payload["traceEvents"])
    return {"sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            "events": dict(sorted(counts.items()))}


def run_case(spec, parts, normalize, case: str) -> Dict[str, Any]:
    return capture(run_traced(spec, parts, normalize, *CASES[case]))


def main() -> None:
    from repro.nn.dtype import default_dtype

    with default_dtype(np.float64):
        spec, parts, normalize = kernel_golden.fault_golden._tiny_workload()
        golden = {case: run_case(spec, parts, normalize, case) for case in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(golden)} runs)", file=sys.stderr)


if __name__ == "__main__":
    main()
