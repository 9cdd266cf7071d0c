"""Experiment rows pinned to ``fixtures/experiments_parent.json``.

Every registered experiment runs through ``repro-experiments run <name>
--json`` on a tiny float64 laptop workload, so each default row of all ten
sweeps is compared; ``staleness`` and ``queue_congestion`` also run with no
workload flag, on their canonical workloads.  The fixture was written by the
last commit whose experiments described their workload with a separate
harness dataclass and built their trainers by hand; the rows, and every
metadata key but ``workload``, must match it byte for byte.  ``workload``
became the base JobSpec's JSON, so it is compared field by field with the
recorded workload description (the workload section plus ``epochs``,
``batch_size`` and ``seed``).

Host wall-clock columns are blanked before recording and comparing.  This
module is both the recorder and the test (see ``fixtures/README.md``): run
as a script with the recording commit's ``src`` on ``PYTHONPATH`` it
writes the fixture.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

import numpy as np
import pytest

from repro.experiments.cli import main
from repro.nn.dtype import default_dtype

GOLDEN = Path(__file__).parent / "fixtures" / "experiments_parent.json"

TINY = ["--num-samples", "80", "--end-systems", "2", "--epochs", "1", "--batch-size", "8"]
EXPERIMENTS = ("baselines", "chaos_matrix", "clients_sweep", "compression", "figure4",
               "queue_congestion", "server_failover", "server_sharding", "table1")

#: Each case is the CLI's argv.  ``staleness`` needs one end-system per
#: latency (four), so its flagged run leaves ``--end-systems`` unset.
CASES: List[List[str]] = (
    [["run", name, *TINY, "--json"] for name in EXPERIMENTS]
    + [["run", "staleness", *TINY[:2], *TINY[4:], "--json"],
       ["run", "staleness", "--json"],
       ["run", "queue_congestion", "--json"]]
)

#: Columns that read the host clock, not the simulation.
WALL_CLOCK_COLUMNS = ("wall_time_s", "ckpt_wall_ms")


def run_case(argv: List[str]) -> Dict[str, Any]:
    """The case's JSON result with wall-clock cells blanked."""
    out = io.StringIO()
    with default_dtype(np.float64), contextlib.redirect_stdout(out):
        assert main(argv) == 0
    result = json.loads(out.getvalue())
    for column in WALL_CLOCK_COLUMNS:
        if column in result["headers"]:
            index = result["headers"].index(column)
            for row in result["rows"]:
                row[index] = None
    return result


def as_text(payload: Any) -> str:
    """Canonical text of a payload (NaN-safe, unlike comparing dicts)."""
    return json.dumps(payload, indent=1, sort_keys=True, default=str)


def record() -> Dict[str, Any]:
    cases = []
    for argv in CASES:
        result = run_case(argv)
        workload = result["metadata"].pop("workload")
        cases.append({"argv": argv, "workload": workload, "result": result})
    return {"cases": cases}


def workload_fields(spec: Dict[str, Any]) -> Dict[str, Any]:
    """A base JobSpec's JSON cut to the recorded workload description."""
    fields = {key: value for key, value in spec["workload"].items() if key != "client_blocks"}
    fields.update(epochs=spec["config"]["epochs"], batch_size=spec["config"]["batch_size"])
    return fields


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text())


def test_cases_are_the_recorded_ones(golden):
    assert [case["argv"] for case in golden["cases"]] == CASES


@pytest.mark.parametrize("index", range(len(CASES)), ids=lambda i: " ".join(CASES[i][1:2] + (
    ["flagged"] if len(CASES[i]) > 3 else ["canonical"])))
def test_rows_match_the_parent(index, golden):
    case = golden["cases"][index]
    result = run_case(case["argv"])
    spec = result["metadata"].pop("workload")
    assert as_text(result) == as_text(case["result"])
    assert as_text(workload_fields(spec)) == as_text(case["workload"])
    assert spec["config"]["seed"] == spec["workload"]["seed"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(as_text(record()) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
