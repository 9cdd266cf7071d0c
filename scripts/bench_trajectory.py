#!/usr/bin/env python
"""Print the committed ``BENCH_<pr>.json`` trajectory, one series per
workload x end-to-end metric (``python scripts/bench_trajectory.py``).
A malformed or incomplete BENCH file raises, which is the CI check."""
import json
import re
from pathlib import Path

root = Path(__file__).resolve().parent.parent
declared = json.loads((root / "BENCHMARK.json").read_text())
runs = sorted((int(re.search(r"\d+", path.stem).group()), json.loads(path.read_text()))
              for path in root.glob("BENCH_[0-9]*.json"))
print("PR".ljust(36) + "".join(f"{pr:>12d}" for pr, _ in runs))
for workload in (w["name"] for w in declared["workloads"]):
    for metric in (m["name"] for m in declared["end_to_end"]):
        series = [run["workloads"][workload]["metrics"][metric]["value"] for _, run in runs]
        print(f"{workload + ' ' + metric:36s}" + "".join(f"{value:12.4g}" for value in series))
