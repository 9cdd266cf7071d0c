#!/usr/bin/env python3
"""Compare two sets of ``run.py --out`` files, or calibrate the bounds from one.

    python3 benchmarks/e2e/compare.py A1.json A2.json … -- B1.json B2.json …
    python3 benchmarks/e2e/compare.py --calibrate SET1.json SET2.json …

For every end-to-end metric × workload the table gives each side's median
over its files, the ratio B/A with its base, and a verdict:

* ``ok`` — B is not worse than A by more than the metric's bound;
* ``regressed`` — it is;
* ``unresolved`` — one side's own files differ by more than the bound
  ((max − min) / median), so the comparison cannot carry a verdict.

The simulator is deterministic, so besides the timings the comparison
requires — per workload and seed — an identical ``sim_digest`` and
identical exact counts (traced files), and ``failed_share`` must not rise.
Exit code 0 only when every row is ``ok`` and nothing mismatches.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metric_defs import END_TO_END, EXACT_COUNTS, EXTRAS, WORKLOADS  # noqa: E402

Reports = Dict[Tuple[str, int], List[Dict[str, Any]]]  # (workload, trace) → reports


def load(paths: Iterable[str]) -> Reports:
    reports: Reports = defaultdict(list)
    for path in paths:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        for workload, report in payload["workloads"].items():
            reports[(workload, int(report["trace"]))].append(report)
    return reports


def gated_metrics(contract_path: Path = HERE.parents[1] / "BENCHMARK.json"
                  ) -> Dict[str, Tuple[str, float]]:
    """Metric → (better, bound): the contract's end-to-end list plus the extras."""
    contract = json.loads(contract_path.read_text(encoding="utf-8"))
    gated = {metric["name"]: (metric["better"], float(metric["bound"]))
             for metric in contract["end_to_end"]}
    gated.update({name: (extra.better, extra.bound) for name, extra in EXTRAS.items()})
    return gated


def values_of(reports: Sequence[Dict[str, Any]], metric: str) -> List[float]:
    found = []
    for report in reports:
        cell = report.get("metrics", {}).get(metric) or report.get("extras", {}).get(metric)
        if cell is not None:
            found.append(float(cell["value"]))
    return found


def spread(values: Sequence[float]) -> float:
    """(max − min) / median of one side's own files; 0 for a single file."""
    if len(values) < 2:
        return 0.0
    return (max(values) - min(values)) / statistics.median(values)


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float) -> Tuple[str, float]:
    """``(ok|regressed|unresolved, ratio new/base)`` for one metric × workload."""
    ratio = statistics.median(new) / statistics.median(base)
    if spread(base) > bound or spread(new) > bound:
        return "unresolved", ratio
    worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
    return ("regressed" if worse > bound else "ok"), ratio


def deterministic_mismatches(base: Reports, new: Reports) -> List[str]:
    """Digest, exact-count and failed-share violations, as printable lines."""
    problems: List[str] = []
    for key in sorted(set(base) | set(new)):
        workload, traced = key
        by_seed: Dict[int, Dict[str, Any]] = {}
        for side, reports in (("A", base.get(key, [])), ("B", new.get(key, []))):
            for report in reports:
                facts: Dict[str, Any] = {}
                if "sim_digest" in report:
                    facts["sim_digest"] = report["sim_digest"]
                if traced:
                    facts.update({name: report["metrics"][name]["value"]
                                  for name in EXACT_COUNTS if name in report["metrics"]})
                seen = by_seed.setdefault(report["seed"], facts)
                for name, value in facts.items():
                    if seen.get(name, value) != value:
                        problems.append(
                            f"{workload} seed {report['seed']} ({side}): {name} = {value}, "
                            f"another run of this seed had {seen[name]}")
        failed_a = max((r["failed_share"] for r in base.get(key, [])), default=0.0)
        failed_b = max((r["failed_share"] for r in new.get(key, [])), default=0.0)
        if failed_b > failed_a:
            problems.append(f"{workload}: failed_share rose from {failed_a:.4f} to "
                            f"{failed_b:.4f}")
    return problems


def compare(base: Reports, new: Reports) -> int:
    gated = gated_metrics()
    print(f"{'workload':<14} {'metric':<22} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'bound':>6} {'nA':>3} {'nB':>3}  verdict")
    bad = 0
    for workload in WORKLOADS:
        side_a, side_b = base.get((workload, 0), []), new.get((workload, 0), [])
        for metric, (better, bound) in gated.items():
            a, b = values_of(side_a, metric), values_of(side_b, metric)
            if not a or not b:
                continue
            word, ratio = verdict(a, b, better, bound)
            bad += word != "ok"
            print(f"{workload:<14} {metric:<22} {statistics.median(a):>12.6g} "
                  f"{statistics.median(b):>12.6g} {ratio:>7.3f} {bound:>6.2f} "
                  f"{len(a):>3} {len(b):>3}  {word}"
                  f"  ({better} is better; "
                  f"base {statistics.median(a):.6g})")
    problems = deterministic_mismatches(base, new)
    for line in problems:
        print("MISMATCH " + line)
    if not problems:
        print("sim_digest, exact counts and failed_share: match")
    return 1 if bad or problems else 0


def calibrate(reports: Reports) -> int:
    """Observed spread per metric × workload, and the bound to commit."""
    gated = gated_metrics()
    print(f"{'metric':<22} " + " ".join(f"{name:>14}" for name in WORKLOADS)
          + f" {'bound':>7}  note")
    for metric in [*END_TO_END, *EXTRAS]:
        spreads: List[Optional[float]] = []
        for workload in WORKLOADS:
            values = values_of(reports.get((workload, 0), []), metric)
            spreads.append(spread(values) if len(values) >= 2 else None)
        present = [value for value in spreads if value is not None]
        if not present:
            continue
        bound = max(0.10, 2.0 * max(present))
        note = "" if max(present) <= 0.10 else "spread > 0.10: rework or demote"
        if metric in gated and gated[metric][1] < bound:
            note = (note + "; " if note else "") + f"committed bound {gated[metric][1]} is tighter"
        cells = " ".join(f"{'—':>14}" if value is None else f"{value:>14.4f}"
                         for value in spreads)
        print(f"{metric:<22} {cells} {bound:>7.3f}  {note}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    # Parsed by hand: argparse swallows the bare "--" that separates the sets.
    args = list(sys.argv[1:] if argv is None else argv)
    if args and args[0] == "--calibrate" and len(args) > 1:
        return calibrate(load(args[1:]))
    if "--" in args and 0 < args.index("--") < len(args) - 1:
        split = args.index("--")
        return compare(load(args[:split]), load(args[split + 1:]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
