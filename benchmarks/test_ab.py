"""Tier-1 tests of ``benchmarks/ab.py``'s table and verdict on canned reports."""

import json
from pathlib import Path

import ab

CONTRACT = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def report(**workloads):
    """A ``run.py --out`` payload with the given end-to-end values per workload."""
    return {"workloads": {
        name: {"metrics": {metric: {"value": value, "unit": "?"}
                           for metric, value in metrics.items()}}
        for name, metrics in workloads.items()}}


def metrics(train, rss=300.0):
    return {"setup_s": 0.17, "train_samples_per_s": train, "eval_samples_per_s": 3000.0,
            "resume_s": 0.06, "peak_rss_mb": rss}


def test_gain_needs_nine_tenths_of_pairs_and_a_gap_wider_than_the_parent_iqr():
    base = [780.0, 790.0, 785.0, 800.0, 775.0, 795.0, 788.0, 782.0, 791.0, 786.0]
    clear = ab.judge([(a, a * 1.35) for a in base], "higher")
    assert clear["verdict"] == "B better" and clear["wins"] == 10 and clear["losses"] == 0
    assert abs(clear["ratio"] - 1.35) < 1e-9
    assert clear["quartiles_a"][0] < clear["median_a"] < clear["quartiles_a"][1]

    # Eight wins of ten is not nine tenths, however large the median gap.
    mixed = [(a, a * (1.35 if i >= 2 else 0.99)) for i, a in enumerate(base)]
    assert ab.judge(mixed, "higher")["verdict"] == "no call"

    # Ten wins of ten by less than the parent's own interquartile distance.
    assert ab.judge([(a, a + 1.0) for a in base], "higher")["verdict"] == "no call"

    # Ties count for neither side.
    tied = ab.judge([(a, a) for a in base], "higher")
    assert (tied["wins"], tied["losses"], tied["verdict"]) == (0, 0, "no call")


def test_direction_follows_the_metric():
    pairs = [(300.0 + i, 270.0 + i) for i in range(10)]
    assert ab.judge(pairs, "lower")["verdict"] == "B better"
    assert ab.judge(pairs, "higher")["verdict"] == "B worse"
    assert ab.judge(pairs[:1], "lower")["verdict"] == "B better"  # one pair: IQR is 0


def test_table_pairs_runs_by_position_and_skips_workloads_not_run():
    side_a = [report(paper_sync=metrics(780.0 + i)) for i in range(10)]
    side_b = [report(paper_sync=metrics(1060.0 + i, rss=280.0)) for i in range(10)]
    lines = ab.table(side_a, side_b, CONTRACT)
    assert len(lines) == 2 * len(CONTRACT["end_to_end"])  # one workload, a row + its pairs
    assert not any("fanout_async" in line for line in lines)
    train = next(i for i, line in enumerate(lines)
                 if line.startswith("paper_sync train_samples_per_s"))
    assert "B wins 10/10" in lines[train] and lines[train].endswith("B better")
    assert "780→1060" in lines[train + 1] and "789→1069" in lines[train + 1]
    rss = next(line for line in lines if line.startswith("paper_sync peak_rss_mb"))
    assert "lower is better" in rss and rss.endswith("B better")
    setup = next(line for line in lines if line.startswith("paper_sync setup_s"))
    assert "B wins 0/10, loses 0" in setup and setup.endswith("no call")
