"""Tier-1 tests of ``benchmarks/ab.py``: its table and verdict on canned
reports, and how it checks the two sides out (on a throwaway repository
whose ``run.py`` only writes a report)."""

import json
import subprocess
import tempfile
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


FAKE_RUN = """\
import json, sys
from pathlib import Path

out = Path(sys.argv[sys.argv.index("--out") + 1])
contract = json.loads(Path("BENCHMARK.json").read_text())
metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in contract["end_to_end"]}
out.write_text(json.dumps({"workloads": {w["name"]: {"metrics": metrics}
                                         for w in contract["workloads"]}}))
"""


def git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c",
                           "user.email=t@t", *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def throwaway_repo(root):
    """A committed repository with the benchmark contract, a fake ``run.py``
    and a ``compare.py`` that agrees with everything."""
    repo = root / "repo"
    (repo / "benchmarks" / "e2e").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text(json.dumps(CONTRACT))
    (repo / "benchmarks" / "e2e" / "run.py").write_text(FAKE_RUN)
    (repo / "benchmarks" / "e2e" / "compare.py").write_text("")
    (repo / "tracked.txt").write_text("committed")
    (repo / ".gitignore").write_text("ignored*.txt\n")
    git(repo, "init", "--quiet")
    git(repo, "add", "--all")
    git(repo, "commit", "--quiet", "-m", "base")
    return repo


def test_side_b_is_a_fresh_clone_of_the_working_tree(tmp_path, monkeypatch):
    repo = throwaway_repo(tmp_path)
    (repo / "tracked.txt").write_text("edited")
    (repo / "untracked.txt").write_text("new")
    (repo / "ignored.txt").write_text("ignored")
    git(repo, "add", "--force", "ignored.txt")  # staged, so tracked despite .gitignore
    (repo / "ignored_too.txt").write_text("never staged")

    def state():
        return (git(repo, "status", "--porcelain", "--untracked-files=all"),
                git(repo, "rev-parse", "HEAD"), git(repo, "ls-files", "--stage"))

    before = state()
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(ab, "REPO", repo)
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    seen = []
    run = subprocess.run

    def recording_run(command, *args, **kwargs):
        done = run(command, *args, **kwargs)
        if "benchmarks/e2e/run.py" in command:
            tree = Path(kwargs["cwd"])
            seen.append((tree, (tree / "tracked.txt").read_text(),
                         sorted(path.name for path in tree.glob("*.txt"))))
        return done

    monkeypatch.setattr(subprocess, "run", recording_run)
    assert ab.main(["HEAD", "--pairs", "2", "--seconds", "1"]) == 0
    monkeypatch.setattr(subprocess, "run", run)

    assert state() == before
    assert [tree.name for tree, _, _ in seen] == ["a", "b", "b", "a"]
    assert all(tree.resolve() != repo.resolve() for tree, _, _ in seen)
    assert len({tree.parent for tree, _, _ in seen}) == 1
    assert {tree.parent.parent for tree, _, _ in seen} == {scratch}
    for tree, tracked, files in seen:
        if tree.name == "a":
            assert (tracked, files) == ("committed", ["tracked.txt"])
        else:
            assert (tracked, files) == ("edited", ["ignored.txt", "tracked.txt",
                                                   "untracked.txt"])
