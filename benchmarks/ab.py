#!/usr/bin/env python3
"""Paired A/B of the repo benchmark: a revision (A) against this tree (B).

    python3 benchmarks/ab.py <rev> [--workload W] [--pairs N] [--seconds S] [--seed K]

Checks ``<rev>`` out into a throwaway clone (A) and this working tree —
tracked edits and untracked, non-ignored files alike — into a second one
(B), so the sides differ in the change alone: both are fresh checkouts at
the same depth under ``TMPDIR``, with no bytecode caches and no
``benchmarks/e2e/.work`` residue.  The working tree reaches B as a commit
object written through a temporary index; the real index, ``HEAD`` and the
files stay as they were.  ``benchmarks/e2e/run.py`` then runs in both
clones ``N`` times with the same arguments — alternating which side goes
first, because host slow-downs on a shared box last longer than one run —
and the script prints, per workload × end-to-end metric, every pair's
values, how many pairs B won, each side's median and quartiles, and a
verdict by the rule a claimed gain is judged by: B wins at least nine
tenths of the pairs (ties count for neither) *and* the medians differ by
more than the distance between A's own quartiles.
``benchmarks/e2e/compare.py`` then checks the deterministic part
(``sim_digest``, ``failed_share``) over the same reports.  Each side runs
the benchmark files of its own tree, so the comparison is only meaningful
between revisions that share them.

The clones and the reports live in a temporary directory (``TMPDIR``) that
is removed on exit.  Exit code: ``compare.py``'s.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

REPO = Path(__file__).resolve().parents[1]

Pairs = List[Tuple[float, float]]  # (A value, B value) per pair


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """(Q1, Q3); both the value itself for a single run."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def judge(pairs: Pairs, better: str) -> Dict[str, Any]:
    """Wins, medians, quartiles and the verdict for one workload × metric.

    ``verdict`` is ``"B better"`` / ``"B worse"`` when one side wins at
    least 9/10 of all pairs and the medians are further apart than A's
    interquartile distance, else ``"no call"``.
    """
    a = [pair[0] for pair in pairs]
    b = [pair[1] for pair in pairs]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    losses = sum(sign * (y - x) < 0 for x, y in pairs)
    median_a, median_b = statistics.median(a), statistics.median(b)
    q1, q3 = quartiles(a)
    verdict = "no call"
    if abs(median_b - median_a) > q3 - q1:
        if wins >= 0.9 * len(pairs) and sign * (median_b - median_a) > 0:
            verdict = "B better"
        elif losses >= 0.9 * len(pairs) and sign * (median_b - median_a) < 0:
            verdict = "B worse"
    return {"wins": wins, "losses": losses, "pairs": len(pairs),
            "median_a": median_a, "median_b": median_b,
            "quartiles_a": (q1, q3), "quartiles_b": quartiles(b),
            "ratio": median_b / median_a if median_a else float("nan"),
            "verdict": verdict}


def paired_values(reports_a: Sequence[Dict[str, Any]], reports_b: Sequence[Dict[str, Any]],
                  workload: str, metric: str) -> Pairs:
    """``metric`` of ``workload`` from the i-th ``--out`` payload of each side."""
    def value(payload: Dict[str, Any]) -> float:
        return float(payload["workloads"][workload]["metrics"][metric]["value"])
    return [(value(a), value(b)) for a, b in zip(reports_a, reports_b)]


def table(reports_a: Sequence[Dict[str, Any]], reports_b: Sequence[Dict[str, Any]],
          contract: Dict[str, Any]) -> List[str]:
    """The printable A/B table for every workload both sides ran."""
    lines: List[str] = []
    for workload in (w["name"] for w in contract["workloads"]):
        if not all(workload in payload["workloads"] for payload in (*reports_a, *reports_b)):
            continue
        for metric in contract["end_to_end"]:
            pairs = paired_values(reports_a, reports_b, workload, metric["name"])
            row = judge(pairs, metric["better"])
            lines.append(
                f"{workload} {metric['name']} [{metric['unit']}, {metric['better']} is better]: "
                f"B wins {row['wins']}/{row['pairs']}, loses {row['losses']}; "
                f"median A {row['median_a']:.6g} (Q1 {row['quartiles_a'][0]:.6g}, "
                f"Q3 {row['quartiles_a'][1]:.6g}) → B {row['median_b']:.6g} "
                f"(Q1 {row['quartiles_b'][0]:.6g}, Q3 {row['quartiles_b'][1]:.6g}); "
                f"B/A {row['ratio']:.3f} (base {row['median_a']:.6g}); {row['verdict']}")
            lines.append("    pairs A→B: " + "  ".join(f"{x:.6g}→{y:.6g}" for x, y in pairs))
    return lines


def git(*args: str, env: Optional[Dict[str, str]] = None) -> str:
    """``git -C REPO <args>``'s stripped standard output."""
    return subprocess.run(["git", "-C", str(REPO), *args], check=True, env=env,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def snapshot_worktree() -> str:
    """A commit object holding this working tree, tracked and untracked files.

    ``git add --all`` runs against a throwaway copy of the index, so neither
    the real index nor ``HEAD`` moves; the commit is reachable from no ref
    (a local clone copies it with the rest of the object store).
    """
    with tempfile.TemporaryDirectory(prefix="ab-index-") as scratch:
        index = Path(scratch) / "index"
        shutil.copyfile(REPO / git("rev-parse", "--git-path", "index"), index)
        env = dict(os.environ, GIT_INDEX_FILE=str(index),
                   GIT_AUTHOR_NAME="ab.py", GIT_AUTHOR_EMAIL="ab.py@localhost",
                   GIT_COMMITTER_NAME="ab.py", GIT_COMMITTER_EMAIL="ab.py@localhost")
        git("add", "--all", env=env)
        tree = git("write-tree", env=env)
        return git("commit-tree", tree, "-p", "HEAD", "-m", "ab.py: working tree", env=env)


def checkout(rev: str, tree: Path) -> None:
    """A fresh clone of REPO at ``tree``, detached at ``rev``."""
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(REPO), str(tree)],
                   check=True)
    subprocess.run(["git", "-C", str(tree), "checkout", "--quiet", "--detach", rev],
                   check=True)


def run_side(tree: Path, out: Path, args: argparse.Namespace) -> None:
    command = [sys.executable, "benchmarks/e2e/run.py", "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0", "--out", str(out)]
    if args.workload:
        command += ["--workload", args.workload]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True)
    if not out.exists():
        raise SystemExit(f"run.py produced no report in {tree} (exit {done.returncode}):\n"
                         f"{done.stdout[-2000:]}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    contract = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the revision to compare this tree against (side A)")
    parser.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]],
                        help="omit to run all of them")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        trees = {"a": Path(scratch) / "a", "b": Path(scratch) / "b"}
        checkout(args.rev, trees["a"])
        checkout(snapshot_worktree(), trees["b"])
        files: Dict[str, List[Path]] = {"a": [], "b": []}
        for index in range(args.pairs):
            order = ("a", "b") if index % 2 == 0 else ("b", "a")
            for side in order:
                out = Path(scratch) / f"{side}{index}.json"
                run_side(trees[side], out, args)
                files[side].append(out)
            print(f"pair {index + 1}/{args.pairs} done ({order[0]} first)", flush=True)
        reports = {side: [json.loads(path.read_text(encoding="utf-8")) for path in paths]
                   for side, paths in files.items()}
        print(f"\nA = {args.rev}, B = this tree; seed {args.seed}, {args.seconds:g} s per run")
        print("\n".join(table(reports["a"], reports["b"], contract)), flush=True)
        print()
        compared = subprocess.run(
            [sys.executable, "benchmarks/e2e/compare.py", *map(str, files["a"]), "--",
             *map(str, files["b"])], cwd=trees["b"])
    return compared.returncode


if __name__ == "__main__":
    sys.exit(main())
