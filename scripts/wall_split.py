#!/usr/bin/env python3
"""Untraced wall-time split of one benchmark workload's training run.

    python3 scripts/wall_split.py --workload fanout_async --passes 5 [--seed 0] [--tree DIR]

Runs the in-process workloads of ``benchmarks/e2e/workloads.py`` (imported,
never modified: nothing is written under ``benchmarks/e2e/``) with the span
tracer off, and wraps a fixed list of entry points in ``perf_counter``
accumulators that count only while ``SpatioTemporalTrainer.train`` runs.
One warm-up pass is discarded; each row is the median over ``--passes``
timed passes of the milliseconds spent inside that entry point (outermost
calls only), and its share of the pass's ``train()`` wall time.  The last
row is what none of the disjoint top-level rows cover: the event engine's
own Python, the simulator and the queue.  On ``storm_cluster`` the
"checkpoint writes" row (``save_shard``/``save_run``: serialise, write,
manifest commit) and the "obs flush/export" row keep those costs out of
the remainder.

The accumulators cost about a microsecond a call, so the split is for
telling where the time goes, never for an end-to-end number (that is
``benchmarks/e2e/run.py --trace 0``).  ``--tree`` measures another checkout
(e.g. a clone of the parent commit) with this script's entry-point list.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import os
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

#: BLAS threading pinned as the benchmark pins it, before NumPy loads.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: ``(row, nested, [(module, class, attribute, is_generator), ...])``.  Rows
#: that are not ``nested`` never call one another, so together with the
#: remainder they partition the pass; a nested row is part of the row(s)
#: above it.
ENTRY_POINTS: Tuple[Tuple[str, bool, List[Tuple[str, str, str, bool]]], ...] = (
    ("server step", False, [
        ("repro.core.server", "CentralServer", "process_pending_batch", False),
        ("repro.core.server", "CentralServer", "process_next", False),
    ]),
    ("  autograd backward", True, [
        ("repro.nn.tensor", "Tensor", "backward", False),
    ]),
    ("client forward/apply", False, [
        ("repro.core.end_system", "EndSystem", "forward_batch", False),
        ("repro.core.end_system", "EndSystem", "apply_gradient", False),
    ]),
    ("transport sends", False, [
        ("repro.simnet.transport", "Transport", "send_to_server", False),
        ("repro.simnet.transport", "Transport", "send_to_end_system", False),
        ("repro.simnet.transport", "Transport", "send_between_servers", False),
    ]),
    ("loader", False, [
        ("repro.data.loader", "DataLoader", "__iter__", True),
    ]),
    ("checkpoint writes", False, [
        ("repro.state.store", "CheckpointStore", "save_shard", False),
        ("repro.state.store", "CheckpointStore", "save_run", False),
    ]),
    ("obs flush/export", False, [
        ("repro.obs.plane", "Observability", "flush", False),
        ("repro.obs.plane", "Observability", "write", False),
        ("repro.obs.plane", "Observability", "write_trace", False),
    ]),
)
REMAINDER = "engine, simulator, queue (rest)"
IN_PROCESS = ("paper_sync", "fanout_async", "storm_cluster")


class WallSplit:
    """``perf_counter`` accumulators around the entry points, per pass."""

    def __init__(self) -> None:
        self.active = False
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._depth: Counter = Counter()
        self.train_s = 0.0

    def timed(self, row: str, func: Callable[..., Any]) -> Callable[..., Any]:
        clock = time.perf_counter

        def call(*args: Any, **kwargs: Any) -> Any:
            if not self.active or self._depth[row]:
                return func(*args, **kwargs)
            self._depth[row] += 1
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                self.seconds[row] += clock() - start
                self.calls[row] += 1
                self._depth[row] -= 1

        return functools.wraps(func)(call)

    def timed_iter(self, row: str, func: Callable[..., Any]) -> Callable[..., Any]:
        """A generator function whose every ``next`` is one timed call."""
        clock = time.perf_counter

        def iterate(*args: Any, **kwargs: Any) -> Any:
            iterator = func(*args, **kwargs)
            while True:
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    if self.active:
                        self.seconds[row] += clock() - start
                        self.calls[row] += 1
                yield item

        return functools.wraps(func)(iterate)

    def around_train(self, func: Callable[..., Any]) -> Callable[..., Any]:
        def train(*args: Any, **kwargs: Any) -> Any:
            self.active = True
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self.train_s += time.perf_counter() - start
                self.active = False

        return functools.wraps(func)(train)

    def install(self) -> None:
        for row, _, seams in ENTRY_POINTS:
            for module, owner, attribute, is_generator in seams:
                cls = getattr(importlib.import_module(module), owner)
                original = getattr(cls, attribute)
                wrap = self.timed_iter if is_generator else self.timed
                setattr(cls, attribute, wrap(row, original))
        trainer = importlib.import_module("repro.core.trainer").SpatioTemporalTrainer
        trainer.train = self.around_train(trainer.train)

    def take(self) -> Dict[str, Tuple[float, int]]:
        """This pass's ``row -> (ms, calls)`` (the remainder included); resets."""
        rows = {row: (self.seconds[row] * 1e3, self.calls[row]) for row, _, _ in ENTRY_POINTS}
        covered = sum(self.seconds[row] for row, nested, _ in ENTRY_POINTS if not nested)
        rows[REMAINDER] = ((self.train_s - covered) * 1e3, 0)
        rows["train() wall"] = (self.train_s * 1e3, 0)
        self.seconds.clear()
        self.calls.clear()
        self.train_s = 0.0
        return rows


def main() -> int:
    here = Path(__file__).resolve().parents[1]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=IN_PROCESS, default="fanout_async")
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tree", type=Path, default=here,
                        help="checkout whose src/ and benchmarks/e2e/ are measured")
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    os.environ.update(PINNED_ENV)
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "benchmarks" / "e2e")]
    import numpy as np
    from repro.nn import set_default_dtype
    from tracing import NULL_TRACER
    from workloads import BUILDERS

    set_default_dtype(np.float32)
    split = WallSplit()
    split.install()
    passes: List[Dict[str, Tuple[float, int]]] = []
    with tempfile.TemporaryDirectory(prefix="wall-split-") as workdir:
        workload = BUILDERS[args.workload](args.seed, Path(workdir), NULL_TRACER)
        try:
            for index in range(args.passes + 1):
                workload.run_pass()
                rows = split.take()
                gc.collect()
                if index == 0:
                    gc.freeze()  # the warm-up pass fills caches; it is not reported
                else:
                    passes.append(rows)
        finally:
            workload.close()

    wall = statistics.median(rows["train() wall"][0] for rows in passes)
    print(f"{args.workload} seed {args.seed}, {args.passes} passes "
          f"(tree {tree}): train() {wall:.1f} ms/pass (median)")
    print(f"{'entry point':34s}{'calls/pass':>11s}{'ms/pass':>10s}{'share':>8s}")
    for row in [row for row, _, _ in ENTRY_POINTS] + [REMAINDER]:
        ms = statistics.median(rows[row][0] for rows in passes)
        share = statistics.median(rows[row][0] / rows["train() wall"][0] for rows in passes)
        calls = passes[-1][row][1]
        print(f"{row:34s}{calls if calls else '':>11}{ms:10.1f}{share:8.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
