"""Reproduce the paper's Table I: accuracy vs. layers at the end-systems.

Runs the Table-I sweep (cut = nothing, L1, L1-L2, ...) on the laptop-scale
workload and prints the measured accuracies next to the values the paper
reports for CIFAR-10.  Pass ``--scale paper`` for the full-size Fig.-3 CNN
on 32x32 images (takes minutes instead of seconds).

Run with::

    python examples/reproduce_table1.py
    python examples/reproduce_table1.py --scale paper --epochs 15
"""

from __future__ import annotations

import argparse

from repro.experiments import get_experiment, on_preset, run_table1


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scale", choices=["laptop", "paper"], default="laptop")
    parser.add_argument("--samples", type=int, default=None, help="synthetic dataset size")
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--end-systems", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    overrides = {"num_end_systems": args.end_systems, "seed": args.seed}
    if args.samples is not None:
        overrides["num_samples"] = args.samples
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    spec = on_preset(get_experiment("table1").base_spec(), args.scale, **overrides)

    print(f"workload: scale={spec.workload.scale}, {spec.workload.num_samples} samples, "
          f"{spec.workload.num_end_systems} end-systems, {spec.config.epochs} epochs")
    print("running the Table-I sweep (this trains one model per row)...\n")

    result = run_table1(spec)
    print(result.to_table())
    print()

    accuracies = result.column("accuracy_pct")
    degradation = accuracies[0] - min(accuracies)
    print(f"measured worst-case degradation vs. centralized: {degradation:.2f} points")
    print("paper's worst-case degradation (Table I):          5.43 points")
    print("\nExpected shape: the centralized row is the best and accuracy degrades")
    print("gradually as more blocks move to the end-systems, while raw data never")
    print("leaves them for any row except the first.")


if __name__ == "__main__":
    main()
