"""Compare spatio-temporal split learning against the standard alternatives.

Trains four paradigms on the *same* partitioned workload and budget:

* centralized training (all raw data pooled at the server — no privacy),
* sequential split learning (one shared client segment visited in turns,
  the classic Vepakomma et al. protocol),
* FedAvg (every client trains a full local model copy; weights averaged),
* spatio-temporal split learning (this paper).

The comparison prints accuracy, whether raw data ever leaves a client,
and the number of parameters a client has to host — the three axes the
paper's introduction argues about.

Run with::

    python examples/compare_baselines.py
"""

from __future__ import annotations

import argparse

from repro.experiments import get_experiment, on_preset, run_baselines_comparison


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--samples", type=int, default=1200)
    parser.add_argument("--epochs", type=int, default=6)
    parser.add_argument("--end-systems", type=int, default=4)
    parser.add_argument("--client-blocks", type=int, default=1,
                        help="CNN blocks held by each end-system for the split variants")
    args = parser.parse_args()

    spec = on_preset(
        get_experiment("baselines").base_spec(),
        num_samples=args.samples,
        epochs=args.epochs,
        num_end_systems=args.end_systems,
        client_blocks=args.client_blocks,
    )
    print(f"workload: {spec.workload.num_samples} samples across "
          f"{spec.workload.num_end_systems} clients, {spec.config.epochs} epochs/rounds each\n")
    print("training all four paradigms (this takes a few minutes)...\n")

    result = run_baselines_comparison(spec)
    print(result.to_table())
    print()
    print("How to read this table:")
    print(" * 'centralized' is the non-private upper bound (Table I row 1).")
    print(" * the split variants keep raw data on the clients and only host the first")
    print(f"   {args.client_blocks} block(s) locally — a tiny fraction of the full model.")
    print(" * FedAvg also keeps data local but every client must host and train the")
    print("   entire network, which is exactly what thin medical end-systems cannot do.")


if __name__ == "__main__":
    main()
