"""Command-line entry point: ``repro-experiments``.

Examples
--------
List everything that can be reproduced::

    repro-experiments list

Reproduce Table I on its base spec (each experiment defines its own —
the congestion and sharding sweeps use a 100+ client star; any workload
flag puts the experiment on the laptop or paper preset instead)::

    repro-experiments run table1

Reproduce Table I at the paper's full scale (minutes, not seconds)::

    repro-experiments run table1 --scale paper

Run every experiment and write the tables to a directory::

    repro-experiments run-all --output-dir results/

Drive a run-server (``python -m repro.server``) over the public job API::

    repro-experiments job submit --name demo --wait
    repro-experiments job metrics job-0001-demo
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..api import ApiError, JobSpec, RunClient, ServerUnavailable
from ..backend import available_backends, get_backend, use_backend
from ..utils.logging import set_verbosity
from .base import ExperimentResult, on_preset
from .registry import ExperimentEntry, get_experiment, list_experiments

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables and figures of 'Spatio-Temporal Split Learning' (DSN 2021).",
    )
    parser.add_argument("--verbose", "-v", action="store_true", help="enable info-level logging")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiments")

    run_parser = subparsers.add_parser("run", help="run a single experiment")
    run_parser.add_argument("experiment", help="experiment name (see 'list')")
    _add_workload_arguments(run_parser)

    run_all_parser = subparsers.add_parser("run-all", help="run every registered experiment")
    _add_workload_arguments(run_all_parser)
    run_all_parser.add_argument(
        "--output-dir", type=Path, default=None,
        help="directory to write per-experiment .txt and .json results into",
    )

    job_parser = subparsers.add_parser(
        "job", help="talk to a run-server over the /v1 job API")
    job_parser.add_argument(
        "--server", default="http://127.0.0.1:8321",
        help="run-server base URL (default: http://127.0.0.1:8321)")
    job_subparsers = job_parser.add_subparsers(dest="job_command", required=True)

    submit_parser = job_subparsers.add_parser(
        "submit", help="submit a training job (JSON spec file or a preset)")
    submit_parser.add_argument(
        "--spec", type=Path, default=None,
        help="JobSpec JSON file (see JobSpec.to_json_dict); omit for the "
             "fast-debug preset")
    submit_parser.add_argument("--name", default="cli-job", help="job name")
    submit_parser.add_argument("--epochs", type=int, default=None,
                               help="override the preset's epoch budget")
    submit_parser.add_argument("--wait", action="store_true",
                               help="block until the job reaches a terminal state")

    for verb, help_text in (
        ("status", "show one job's status record"),
        ("pause", "kill the worker; the job resumes replay-exact later"),
        ("resume", "restart a paused/interrupted/failed job from its checkpoint"),
        ("cancel", "terminally stop a job"),
        ("metrics", "print the job's metrics rows (JSONL)"),
        ("result", "print the finished job's result summary"),
        ("wait", "block until the job reaches a terminal state"),
    ):
        verb_parser = job_subparsers.add_parser(verb, help=help_text)
        verb_parser.add_argument("job_id", help="job identifier (job-NNNN-...)")

    job_subparsers.add_parser("list", help="list every job on the server")
    return parser


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", choices=["laptop", "paper"], default=None,
                        help="workload size: quick laptop run or full paper-scale run "
                             "(default: the experiment's base spec for 'run', "
                             "laptop for 'run-all')")
    parser.add_argument("--num-samples", type=int, default=None,
                        help="override the synthetic dataset size")
    parser.add_argument("--end-systems", type=int, default=None,
                        help="override the number of end-systems M")
    parser.add_argument("--epochs", type=int, default=None, help="override the epoch budget")
    parser.add_argument("--batch-size", type=int, default=None, help="override the batch size")
    parser.add_argument("--seed", type=int, default=None,
                        help="master random seed (default: 0)")
    parser.add_argument("--backend", choices=available_backends(), default=None,
                        help="compute backend for this command's runs "
                             f"(default: {get_backend().name!r})")
    parser.add_argument("--json", action="store_true", help="print JSON instead of a table")


def _workload_from_args(args: argparse.Namespace,
                        required: bool = True) -> Optional[Dict[str, Any]]:
    """The preset workload fields the CLI flags set (see :func:`on_preset`).

    With ``required=False`` (the single-experiment ``run`` command) and
    no workload flag given, returns ``None`` so the experiment runs on
    its **own base spec** — e.g. ``queue_congestion`` and
    ``server_sharding`` default to a 100+ client star that a generic
    4-client override would defeat.
    """
    flags = {"scale": args.scale, "num_samples": args.num_samples,
             "num_end_systems": args.end_systems, "epochs": args.epochs,
             "batch_size": args.batch_size, "seed": args.seed}
    changes = {name: value for name, value in flags.items() if value is not None}
    if not required and not changes:
        return None
    return changes


def _run(entry: ExperimentEntry, changes: Optional[Dict[str, Any]]) -> ExperimentResult:
    """Run ``entry`` on its base spec, on a preset workload when ``changes`` is given."""
    spec = entry.base_spec()
    if changes is not None:
        spec = on_preset(spec, **changes)
    return entry.runner(spec=spec)


def _command_list() -> int:
    for entry in list_experiments():
        print(f"{entry.name:<16s} {entry.paper_artifact:<28s} {entry.description}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    result = _run(get_experiment(args.experiment), _workload_from_args(args, required=False))
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, default=str))
    else:
        print(result.to_table())
    return 0


def _command_run_all(args: argparse.Namespace) -> int:
    changes = _workload_from_args(args)
    output_dir: Optional[Path] = args.output_dir
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)
    for entry in list_experiments():
        result = _run(entry, changes)
        table = result.to_table()
        print(table)
        print()
        if output_dir is not None:
            (output_dir / f"{entry.name}.txt").write_text(table + "\n")
            (output_dir / f"{entry.name}.json").write_text(
                json.dumps(result.as_dict(), indent=2, default=str) + "\n"
            )
    return 0


def _command_job(args: argparse.Namespace) -> int:
    """Drive a run-server through the :mod:`repro.api` client SDK."""
    client = RunClient(args.server)
    try:
        if args.job_command == "submit":
            if args.spec is not None:
                spec = JobSpec.from_json_dict(
                    json.loads(args.spec.read_text()))
                if args.epochs is not None:
                    spec = replace(
                        spec, config=replace(spec.config, epochs=args.epochs))
            else:
                overrides = {} if args.epochs is None else {"epochs": args.epochs}
                spec = JobSpec.fast_debug(name=args.name, **overrides)
            job_id = client.submit(spec)
            print(job_id)
            if args.wait:
                record = client.wait(job_id)
                print(json.dumps(record, indent=2))
                return 0 if record.get("state") == "completed" else 1
            return 0
        if args.job_command == "list":
            for record in client.jobs():
                print(f"{record['job_id']:<28s} {record['state']:<12s} "
                      f"epochs {record.get('epochs_completed', 0)}"
                      f"/{record.get('epochs_total', '?')}")
            return 0
        if args.job_command == "metrics":
            sys.stdout.write(client.metrics_raw(args.job_id).decode("utf-8"))
            return 0
        if args.job_command == "wait":
            record = client.wait(args.job_id)
            print(json.dumps(record, indent=2))
            return 0 if record.get("state") == "completed" else 1
        action = {
            "status": client.status,
            "pause": client.pause,
            "resume": client.resume,
            "cancel": client.cancel,
            "result": client.result,
        }[args.job_command]
        print(json.dumps(action(args.job_id), indent=2, default=str))
        return 0
    except ServerUnavailable as exc:
        print(f"error: cannot reach run-server at {args.server}: {exc}",
              file=sys.stderr)
        return 1
    except ApiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (returns a process exit code)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        set_verbosity(logging.INFO)
    if args.command == "list":
        return _command_list()
    if args.command in ("run", "run-all"):
        # Scoped to this command: the process backend is left as found.
        with use_backend(args.backend):
            return _command_run(args) if args.command == "run" else _command_run_all(args)
    if args.command == "job":
        return _command_job(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
