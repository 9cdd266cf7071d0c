"""Unit tests of the repo benchmark's own machinery (tier-1, a few seconds).

They check the harness, not the system: the estimator and batching on
synthetic samples, self-time and cause resolution on hand-built spans,
that every seam is restored when the tracer exits, that the names in code
match ``BENCHMARK.json``, and ``compare.py``'s verdicts on fabricated
files.  No workload runs here — a full run is 30 s per workload.
"""

from __future__ import annotations

import importlib
import json
import re
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import metric_defs  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402

CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))


# --------------------------------------------------------------------------- #
# Estimator and batching
# --------------------------------------------------------------------------- #
def test_minimum_ignores_bursts_and_spells_that_move_the_quartiles():
    quiet = [1.00, 1.01, 1.02, 1.00, 1.01, 1.02, 1.00, 1.01]
    spell = [1.00, 1.01, 1.60, 1.70, 1.55, 1.80, 1.65, 1.75, 1.58]  # most of the run hit
    noisy, calm = metric_defs.summarize(spell), metric_defs.summarize(quiet)
    assert noisy["median"] > 1.5 and noisy["p75"] > 1.5
    assert noisy["value"] == calm["value"] == 1.00
    assert (calm["n"], calm["median"], calm["samples"]) == (8, 1.01, quiet)
    assert calm["p75"] == pytest.approx(1.0125)
    assert metric_defs.summarize([2.5])["value"] == 2.5
    with pytest.raises(ValueError):
        metric_defs.summarize([])


def test_timed_batch_is_the_mean_of_a_fixed_number_of_calls():
    now = [0.0]
    calls = []

    def call():
        calls.append(now[0])
        now[0] += 0.01

    assert metric_defs.timed_batch(call, 25, clock=lambda: now[0]) == pytest.approx(0.01)
    assert len(calls) == 25
    with pytest.raises(ValueError):
        metric_defs.timed_batch(call, 0)


def test_timed_batch_uses_a_calls_own_measurement():
    now = [0.0]

    def call_with_lead_in():
        now[0] += 1.0  # untimed lead-in
        now[0] += 0.5
        return 0.5

    assert metric_defs.timed_batch(call_with_lead_in, 2, clock=lambda: now[0]) == 0.5


# --------------------------------------------------------------------------- #
# Self time and causes on hand-built spans
# --------------------------------------------------------------------------- #
def _span(span_id, name, start, end, cause=0, thread=1):
    return Span(span_id, name, start, end, thread, cause, None)


def test_self_time_nested_sibling_and_overlapping_children():
    spans = [
        _span(1, "harness.run", 0.0, 10.0),
        _span(2, "core.engine.run", 1.0, 9.0, cause=1),
        _span(3, "nn.forward", 2.0, 4.0, cause=2),
        _span(4, "nn.backward", 4.0, 7.0, cause=2),  # sibling
        _span(5, "backend.gemm", 2.5, 3.5, cause=3),  # nested
        _span(6, "backend.gemm", 3.0, 3.75, cause=3),  # overlaps its sibling
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(8.0 - 2.0 - 3.0)
    assert own[3] == pytest.approx(2.0 - 1.25)  # union of the overlapping GEMMs
    assert own[5] == pytest.approx(1.0)
    table = tracing.layer_table(spans, own)
    assert sum(table.values()) == pytest.approx(10.0 + 0.5)  # the overlap counts twice
    assert table["core"] == pytest.approx(3.0)
    assert sorted(s.span_id for s in tracing.subtree(spans, [spans[2]])) == [3, 5, 6]


def test_cross_thread_child_is_subtracted_from_the_blocked_caller():
    spans = [
        _span(1, "api.client.status", 0.0, 1.0, thread=1),
        _span(2, "server.http_handler", 0.25, 0.75, cause=1, thread=2),
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(0.5) and own[2] == pytest.approx(0.5)


def test_live_causes_same_thread_cross_thread_and_reentry():
    tracer = tracing.SpanTracer()
    inner = tracer._traced("backend.gemm", lambda: None)
    outer = tracer._traced("backend.gemm", inner)  # Blocked → Numpy deferral
    handler = tracer._traced("server.http_handler", lambda: None)
    with tracer.span("harness.run"):
        with tracer.span("api.client.status"):
            worker = threading.Thread(target=handler)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
        outer()
    by_name = {span.name: span for span in tracer.spans}
    assert len(tracer.spans) == 4  # the re-entered seam is one span
    assert by_name["harness.run"].cause == 0
    assert by_name["api.client.status"].cause == by_name["harness.run"].span_id
    assert by_name["server.http_handler"].cause == by_name["api.client.status"].span_id
    assert by_name["server.http_handler"].thread != by_name["harness.run"].thread
    assert by_name["backend.gemm"].cause == by_name["harness.run"].span_id
    events = tracer.chrome_trace()["traceEvents"]
    assert {event["cat"] for event in events} == {"harness", "api", "server", "backend"}
    assert all(event["ph"] == "X" and event["dur"] >= 0 for event in events)


# --------------------------------------------------------------------------- #
# Installation restores every seam
# --------------------------------------------------------------------------- #
def _owner(seam):
    module = importlib.import_module(seam.module)
    return module if seam.owner is None else getattr(module, seam.owner)


def test_every_seam_exists_and_is_restored():
    before = [(vars(_owner(seam)).get(seam.attribute), getattr(_owner(seam), seam.attribute))
              for seam in tracing.SEAMS]
    with tracing.SpanTracer():
        for seam, (_, resolved) in zip(tracing.SEAMS, before):
            assert getattr(_owner(seam), seam.attribute) is not resolved, seam
    for seam, (own, resolved) in zip(tracing.SEAMS, before):
        owner = _owner(seam)
        assert vars(owner).get(seam.attribute) is own, seam  # same object, or absent again
        current = getattr(owner, seam.attribute)
        # Bound classmethods are rebuilt on every access; compare what they wrap.
        assert getattr(current, "__func__", current) is getattr(resolved, "__func__", resolved)


def test_traced_job_records_every_layer_and_changes_nothing():
    from repro.api import runtime
    from repro.api.jobspec import JobSpec

    spec = JobSpec.fast_debug()
    plain = runtime.run_job(spec)
    tracer = tracing.SpanTracer()
    with tracer, tracer.span("harness.run"):
        traced = runtime.run_job(JobSpec.from_json_dict(spec.to_json_dict()))
    assert traced.loss_curve() == plain.loss_curve()  # wrappers are pure observers
    spans = tracer.spans
    own = tracing.self_times(spans)
    layers = tracing.layer_table(spans, own)
    assert {"api", "core", "simnet", "nn", "backend", "data"} <= set(layers)
    assert tracer.gemm_flops > 0
    root = next(span for span in spans if span.name == "harness.run")
    assert sum(layers.values()) == pytest.approx(root.duration, rel=1e-6)
    assert layers["harness"] / root.duration < 0.05  # the seams cover the wall time


# --------------------------------------------------------------------------- #
# Names in code == names in BENCHMARK.json
# --------------------------------------------------------------------------- #
def test_contract_matches_the_code():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    assert [w["name"] for w in CONTRACT["workloads"]] == list(metric_defs.WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert CONTRACT["command"] == ["python3", "benchmarks/e2e/run.py"]
    end_to_end = {m["name"]: m for m in CONTRACT["end_to_end"]}
    assert list(end_to_end) == list(metric_defs.END_TO_END)
    for metric, declared in metric_defs.END_TO_END.items():
        assert (end_to_end[metric]["unit"], end_to_end[metric]["better"]) == \
            (declared.unit, declared.better)
        assert 0.10 <= end_to_end[metric]["bound"] <= 0.25
    assert end_to_end["setup_s"]["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
    per_layer = [(m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]]
    assert per_layer == [(m.name, m.unit, m.better) for m in metric_defs.PER_LAYER]
    names = [*metric_defs.WORKLOADS, *end_to_end, *(m.name for m in metric_defs.PER_LAYER),
             *metric_defs.EXTRAS]
    assert all(name.match(n) for n in names) and len(set(names)) == len(names)
    assert set(metric_defs.EXACT_COUNTS) <= {m.name for m in metric_defs.PER_LAYER}
    span_names = {seam.name for seam in tracing.SEAMS} | {"server.worker_import"}
    for metric in metric_defs.PER_LAYER:
        assert set(metric.spans) <= span_names, metric.name
        assert metric.root == "pass" or metric.root in end_to_end or \
            metric.root in metric_defs.EXTRAS


def test_workload_classes_cover_the_declared_names():
    import workloads

    assert list(workloads.BUILDERS) == [
        "paper_sync", "fanout_async", "storm_cluster", "server_job"]
    assert set(workloads.BUILDERS) == set(metric_defs.WORKLOADS)


# --------------------------------------------------------------------------- #
# compare.py on fabricated files
# --------------------------------------------------------------------------- #
def _report(tmp_path, label, train_rate, seed=0, digest=(25, 16), failed_share=0.0,
            kill_s=None):
    report = {
        "trace": 0, "seed": seed, "sim_digest": list(digest), "failed_share": failed_share,
        "metrics": {
            "setup_s": {"value": 0.2, "unit": "s"},
            "train_samples_per_s": {"value": train_rate, "unit": "1/s"},
        },
        "extras": {},
    }
    if kill_s is not None:
        report["extras"]["kill_to_done_s"] = {"value": kill_s, "unit": "s"}
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps({"env": {}, "workloads": {"paper_sync": report}}))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    base = [_report(tmp_path, "a1", 800.0), _report(tmp_path, "a2", 810.0, seed=1)]
    same = [_report(tmp_path, "b1", 790.0), _report(tmp_path, "b2", 805.0, seed=1)]
    assert compare.main([*base, "--", *same]) == 0
    assert "regressed" not in capsys.readouterr().out

    slower = [_report(tmp_path, "c1", 500.0), _report(tmp_path, "c2", 510.0, seed=1)]
    assert compare.main([*base, "--", *slower]) == 1
    assert "train_samples_per_s" in capsys.readouterr().out

    faster = [_report(tmp_path, "d1", 1200.0)]
    assert compare.main([*base, "--", *faster]) == 0  # better is never a regression
    capsys.readouterr()

    noisy = [_report(tmp_path, "e1", 800.0), _report(tmp_path, "e2", 560.0, seed=1)]
    assert compare.main([*base, "--", *noisy]) == 1
    assert "unresolved" in capsys.readouterr().out

    assert compare.verdict([1.0], [1.3], "lower", 0.2) == ("regressed", 1.3)
    assert compare.verdict([1.0], [1.1], "lower", 0.2)[0] == "ok"
    assert compare.verdict([1.0, 1.5], [1.0], "lower", 0.2)[0] == "unresolved"


def test_compare_requires_identical_simulation_and_no_new_failures(tmp_path, capsys):
    base = [_report(tmp_path, "a", 800.0)]
    drifted = [_report(tmp_path, "b", 800.0, digest=(26, 16))]
    assert compare.main([*base, "--", *drifted]) == 1
    assert "MISMATCH" in capsys.readouterr().out
    other_seed = [_report(tmp_path, "c", 800.0, seed=7, digest=(26, 16))]
    assert compare.main([*base, "--", *other_seed]) == 0  # digests compare per seed
    failing = [_report(tmp_path, "d", 800.0, failed_share=0.01)]
    assert compare.main([*base, "--", *failing]) == 1
    assert "failed_share rose" in capsys.readouterr().out
    assert compare.main(["only-one-side.json"]) == 2


def test_calibrate_prints_spread_and_bound(tmp_path, capsys):
    files = [_report(tmp_path, f"s{i}", rate, kill_s=kill)
             for i, (rate, kill) in enumerate([(800.0, 1.5), (824.0, 1.6), (808.0, 1.8)])]
    assert compare.main(["--calibrate", *files]) == 0
    out = capsys.readouterr().out
    line = next(row for row in out.splitlines() if row.startswith("train_samples_per_s"))
    assert "0.0297" in line and "0.100" in line  # (824-800)/808; bound floors at 0.10
    kill = next(row for row in out.splitlines() if row.startswith("kill_to_done_s"))
    assert "0.1875" in kill and "0.375" in kill and "rework or demote" in kill
