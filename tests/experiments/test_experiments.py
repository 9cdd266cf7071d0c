"""Tests for the experiment harness (workloads, registry, runners, CLI)."""

import json

import numpy as np
import pytest

from repro.api import JobSpec, build_workload
from repro.experiments import (
    PAPER_TABLE1,
    PRESETS,
    ExperimentResult,
    get_experiment,
    list_experiments,
    on_preset,
    respec,
    run_baselines_comparison,
    run_chaos_matrix,
    run_clients_sweep,
    run_compression,
    run_experiment,
    run_figure4,
    run_queue_congestion,
    run_server_failover,
    run_server_sharding,
    run_staleness,
    run_table1,
)
from repro.experiments.cli import build_parser, main
from repro.nn.dtype import default_dtype


def laptop(name, **changes):
    """Experiment ``name``'s base spec on a small laptop workload."""
    quick = {"num_samples": 240, "num_end_systems": 2, "epochs": 1, "batch_size": 16}
    return on_preset(get_experiment(name).base_spec(), **{**quick, **changes})


class TestSpecs:
    def test_presets_set_the_workload_budget_and_seed(self):
        spec = respec(JobSpec(), client_blocks=2, queue_policy="staleness", seed=4)
        paper = on_preset(spec, "paper", num_end_systems=3)
        assert paper.workload.scale == "paper"
        assert paper.workload.num_samples == 6000
        assert paper.workload.num_end_systems == 3
        assert (paper.config.epochs, paper.config.batch_size) == (15, 64)
        assert paper.workload.seed == paper.config.seed == 0
        # The cut and the rest of the configuration stay the spec's.
        assert paper.workload.client_blocks == 2
        assert paper.config.queue_policy == "staleness"
        pieces = build_workload(paper.workload)
        assert pieces.architecture.num_blocks == 5
        assert set(PRESETS["laptop"]) == set(PRESETS["paper"])

    def test_respec_routes_each_field(self):
        spec = respec(JobSpec(), client_blocks=2, num_servers=3, seed=7)
        assert spec.workload.client_blocks == 2
        assert spec.config.num_servers == 3
        assert spec.workload.seed == spec.config.seed == 7
        with pytest.raises(TypeError):
            respec(spec, no_such_field=1)
        with pytest.raises(ValueError):
            respec(spec, num_samples=10, num_end_systems=4)
        with pytest.raises(ValueError):
            respec(spec, num_servers=0)

    def test_every_base_spec_is_a_valid_job(self):
        for entry in list_experiments():
            spec = entry.base_spec()
            assert JobSpec.from_json_dict(spec.to_json_dict()) == spec
            assert spec.workload.seed == spec.config.seed


class TestExperimentResult:
    def test_add_row_validates_length(self):
        result = ExperimentResult(name="x", headers=["a", "b"])
        result.add_row([1, 2])
        with pytest.raises(ValueError):
            result.add_row([1])

    def test_column_extraction(self):
        result = ExperimentResult(name="x", headers=["a", "b"])
        result.add_row([1, 2])
        result.add_row([3, 4])
        assert result.column("b") == [2, 4]
        with pytest.raises(KeyError):
            result.column("missing")

    def test_to_table_and_as_dict(self):
        result = ExperimentResult(name="Demo", headers=["metric"], rows=[[1.234]])
        assert "Demo" in result.to_table()
        payload = result.as_dict()
        assert payload["rows"] == [[1.234]]


class TestRegistry:
    def test_all_expected_experiments_registered(self):
        names = {entry.name for entry in list_experiments()}
        assert {"table1", "figure4", "staleness", "clients_sweep", "baselines",
                "compression", "queue_congestion", "server_sharding",
                "server_failover", "chaos_matrix"} <= names

    def test_get_experiment_unknown(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("bogus")

    def test_entries_reference_paper_artifacts(self):
        assert get_experiment("table1").paper_artifact == "Table I"
        assert get_experiment("figure4").paper_artifact == "Figure 4"


class TestTable1:
    def test_rows_match_requested_cuts(self):
        result = run_table1(laptop("table1"), client_block_range=[0, 1])
        assert result.column("client_blocks") == [0, 1]
        labels = result.column("layers_at_end_systems")
        assert labels[0].startswith("Nothing")
        assert labels[1] == "L1"

    def test_accuracy_within_bounds_and_reference_attached(self):
        result = run_table1(laptop("table1"), client_block_range=[0, 1])
        for accuracy in result.column("accuracy_pct"):
            assert 0.0 <= accuracy <= 100.0
        assert result.paper_reference["values_pct"] == PAPER_TABLE1
        # The centralized row's degradation is zero by construction.
        assert result.column("degradation_pct")[0] == pytest.approx(0.0)

    def test_registry_dispatch(self):
        result = run_experiment("table1", laptop("table1"), client_block_range=[1])
        assert len(result.rows) == 1
        assert result.metadata["workload"] == laptop("table1").to_json_dict()


class TestFigure4:
    @pytest.mark.parametrize("spec, probes, pooled, dtype", [
        (laptop("figure4"), 60, "L1_pool", np.float64),
        # A deeper cut leaks no more than the first block, on the workload
        # and dtype this case was first asserted at.
        (laptop("figure4", num_samples=400, num_end_systems=4, epochs=2, batch_size=32,
                client_blocks=2), 150, "L2_pool", np.float32),
    ], ids=["cut1", "cut2"])
    def test_layer_rows_and_monotone_leakage(self, spec, probes, pooled, dtype):
        with default_dtype(dtype):
            result = run_figure4(spec, num_probe_images=probes, train_first=False)
        layers = result.column("layer")
        assert layers[0] == "input"
        assert pooled in layers
        nmse = dict(zip(layers, result.column("reconstruction_nmse")))
        # Post-pooling activations must not reconstruct better than the input.
        assert nmse[pooled] >= nmse["input"] - 1e-6

    def test_requires_at_least_one_block(self):
        with pytest.raises(ValueError):
            run_figure4(laptop("figure4", client_blocks=0))


class TestStaleness:
    def test_policies_reported(self):
        result = run_staleness(laptop("staleness"), policies=("fifo", "weighted_fair"),
                               latencies_s=(0.002, 0.1), simulated_budget_s=0.5)
        assert result.column("policy") == ["fifo", "weighted_fair"]
        for fairness in result.column("fairness_index"):
            assert 0.0 < fairness <= 1.0

    def test_latency_count_must_match(self):
        with pytest.raises(ValueError, match="latencies"):
            run_staleness(laptop("staleness"), latencies_s=(0.1,) * 5)


class TestQueueCongestion:
    def test_sweep_rows_and_backpressure_contract(self):
        result = run_queue_congestion(
            laptop("queue_congestion", num_end_systems=8, batch_size=8,
                   server_step_time_s=0.01),
            capacities=(2, None),
            backpressures=("drop", "block"),
            policies=("fifo",),
            near_latency_s=0.002,
            far_latency_s=0.02,
        )
        # (capacity=2 x {drop, block}) + unbounded reference.
        assert len(result.rows) == 3
        keys = list(zip(result.column("capacity"), result.column("backpressure")))
        dropped = dict(zip(keys, result.column("queue_dropped")))
        blocked = dict(zip(keys, result.column("blocked_sends")))
        # A tight bound with drop backpressure sheds work...
        assert dropped[(2, "drop")] > 0
        # ...while block defers sends instead of dropping anything...
        assert dropped[(2, "block")] == 0
        assert blocked[(2, "block")] > 0
        # ...and the unbounded reference does neither.
        assert dropped[("unbounded", "drop")] == 0
        assert blocked[("unbounded", "drop")] == 0

    def test_registry_dispatch(self):
        result = run_experiment(
            "queue_congestion", laptop("queue_congestion", num_end_systems=4), capacities=(2,),
            backpressures=("drop",), policies=("fifo",),
        )
        assert len(result.rows) == 1
        assert result.column("policy") == ["fifo"]


class TestServerSharding:
    def test_shard_sweep_rows_and_sync_accounting(self):
        result = run_server_sharding(
            laptop("server_sharding", num_end_systems=8), shard_counts=(1, 2),
            near_latency_s=0.002, far_latency_s=0.03,
        )
        assert result.column("num_servers") == [1, 2]
        for accuracy in result.column("train_accuracy_pct"):
            assert 0.0 <= accuracy <= 100.0
        balance = result.column("clients_per_shard")
        assert balance[0] == "8"
        assert balance[1] == "4/4"
        syncs = dict(zip(result.column("num_servers"), result.column("weight_syncs")))
        sync_mb = dict(zip(result.column("num_servers"), result.column("sync_megabytes")))
        # One server never synchronizes; two shards must, and it costs traffic.
        assert syncs[1] == 0 and sync_mb[1] == 0.0
        assert syncs[2] > 0 and sync_mb[2] > 0.0

    def test_latency_aware_sharding_cuts_queue_wait(self):
        """Splitting off the far latency band must cut the mean queue wait.

        A synchronous epoch still ends when the slowest band's last round
        does, but the near shard's messages stop waiting behind far-away
        arrivals at the (per-shard) barrier — the freshness win sharding
        actually buys in the synchronous regime.
        """
        result = run_server_sharding(
            laptop("server_sharding", num_end_systems=8, shard_assigner="latency_aware"),
            shard_counts=(1, 2),
            near_latency_s=0.002, far_latency_s=0.2, inter_server_latency_s=0.001,
        )
        waits = dict(zip(result.column("num_servers"),
                         result.column("mean_queue_wait_ms")))
        assert waits[2] < 0.6 * waits[1]
        # The sync barrier must not blow the completion time up either:
        # the far band still sets the epoch length.
        times = dict(zip(result.column("num_servers"),
                         result.column("simulated_time_s")))
        assert times[2] <= times[1] * 1.1

    def test_registry_dispatch(self):
        result = run_experiment("server_sharding", laptop("server_sharding", num_end_systems=4),
                                shard_counts=(2,))
        assert len(result.rows) == 1
        assert result.column("num_servers") == [2]


class TestServerFailover:
    def test_sweep_rows_and_churn_accounting(self):
        result = run_server_failover(
            laptop("server_failover", num_end_systems=8, failure_mttr_s=0.01),
            mtbf_values_s=(None, 0.02),
            checkpoint_every_values_s=(None,),
            failover_policies=("rebalance", "standby"),
            sync_modes=("average",),
            near_latency_s=0.002, far_latency_s=0.03,
        )
        # Control (policy-independent) + one row per policy under churn.
        assert len(result.rows) == 3
        # Checkpointing off: no writes, no overhead, every column present.
        assert result.column("ckpt_s") == ["off"] * 3
        assert result.column("ckpts") == [0] * 3
        assert result.column("ckpt_wall_ms") == [0.0] * 3
        crashes = result.column("crashes")
        assert crashes[0] == 0, "the failure-free control must see no crashes"
        assert all(count > 0 for count in crashes[1:])
        # The same seeded churn hits every policy: crash counts match.
        assert crashes[1] == crashes[2]
        policies = result.column("policy")
        reassigned = dict(zip(policies, result.column("reassigned")))
        assert reassigned["rebalance"] > 0
        assert reassigned["standby"] == 0
        downtime = result.column("downtime_s")
        assert downtime[0] == 0.0
        assert all(value > 0 for value in downtime[1:])
        for accuracy in result.column("train_accuracy_pct"):
            assert 0.0 <= accuracy <= 100.0

    def test_checkpoint_axis_bounds_rpo(self):
        """The tentpole claim in one sweep: durable checkpoints shift
        recoveries off the initial-weights fallback and shrink the lost
        work per crash.  ``server_sync_every`` is huge so the sync
        snapshot never exists — without a store, every recovery rewinds
        to the initial weights and the RPO is the whole run so far."""
        result = run_server_failover(
            laptop("server_failover", num_end_systems=8, failure_mttr_s=0.01,
                   server_sync_every=1000),
            mtbf_values_s=(0.02,),
            checkpoint_every_values_s=(None, 0.002),
            failover_policies=("standby",),
            sync_modes=("average",),
            near_latency_s=0.002, far_latency_s=0.03,
        )
        assert len(result.rows) == 2
        by_ckpt = {row[result.headers.index("ckpt_s")]: row for row in result.rows}
        assert set(by_ckpt) == {"off", 0.002}
        crashes = result.column("crashes")
        assert crashes[0] == crashes[1] > 0  # same seeded churn on both rows
        index = {name: result.headers.index(name) for name in result.headers}
        off, on = by_ckpt["off"], by_ckpt[0.002]
        # Off: no store, no sync snapshot -> initial-weights recoveries only.
        assert off[index["ckpts"]] == 0
        assert off[index["recovered_from"]].endswith(str(off[index["recoveries"]]))
        # On: checkpoints get written and recovery prefers them.
        assert on[index["ckpts"]] > 0
        assert on[index["ckpt_wall_ms"]] > 0.0
        assert int(on[index["recovered_from"]].split("/")[0]) > 0
        # The point of the feature: less work lost per crash.
        assert on[index["rpo_lost_s"]] < off[index["rpo_lost_s"]]
        assert on[index["rpo_samples"]] <= off[index["rpo_samples"]]

    def test_registry_dispatch(self):
        result = run_experiment(
            "server_failover", laptop("server_failover", num_end_systems=4),
            mtbf_values_s=(0.05,), failover_policies=("rebalance",),
            sync_modes=("staleness",), checkpoint_every_values_s=(None,),
        )
        assert len(result.rows) == 1
        assert result.column("sync_mode") == ["staleness"]


class TestChaosMatrix:
    def test_matrix_rows_and_reliability_contract(self):
        regimes = {
            "clean": {},
            "lossy": {"link_drop": 0.2},
        }
        result = run_chaos_matrix(
            laptop("chaos_matrix", num_end_systems=8), regimes=regimes,
            near_latency_s=0.002, far_latency_s=0.03,
        )
        # regime x {off, on}; the runner re-asserts the drop balance per
        # cell, so reaching here already proves leak-freedom.
        assert len(result.rows) == 4
        index = {name: result.headers.index(name) for name in result.headers}
        cells = {(row[index["regime"]], row[index["reliable"]]): row
                 for row in result.rows}
        # The fault-free control drops nothing either way.
        assert cells[("clean", "off")][index["dropped"]] == 0
        assert cells[("clean", "on")][index["dropped"]] == 0
        assert cells[("clean", "on")][index["gave_up"]] == 0
        # Under loss, reliability converts transport drops into retries
        # and silences the client notifications the off row suffered.
        assert cells[("lossy", "off")][index["dropped"]] > 0
        assert cells[("lossy", "off")][index["notified"]] > 0
        assert cells[("lossy", "on")][index["dropped"]] == 0
        assert cells[("lossy", "on")][index["retried"]] > 0
        assert (cells[("lossy", "on")][index["notified"]]
                < cells[("lossy", "off")][index["notified"]]
                + cells[("lossy", "on")][index["gave_up"]] + 1)
        for row in result.rows:
            assert 0.0 <= row[index["train_accuracy_pct"]] <= 100.0

    def test_registry_dispatch(self):
        result = run_experiment(
            "chaos_matrix", laptop("chaos_matrix", num_end_systems=4),
            regimes={"clean": {}}, reliability_values=(False,),
        )
        assert len(result.rows) == 1
        assert result.column("reliable") == ["off"]


class TestClientsSweepAndBaselines:
    def test_clients_sweep_rows(self):
        result = run_clients_sweep(laptop("clients_sweep", num_end_systems=4),
                                   num_end_systems=(1, 2))
        assert result.column("num_end_systems") == [1, 2]
        assert all(0 <= value <= 100 for value in result.column("accuracy_pct"))

    def test_compression_rows_and_traffic_ordering(self):
        result = run_compression(
            laptop("compression"),
            transforms=({"name": "none"}, {"name": "uint8"}),
        )
        labels = result.column("transform")
        assert labels == ["none", "uint8"]
        traffic = result.column("uplink_megabytes")
        # 8-bit quantization must not increase traffic over the raw baseline.
        assert traffic[1] < traffic[0]
        relative = result.column("uplink_vs_baseline")
        assert relative[0] == pytest.approx(1.0)

    def test_compression_none_row_is_table1_row(self):
        """The sweep trains through the trainer: its raw row is Table I's L1 row."""
        none = run_compression(laptop("compression"), transforms=({"name": "none"},))
        table1 = run_table1(laptop("table1"), client_block_range=[1])
        assert none.column("accuracy_pct") == table1.column("accuracy_pct")
        assert none.column("uplink_megabytes") == table1.column("uplink_megabytes")

    def test_compression_sweep_is_reproducible(self):
        spec = laptop("compression", num_end_systems=4)
        noise = ({"name": "gaussian_noise", "noise_multiplier": 0.25, "clip_norm": 5.0},)
        first = run_compression(spec, transforms=noise)
        second = run_compression(spec, transforms=noise)
        assert first.rows == second.rows

    def test_baselines_comparison_rows(self):
        result = run_baselines_comparison(
            laptop("baselines"),
            methods=("centralized", "spatio_temporal"),
        )
        methods = result.column("method")
        assert methods == ["centralized", "spatio_temporal"]
        leak = dict(zip(methods, result.column("raw_data_leaves_client")))
        assert leak["centralized"] == "yes"
        assert leak["spatio_temporal"] == "no"


    def test_baseline_uplink_counts_the_shipped_dtype(self):
        """At float32 every method ships 4-byte values, not 8-byte ones."""
        spec = laptop("baselines")
        with default_dtype(np.float32):
            result = run_baselines_comparison(
                spec, methods=("sequential_split", "fedavg", "spatio_temporal"))
        uplink = dict(zip(result.column("method"), result.column("uplink_megabytes")))
        # The trainer's log adds labels and 64 B of framing per message to
        # the same smashed activations the sequential baseline ships.
        assert uplink["sequential_split"] == pytest.approx(uplink["spatio_temporal"], rel=0.02)
        assert uplink["sequential_split"] < uplink["spatio_temporal"]
        parameters = result.metadata["full_model_parameters"]
        assert uplink["fedavg"] == pytest.approx(
            spec.config.epochs * spec.workload.num_end_systems * parameters * 4 / 1e6)


class TestCLI:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "table1" in output and "figure4" in output

    def test_run_command_table(self, capsys):
        code = main(["run", "table1", "--num-samples", "240", "--end-systems", "2",
                     "--epochs", "1", "--batch-size", "16"])
        assert code == 0
        assert "Table I" in capsys.readouterr().out

    def test_run_command_json(self, capsys):
        code = main(["run", "clients_sweep", "--num-samples", "240", "--end-systems", "2",
                     "--epochs", "1", "--batch-size", "16", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"].startswith("Ablation")

    def test_parser_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_parser_workload_options(self):
        args = build_parser().parse_args(["run", "table1", "--scale", "paper", "--seed", "3"])
        assert args.scale == "paper"
        assert args.seed == 3

    def test_run_without_flags_uses_the_experiments_base_spec(self):
        from repro.experiments.cli import _workload_from_args

        bare = build_parser().parse_args(["run", "server_sharding"])
        assert _workload_from_args(bare, required=False) is None
        tuned = build_parser().parse_args(["run", "server_sharding", "--epochs", "1"])
        assert _workload_from_args(tuned, required=False) == {"epochs": 1}
        # run-all keeps the explicit shared workload either way.
        shared = build_parser().parse_args(["run-all"])
        assert _workload_from_args(shared) is not None
