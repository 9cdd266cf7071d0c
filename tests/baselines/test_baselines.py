"""Tests for the baseline trainers (centralized, sequential split, FedAvg)."""

import numpy as np
import pytest

import repro.baselines.vanilla_split as vanilla_split_module
from repro.baselines.centralized import CentralizedTrainer
from repro.baselines.fedavg import FedAvgTrainer, average_state_dicts
from repro.baselines.vanilla_split import SequentialSplitTrainer
from repro.core.split import SplitSpec
from repro.data.datasets import ArrayDataset
from repro.data.loader import DataLoader
from repro.nn import Tensor
from repro.nn.dtype import default_dtype
from repro.utils.perf import track


class TestCentralizedTrainer:
    def test_single_epoch_metrics(self, tiny_architecture, tiny_splits, normalize):
        train, test = tiny_splits
        trainer = CentralizedTrainer(tiny_architecture.build(seed=0))
        history = trainer.fit(train, test_dataset=test, epochs=1, batch_size=16,
                              transform=normalize, seed=0)
        assert len(history) == 1
        record = history.records[0]
        assert record.train_loss > 0
        assert record.test_accuracy is not None
        assert history.config["baseline"] == "centralized"

    def test_training_reduces_loss(self, tiny_architecture, tiny_splits, normalize):
        train, _ = tiny_splits
        trainer = CentralizedTrainer(tiny_architecture.build(seed=0))
        history = trainer.fit(train, epochs=3, batch_size=16, transform=normalize, seed=0)
        assert history.loss_curve()[-1] < history.loss_curve()[0]

    def test_train_epoch_updates_parameters(self, tiny_architecture, tiny_splits, normalize):
        train, _ = tiny_splits
        model = tiny_architecture.build(seed=0)
        before = model["output"].weight.data.copy()
        trainer = CentralizedTrainer(model)
        loader = DataLoader(train, batch_size=16, transform=normalize, seed=0)
        metrics = trainer.train_epoch(loader)
        assert not np.allclose(model["output"].weight.data, before)
        assert set(metrics) == {"loss", "accuracy"}

    def test_evaluate_without_transform(self, tiny_architecture, tiny_splits):
        _, test = tiny_splits
        trainer = CentralizedTrainer(tiny_architecture.build(seed=0))
        metrics = trainer.evaluate(test)
        assert 0.0 <= metrics["accuracy"] <= 1.0


class TestSequentialSplitTrainer:
    def test_requires_client_blocks(self, tiny_architecture, tiny_parts):
        spec = SplitSpec(tiny_architecture, client_blocks=0)
        with pytest.raises(ValueError, match="client block"):
            SequentialSplitTrainer(spec, tiny_parts)

    def test_requires_datasets(self, tiny_split_spec):
        with pytest.raises(ValueError):
            SequentialSplitTrainer(tiny_split_spec, [])

    def test_fit_runs_and_learns(self, tiny_split_spec, tiny_parts, tiny_splits, normalize):
        _, test = tiny_splits
        trainer = SequentialSplitTrainer(tiny_split_spec, tiny_parts, batch_size=16,
                                         seed=0, transform=normalize)
        history = trainer.fit(test_dataset=test, epochs=2)
        assert len(history) == 2
        assert history.loss_curve()[-1] < history.loss_curve()[0]
        assert history.records[-1].test_accuracy is not None

    def test_single_shared_client_segment(self, tiny_split_spec, tiny_parts, normalize):
        trainer = SequentialSplitTrainer(tiny_split_spec, tiny_parts, batch_size=16,
                                         seed=0, transform=normalize)
        before = trainer.client_model["L1_conv"].weight.data.copy()
        trainer.train_epoch(0)
        # One shared client segment is updated by every institution's data.
        assert not np.allclose(trainer.client_model["L1_conv"].weight.data, before)

    def test_evaluate_composes_segments(self, tiny_split_spec, tiny_parts, tiny_splits, normalize):
        _, test = tiny_splits
        trainer = SequentialSplitTrainer(tiny_split_spec, tiny_parts, seed=0, transform=normalize)
        metrics = trainer.evaluate(test)
        assert 0.0 <= metrics["accuracy"] <= 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_gradient_for_the_raw_images(self, tiny_split_spec, tiny_parts, normalize,
                                            dtype, monkeypatch):
        """Nobody reads the images' gradient: a twin whose client input still
        asks for one runs one more GEMM per batch and ends byte-identical."""
        def trained(image_gradient):
            with monkeypatch.context() as patch, default_dtype(dtype):
                if image_gradient:
                    patch.setattr(vanilla_split_module, "Tensor",
                                  lambda data, requires_grad=False, **kwargs: Tensor(
                                      data, requires_grad=True, **kwargs))
                trainer = SequentialSplitTrainer(tiny_split_spec, tiny_parts, batch_size=16,
                                                 seed=0, transform=normalize)
                with track() as delta:
                    metrics = trainer.train_epoch(0)
            return trainer, metrics, delta["gemm_calls"]

        trainer, metrics, gemms = trained(False)
        twin, twin_metrics, twin_gemms = trained(True)
        batches = sum(-(-len(part) // 16) for part in tiny_parts)
        assert gemms == twin_gemms - batches
        assert metrics == twin_metrics
        for model in ("client", "server"):
            for key, value in getattr(twin, f"{model}_model").state_dict().items():
                got = getattr(trainer, f"{model}_model").state_dict()[key]
                assert got.dtype == value.dtype == dtype
                assert got.tobytes() == value.tobytes()
            slots = getattr(twin, f"{model}_optimizer").state_dict()
            got_slots = getattr(trainer, f"{model}_optimizer").state_dict()
            assert got_slots["step_count"] == slots["step_count"] == batches
            for name, buffers in slots["slots"].items():
                assert [b.tobytes() for b in got_slots["slots"][name]] == [
                    b.tobytes() for b in buffers]


class TestFedAvg:
    def test_average_state_dicts_simple_mean(self):
        states = [{"w": np.array([1.0, 2.0])}, {"w": np.array([3.0, 4.0])}]
        averaged = average_state_dicts(states)
        np.testing.assert_allclose(averaged["w"], [2.0, 3.0])

    def test_average_state_dicts_weighted(self):
        states = [{"w": np.array([0.0])}, {"w": np.array([10.0])}]
        averaged = average_state_dicts(states, weights=[3, 1])
        np.testing.assert_allclose(averaged["w"], [2.5])

    def test_average_state_dicts_validation(self):
        with pytest.raises(ValueError):
            average_state_dicts([])
        with pytest.raises(ValueError):
            average_state_dicts([{"w": np.zeros(1)}], weights=[1, 2])
        with pytest.raises(ValueError):
            average_state_dicts([{"w": np.zeros(1)}, {"v": np.zeros(1)}])
        with pytest.raises(ValueError):
            average_state_dicts([{"w": np.zeros(1)}], weights=[0.0])

    def test_fit_runs_and_reports(self, tiny_architecture, tiny_parts, tiny_splits, normalize):
        _, test = tiny_splits
        trainer = FedAvgTrainer(tiny_architecture, tiny_parts, local_epochs=1,
                                batch_size=16, seed=0, transform=normalize, lr=0.05)
        history = trainer.fit(test_dataset=test, rounds=2)
        assert len(history) == 2
        assert history.records[-1].test_accuracy is not None
        assert history.config["baseline"] == "fedavg"

    def test_round_changes_global_model(self, tiny_architecture, tiny_parts, normalize):
        trainer = FedAvgTrainer(tiny_architecture, tiny_parts, seed=0, transform=normalize)
        before = trainer.global_model["output"].weight.data.copy()
        trainer.train_round(0)
        assert not np.allclose(trainer.global_model["output"].weight.data, before)

    def test_identical_clients_average_equals_single_update(self, tiny_architecture, tiny_parts,
                                                            normalize):
        """Averaging N identical local updates must equal any one of them."""
        part = tiny_parts[0]
        trainer = FedAvgTrainer(tiny_architecture, [part, part], local_epochs=1,
                                batch_size=16, seed=0, transform=normalize)
        result = trainer._local_update(trainer.loaders[0], round_index=0)
        averaged = average_state_dicts([result["state"], result["state"]])
        for key in result["state"]:
            np.testing.assert_allclose(averaged[key], result["state"][key])

    def test_validation(self, tiny_architecture, tiny_parts):
        with pytest.raises(ValueError):
            FedAvgTrainer(tiny_architecture, [])
        with pytest.raises(ValueError):
            FedAvgTrainer(tiny_architecture, tiny_parts, local_epochs=0)


def prenormalized(dataset, normalize):
    """``dataset`` with ``normalize`` already applied to its images."""
    images, labels = dataset.arrays()
    return ArrayDataset(normalize(images), labels)


class TestEvaluationNormalizesWithTheTrainingTransform:
    """Each baseline evaluates its test set with the one transform it trained
    with; the result equals evaluating an already-normalized copy with none."""

    def test_centralized_fit(self, tiny_architecture, tiny_splits, normalize):
        train, test = tiny_splits
        trainer = CentralizedTrainer(tiny_architecture.build(seed=0))
        record = trainer.fit(train, test_dataset=test, epochs=1, batch_size=16,
                             transform=normalize, seed=0).records[-1]
        expected = trainer.evaluate(prenormalized(test, normalize))
        assert (record.test_loss, record.test_accuracy) == (expected["loss"],
                                                            expected["accuracy"])

    def test_sequential_split(self, tiny_split_spec, tiny_parts, tiny_splits, normalize):
        _, test = tiny_splits
        trainer = SequentialSplitTrainer(tiny_split_spec, tiny_parts, batch_size=16,
                                         seed=0, transform=normalize)
        trainer.train_epoch(0)
        got = trainer.evaluate(test)
        trainer.transform = None
        assert got == trainer.evaluate(prenormalized(test, normalize))

    def test_fedavg(self, tiny_architecture, tiny_parts, tiny_splits, normalize):
        _, test = tiny_splits
        trainer = FedAvgTrainer(tiny_architecture, tiny_parts, local_epochs=1,
                                batch_size=16, seed=0, transform=normalize)
        trainer.train_round(0)
        got = trainer.evaluate(test)
        trainer.transform = None
        assert got == trainer.evaluate(prenormalized(test, normalize))
