"""Tests for initializers, metrics, the loss modules and serialization helpers."""

import numpy as np
import pytest

from repro.nn import CrossEntropyLoss, Dense, L1Loss, MSELoss, NLLLoss, Sequential, Tensor
from repro.nn import functional as F
from repro.nn import init as initializers
from repro.nn.losses import get_loss
from repro.nn.metrics import (
    MetricTracker,
    accuracy,
    confusion_matrix,
    per_class_accuracy,
    top_k_accuracy,
)
from repro.nn.serialization import (
    load_module,
    load_state_dict,
    parameter_summary,
    save_module,
    save_state_dict,
)


class TestInitializers:
    def test_compute_fans_dense_and_conv(self):
        assert initializers.compute_fans((10, 20)) == (10, 20)
        assert initializers.compute_fans((16, 3, 3, 3)) == (27, 144)
        assert initializers.compute_fans((5,)) == (5, 5)

    def test_he_normal_variance(self):
        rng = np.random.default_rng(0)
        weights = initializers.he_normal((1000, 100), rng)
        assert weights.std() == pytest.approx(np.sqrt(2.0 / 1000), rel=0.1)

    def test_xavier_uniform_bounds(self):
        rng = np.random.default_rng(0)
        weights = initializers.xavier_uniform((50, 50), rng)
        limit = np.sqrt(6.0 / 100)
        assert np.abs(weights).max() <= limit

    def test_zeros_and_ones(self, rng):
        assert initializers.zeros((3, 3), rng).sum() == 0
        assert initializers.ones((3, 3), rng).sum() == 9

    def test_registry_lookup(self):
        assert initializers.get_initializer("he_normal") is initializers.he_normal
        with pytest.raises(KeyError, match="unknown initializer"):
            initializers.get_initializer("bogus")

    def test_initializers_deterministic_given_rng(self):
        a = initializers.he_normal((4, 4), np.random.default_rng(7))
        b = initializers.he_normal((4, 4), np.random.default_rng(7))
        np.testing.assert_allclose(a, b)


class TestMetrics:
    def test_accuracy_perfect_and_zero(self):
        logits = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert accuracy(logits, np.array([1, 0])) == 1.0
        assert accuracy(logits, np.array([0, 1])) == 0.0

    def test_accuracy_accepts_tensors(self, rng):
        logits = Tensor(rng.standard_normal((6, 3)))
        labels = rng.integers(0, 3, 6)
        assert 0.0 <= accuracy(logits, labels) <= 1.0

    def test_accuracy_batch_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((3, 2)), np.zeros(4))

    def test_top_k_accuracy_monotone_in_k(self, rng):
        logits = rng.standard_normal((50, 10))
        labels = rng.integers(0, 10, 50)
        top1 = top_k_accuracy(logits, labels, k=1)
        top5 = top_k_accuracy(logits, labels, k=5)
        top10 = top_k_accuracy(logits, labels, k=10)
        assert top1 <= top5 <= top10 == 1.0

    def test_top_k_invalid_k(self):
        with pytest.raises(ValueError):
            top_k_accuracy(np.zeros((2, 3)), np.zeros(2), k=0)

    def test_confusion_matrix_diagonal(self):
        logits = np.eye(3)
        labels = np.array([0, 1, 2])
        matrix = confusion_matrix(logits, labels)
        np.testing.assert_array_equal(matrix, np.eye(3, dtype=np.int64))

    def test_confusion_matrix_counts_errors(self):
        logits = np.array([[0.9, 0.1], [0.9, 0.1], [0.1, 0.9]])
        labels = np.array([0, 1, 1])
        matrix = confusion_matrix(logits, labels, num_classes=2)
        assert matrix[1, 0] == 1 and matrix[1, 1] == 1 and matrix[0, 0] == 1

    def test_per_class_accuracy(self):
        logits = np.array([[0.9, 0.1], [0.9, 0.1], [0.1, 0.9], [0.1, 0.9]])
        labels = np.array([0, 0, 1, 0])
        per_class = per_class_accuracy(logits, labels, num_classes=2)
        assert per_class[0] == pytest.approx(2 / 3)
        assert per_class[1] == pytest.approx(1.0)

    def test_metric_tracker_weighted_average(self):
        tracker = MetricTracker()
        tracker.update({"loss": 2.0}, count=10)
        tracker.update({"loss": 4.0}, count=30)
        assert tracker.average("loss") == pytest.approx(3.5)
        assert tracker.averages() == {"loss": pytest.approx(3.5)}

    def test_metric_tracker_unknown_metric(self):
        with pytest.raises(KeyError):
            MetricTracker().average("loss")

    def test_metric_tracker_reset(self):
        tracker = MetricTracker()
        tracker.update({"x": 1.0})
        tracker.reset()
        assert tracker.averages() == {}
        with pytest.raises(KeyError):
            tracker.average("x")

    def test_metric_tracker_rejects_bad_count(self):
        with pytest.raises(ValueError):
            MetricTracker().update({"x": 1.0}, count=0)


class TestLossModules:
    def test_cross_entropy_module_matches_functional(self, rng):
        logits = Tensor(rng.standard_normal((4, 3)))
        labels = rng.integers(0, 3, 4)
        module_loss = CrossEntropyLoss()(logits, labels)
        functional_loss = F.cross_entropy(logits, labels)
        assert module_loss.item() == pytest.approx(functional_loss.item())

    def test_nll_loss_module(self, rng):
        log_probs = F.log_softmax(Tensor(rng.standard_normal((4, 3))))
        labels = rng.integers(0, 3, 4)
        assert NLLLoss()(log_probs, labels).item() == pytest.approx(
            F.nll_loss(log_probs, labels).item()
        )

    def test_mse_and_l1(self):
        predictions = Tensor(np.array([1.0, -1.0]))
        targets = Tensor(np.array([0.0, 0.0]))
        assert MSELoss()(predictions, targets).item() == pytest.approx(1.0)
        assert L1Loss()(predictions, targets).item() == pytest.approx(1.0)

    def test_labels_as_tensor_accepted(self, rng):
        logits = Tensor(rng.standard_normal((4, 3)))
        labels = Tensor(np.array([0, 1, 2, 0]))
        assert CrossEntropyLoss()(logits, labels).item() > 0

    def test_get_loss_factory_and_validation(self):
        assert isinstance(get_loss("cross_entropy"), CrossEntropyLoss)
        with pytest.raises(KeyError, match="unknown loss"):
            get_loss("bogus")
        with pytest.raises(ValueError, match="reduction"):
            CrossEntropyLoss(reduction="bogus")


class TestSerialization:
    def test_state_dict_file_roundtrip(self, tmp_path, rng):
        state = {"layer.weight": rng.standard_normal((3, 4)), "layer.bias": np.zeros(4)}
        path = save_state_dict(state, tmp_path / "checkpoint.npz")
        loaded = load_state_dict(path)
        assert set(loaded) == set(state)
        np.testing.assert_allclose(loaded["layer.weight"], state["layer.weight"])

    def test_module_roundtrip(self, tmp_path, rng):
        source = Sequential([("a", Dense(4, 3, rng=rng)), ("b", Dense(3, 2, rng=rng))])
        target = Sequential([
            ("a", Dense(4, 3, rng=np.random.default_rng(5))),
            ("b", Dense(3, 2, rng=np.random.default_rng(6))),
        ])
        save_module(source, tmp_path / "model.npz")
        load_module(target, tmp_path / "model.npz")
        x = Tensor(rng.standard_normal((2, 4)))
        np.testing.assert_allclose(source(x).data, target(x).data)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_state_dict(tmp_path / "does_not_exist.npz")

    def test_parameter_summary_totals(self, rng):
        model = Dense(4, 3, rng=rng)
        summary = parameter_summary(model)
        assert "total" in summary
        assert f"{4 * 3 + 3:,d}" in summary
