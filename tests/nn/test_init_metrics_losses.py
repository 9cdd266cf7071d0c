"""Tests for the initializer, metrics, the loss modules and serialization helpers."""

import numpy as np
import pytest

from repro.nn import CrossEntropyLoss, MSELoss, NLLLoss, Tensor
from repro.nn import functional as F
from repro.nn import init as initializers
from repro.nn.losses import get_loss
from repro.nn.metrics import MetricTracker, accuracy
from repro.nn.serialization import load_state_dict, save_state_dict


class TestInitializers:
    def test_compute_fans_dense_and_conv(self):
        assert initializers.compute_fans((10, 20)) == (10, 20)
        assert initializers.compute_fans((16, 3, 3, 3)) == (27, 144)
        assert initializers.compute_fans((5,)) == (5, 5)

    def test_he_normal_variance(self):
        rng = np.random.default_rng(0)
        weights = initializers.he_normal((1000, 100), rng)
        assert weights.std() == pytest.approx(np.sqrt(2.0 / 1000), rel=0.1)

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

    def test_metric_tracker_weighted_average(self):
        tracker = MetricTracker()
        tracker.update({"loss": 2.0}, count=10)
        tracker.update({"loss": 4.0}, count=30)
        assert tracker.average("loss") == pytest.approx(3.5)
        assert tracker.averages() == {"loss": pytest.approx(3.5)}

    def test_metric_tracker_unknown_metric(self):
        with pytest.raises(KeyError):
            MetricTracker().average("loss")

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

    def test_mse(self):
        predictions = Tensor(np.array([1.0, -1.0]))
        targets = Tensor(np.array([0.0, 0.0]))
        assert MSELoss()(predictions, targets).item() == pytest.approx(1.0)

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

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_state_dict(tmp_path / "does_not_exist.npz")
