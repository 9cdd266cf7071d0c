"""Tests for Dropout and BatchNorm layers."""

import numpy as np
import pytest

from repro.nn import BatchNorm1D, BatchNorm2D, Dropout, Tensor


class TestDropout:
    def test_identity_in_eval_mode(self, rng):
        layer = Dropout(0.5, rng=rng)
        layer.eval()
        x = rng.standard_normal((10, 10))
        np.testing.assert_allclose(layer(Tensor(x)).data, x)

    def test_identity_when_p_zero(self, rng):
        layer = Dropout(0.0, rng=rng)
        x = rng.standard_normal((5, 5))
        np.testing.assert_allclose(layer(Tensor(x)).data, x)

    def test_zeroes_roughly_p_fraction(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((200, 200))))
        dropped_fraction = float((out.data == 0).mean())
        assert 0.45 < dropped_fraction < 0.55

    def test_survivors_are_rescaled(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((100, 100))))
        survivors = out.data[out.data != 0]
        np.testing.assert_allclose(survivors, 2.0)

    def test_expected_value_preserved(self):
        layer = Dropout(0.3, rng=np.random.default_rng(1))
        out = layer(Tensor(np.ones((300, 300))))
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_invalid_probability(self, rng):
        with pytest.raises(ValueError):
            Dropout(1.0, rng=rng)
        with pytest.raises(ValueError):
            Dropout(-0.1, rng=rng)

    def test_gradient_respects_mask(self):
        layer = Dropout(0.5, rng=np.random.default_rng(2))
        x = Tensor(np.ones((20, 20)), requires_grad=True)
        out = layer(x)
        out.sum().backward()
        # Gradient is zero exactly where the activation was dropped.
        np.testing.assert_allclose((x.grad == 0), (out.data == 0))


class TestBatchNorm2D:
    def test_normalizes_per_channel_in_training(self, rng):
        layer = BatchNorm2D(3)
        x = rng.standard_normal((8, 3, 5, 5)) * 4.0 + 7.0
        out = layer(Tensor(x)).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), np.zeros(3), atol=1e-7)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), np.ones(3), atol=1e-3)

    def test_running_statistics_updated(self, rng):
        layer = BatchNorm2D(2, momentum=0.5)
        x = rng.standard_normal((16, 2, 4, 4)) + 3.0
        layer(Tensor(x))
        assert not np.allclose(layer.running_mean, 0.0)
        assert layer.running_mean.shape == (2,)

    def test_eval_mode_uses_running_statistics(self, rng):
        layer = BatchNorm2D(2, momentum=1.0)
        x = rng.standard_normal((32, 2, 4, 4)) * 2.0 + 5.0
        layer(Tensor(x))          # training pass records statistics
        layer.eval()
        out = layer(Tensor(x)).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), np.zeros(2), atol=1e-2)

    def test_gamma_beta_trainable(self, rng):
        layer = BatchNorm2D(3)
        out = layer(Tensor(rng.standard_normal((4, 3, 4, 4))))
        out.sum().backward()
        assert layer.gamma.grad is not None
        assert layer.beta.grad is not None

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="channels"):
            BatchNorm2D(3)(Tensor(rng.standard_normal((2, 4, 4, 4))))

    def test_rejects_wrong_rank(self, rng):
        with pytest.raises(ValueError, match="4-D"):
            BatchNorm2D(3)(Tensor(rng.standard_normal((2, 3))))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            BatchNorm2D(0)
        with pytest.raises(ValueError):
            BatchNorm2D(3, momentum=0.0)


class TestBatchNorm1D:
    def test_normalizes_features(self, rng):
        layer = BatchNorm1D(5)
        x = rng.standard_normal((64, 5)) * 3.0 - 2.0
        out = layer(Tensor(x)).data
        np.testing.assert_allclose(out.mean(axis=0), np.zeros(5), atol=1e-7)

    def test_rejects_wrong_rank_and_features(self, rng):
        with pytest.raises(ValueError, match="2-D"):
            BatchNorm1D(5)(Tensor(rng.standard_normal((2, 5, 3))))
        with pytest.raises(ValueError, match="features"):
            BatchNorm1D(5)(Tensor(rng.standard_normal((2, 4))))

    def test_state_dict_includes_running_buffers(self, rng):
        layer = BatchNorm1D(3)
        layer(Tensor(rng.standard_normal((8, 3))))
        state = layer.state_dict()
        assert "buffer::running_mean" in state
        fresh = BatchNorm1D(3)
        fresh.load_state_dict(state)
        np.testing.assert_allclose(fresh.running_mean, layer.running_mean)
