"""Tests for the global dtype policy (repro.nn.dtype).

The suite-wide autouse fixture pins float64 (precision mode); these tests
exercise the float32 fast mode explicitly through the public policy API
and assert that no op silently promotes to float64.
"""

import numpy as np
import pytest

import repro.nn.functional as F
from repro.nn import (
    SGD,
    Adam,
    AdamW,
    Conv2D,
    CrossEntropyLoss,
    Dense,
    Flatten,
    MaxPool2D,
    MSELoss,
    RMSProp,
    ReLU,
    Sequential,
    Tensor,
    default_dtype,
    get_default_dtype,
    set_default_dtype,
)
from repro.nn.dtype import DEFAULT_DTYPE
from repro.nn.serialization import load_state_dict, save_state_dict


class TestPolicyAPI:
    def test_library_default_is_float32(self):
        assert DEFAULT_DTYPE == np.dtype(np.float32)

    def test_set_returns_previous(self):
        previous = set_default_dtype(np.float32)
        try:
            assert get_default_dtype() == np.dtype(np.float32)
        finally:
            set_default_dtype(previous)
        assert get_default_dtype() == previous

    def test_context_manager_restores(self):
        before = get_default_dtype()
        with default_dtype(np.float32):
            assert get_default_dtype() == np.dtype(np.float32)
            with default_dtype(np.float64):
                assert get_default_dtype() == np.dtype(np.float64)
            assert get_default_dtype() == np.dtype(np.float32)
        assert get_default_dtype() == before

    def test_context_manager_restores_on_error(self):
        before = get_default_dtype()
        with pytest.raises(RuntimeError):
            with default_dtype(np.float32):
                raise RuntimeError("boom")
        assert get_default_dtype() == before

    def test_rejects_non_float_dtypes(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int64)
        with pytest.raises(ValueError):
            set_default_dtype(np.complex128)


class TestLeafCreation:
    def test_tensor_follows_policy(self):
        with default_dtype(np.float32):
            assert Tensor([1.0, 2.0]).dtype == np.float32
            assert Tensor(np.arange(3)).dtype == np.float32
            # Even float64 arrays are coerced at graph entry — this is
            # exactly where silent promotion used to start.
            assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float32

    def test_explicit_dtype_wins(self):
        with default_dtype(np.float32):
            assert Tensor(np.zeros(3), dtype=np.float64).dtype == np.float64

    def test_initializer_follows_policy(self):
        from repro.nn import init

        with default_dtype(np.float32):
            assert init.he_normal((4, 3), np.random.default_rng(0)).dtype == np.float32

    def test_one_hot_follows_policy_and_explicit_dtype(self):
        with default_dtype(np.float32):
            assert F.one_hot([0, 2, 1], 3).dtype == np.float32
        assert F.one_hot([0, 1], 2, dtype=np.float64).dtype == np.float64


def _assert_float32_grads(module):
    for name, parameter in module.named_parameters():
        assert parameter.dtype == np.float32, f"{name} parameter promoted"
        assert parameter.grad is not None, f"{name} missing grad"
        assert parameter.grad.dtype == np.float32, f"{name} grad promoted"


class TestEndToEndPropagation:
    def test_every_layer_type_preserves_float32(self):
        rng = np.random.default_rng(0)
        with default_dtype(np.float32):
            model = Sequential([
                Conv2D(3, 4, kernel_size=3, padding="same", rng=rng),
                ReLU(),
                MaxPool2D(2),
                Conv2D(4, 4, kernel_size=3, padding="same", rng=rng),
                ReLU(),
                MaxPool2D(2),
                Flatten(),
                Dense(4 * 2 * 2, 8, rng=rng),
                ReLU(),
                Dense(8, 5, rng=rng),
            ])
            images = rng.random((6, 3, 8, 8), dtype=np.float32)
            logits = model(Tensor(images))
            assert logits.dtype == np.float32
            loss = CrossEntropyLoss()(logits, rng.integers(0, 5, 6))
            assert loss.dtype == np.float32
            loss.backward()
            _assert_float32_grads(model)

    def test_losses_preserve_float32(self):
        rng = np.random.default_rng(1)
        with default_dtype(np.float32):
            logits = Tensor(rng.random((8, 4), dtype=np.float32), requires_grad=True)
            labels = rng.integers(0, 4, 8)
            ce = CrossEntropyLoss()(logits, labels)
            assert ce.dtype == np.float32
            ce.backward()
            assert logits.grad.dtype == np.float32

            predictions = Tensor(rng.random(10, dtype=np.float32), requires_grad=True)
            mse = MSELoss()(predictions, rng.random(10, dtype=np.float32))
            assert mse.dtype == np.float32
            mse.backward()
            assert predictions.grad.dtype == np.float32

    @pytest.mark.parametrize("optimizer_cls,kwargs", [
        (SGD, {"lr": 0.1, "momentum": 0.9, "weight_decay": 1e-4}),
        (Adam, {"lr": 1e-3, "weight_decay": 1e-4}),
        (AdamW, {"lr": 1e-3, "weight_decay": 1e-2}),
        (RMSProp, {"lr": 1e-3}),
    ])
    def test_optimizers_preserve_float32(self, optimizer_cls, kwargs):
        rng = np.random.default_rng(2)
        with default_dtype(np.float32):
            layer = Dense(5, 3, rng=rng)
            optimizer = optimizer_cls(layer.parameters(), **kwargs)
            for _ in range(3):
                optimizer.zero_grad()
                loss = MSELoss()(layer(Tensor(rng.random((4, 5), dtype=np.float32))),
                                 rng.random((4, 3), dtype=np.float32))
                loss.backward()
                optimizer.step()
            for parameter in layer.parameters():
                assert parameter.dtype == np.float32

    def test_serialization_roundtrip_casts_to_live_dtype(self, tmp_path):
        rng = np.random.default_rng(3)
        with default_dtype(np.float32):
            fast = Dense(4, 2, rng=rng)
        path = tmp_path / "fast.npz"
        save_state_dict(fast.state_dict(), path)
        restored_state = load_state_dict(path)
        assert restored_state["weight"].dtype == np.float32

        # Loading a float32 checkpoint into a float64-policy model keeps
        # the live parameters float64 (and vice versa).
        precise = Dense(4, 2, rng=np.random.default_rng(3))
        assert precise.weight.dtype == np.float64  # suite runs in precision mode
        precise.load_state_dict(restored_state)
        assert precise.weight.dtype == np.float64
        np.testing.assert_allclose(precise.weight.data, fast.weight.data, rtol=1e-6)

    def test_split_round_trip_stays_float32(self, tiny_split_spec):
        from repro.core.end_system import EndSystem
        from repro.core.server import CentralServer
        from repro.data.datasets import SyntheticCIFAR10
        from repro.data.loader import DataLoader

        rng = np.random.default_rng(4)
        with default_dtype(np.float32):
            dataset = SyntheticCIFAR10(num_samples=16, image_size=8, seed=0)
            loader = DataLoader(dataset, batch_size=8, seed=0)
            end_system = EndSystem(0, loader, tiny_split_spec, seed=1)
            server = CentralServer(tiny_split_spec, seed=2)
            images = rng.random((8, 3, 8, 8))
            labels = rng.integers(0, 10, 8)
            message = end_system.forward_batch(images, labels)
            assert message.activations.dtype == np.float32
            reply = server.process(message)
            assert reply.gradient.dtype == np.float32
            end_system.apply_gradient(reply)
            for parameter in end_system.model.parameters():
                assert parameter.dtype == np.float32
                assert parameter.grad.dtype == np.float32
