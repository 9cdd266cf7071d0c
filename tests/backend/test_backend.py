"""Tests for the GEMM path (`repro.backend`): the two classes and `use_backend`."""

import numpy as np
import pytest

from repro.backend import (
    BlockedBackend,
    NumpyBackend,
    available_backends,
    get_backend,
    use_backend,
)
from repro.utils.perf import counters


@pytest.fixture(autouse=True)
def _backend_left_as_found():
    previous = get_backend()
    yield
    assert get_backend() is previous


class TestRegistry:
    def test_available_backends(self):
        assert available_backends() == ["blocked", "numpy"]

    def test_use_backend_by_name(self):
        with use_backend("numpy") as backend:
            assert isinstance(backend, NumpyBackend)
            assert not isinstance(backend, BlockedBackend)
            assert get_backend() is backend

    def test_use_backend_instance(self):
        instance = BlockedBackend(block_rows=64)
        with use_backend(instance) as active:
            assert active is instance
            assert get_backend() is instance

    def test_use_backend_none_keeps_the_active_backend(self):
        with use_backend("numpy") as outer:
            with use_backend(None) as active:
                assert active is outer
                assert get_backend() is outer
            assert get_backend() is outer

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown backend"):
            with use_backend("cuda"):
                pass

    def test_non_backend_rejected(self):
        with pytest.raises(TypeError):
            with use_backend(42):
                pass

    def test_use_backend_restores_previous(self):
        with use_backend("numpy") as outer:
            with use_backend("blocked") as active:
                assert isinstance(active, BlockedBackend)
                assert get_backend() is active
            assert get_backend() is outer

    def test_use_backend_restores_on_error(self):
        with use_backend("numpy") as outer:
            with pytest.raises(RuntimeError):
                with use_backend("blocked"):
                    raise RuntimeError("boom")
            assert get_backend() is outer


class TestNumpyBackendGemm:
    def test_matches_matmul(self, rng):
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((5, 3))
        np.testing.assert_array_equal(NumpyBackend().gemm(a, b), a @ b)

    def test_out_parameter_is_written_and_returned(self, rng):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        out = np.empty((4, 4))
        result = NumpyBackend().gemm(a, b, out=out)
        assert result is out
        np.testing.assert_array_equal(out, a @ b)

    def test_bias_epilogue(self, rng):
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((4, 2))
        bias = rng.standard_normal(2)
        np.testing.assert_allclose(
            NumpyBackend().gemm(a, b, bias=bias), a @ b + bias, rtol=1e-12
        )

    def test_relu_epilogue(self, rng):
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((4, 2))
        bias = rng.standard_normal(2)
        expected = np.maximum(a @ b + bias, 0.0)
        np.testing.assert_allclose(
            NumpyBackend().gemm(a, b, bias=bias, activation="relu"), expected,
            rtol=1e-12,
        )

    def test_counts_gemm_calls(self, rng):
        a = rng.standard_normal((3, 3))
        before = counters.get("gemm_calls")
        NumpyBackend().gemm(a, a)
        assert counters.get("gemm_calls") == before + 1


class TestBlockedBackend:
    def test_small_problem_defers_to_direct(self, rng):
        backend = BlockedBackend(block_rows=64)
        a = rng.standard_normal((32, 8))
        b = rng.standard_normal((8, 4))
        before = counters.get("backend_gemm_blocked")
        np.testing.assert_array_equal(backend.gemm(a, b), a @ b)
        assert counters.get("backend_gemm_blocked") == before

    def test_large_problem_tiles_and_matches_reference(self, rng):
        backend = BlockedBackend(block_rows=16)
        a = rng.standard_normal((100, 12))
        b = rng.standard_normal((12, 5))
        bias = rng.standard_normal(5)
        before_tiles = counters.get("backend_gemm_tiles")
        result = backend.gemm(a, b, bias=bias, activation="relu")
        expected = np.maximum(a @ b + bias, 0.0)
        np.testing.assert_allclose(result, expected, rtol=1e-12)
        # ceil(100 / 16) = 7 tiles
        assert counters.get("backend_gemm_tiles") == before_tiles + 7

    def test_out_parameter_on_tiled_path(self, rng):
        backend = BlockedBackend(block_rows=8)
        a = rng.standard_normal((40, 6))
        b = rng.standard_normal((6, 3))
        out = np.empty((40, 3))
        result = backend.gemm(a, b, out=out)
        assert result is out
        np.testing.assert_allclose(out, a @ b, rtol=1e-12)

    def test_non_2d_defers(self, rng):
        backend = BlockedBackend(block_rows=1)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 4, 5))
        np.testing.assert_allclose(backend.gemm(a, b), a @ b, rtol=1e-12)

    def test_invalid_block_rows(self):
        with pytest.raises(ValueError):
            BlockedBackend(block_rows=0)


class TestEpilogue:
    """The relu epilogue, on the direct path and per tile."""

    @pytest.fixture(params=["numpy", "blocked-tiled"])
    def backend(self, request):
        # block_rows=1 tiles every product with at least two rows.
        return NumpyBackend() if request.param == "numpy" else BlockedBackend(block_rows=1)

    def test_relu_clamps(self, backend):
        x = np.array([[-1.0], [0.0], [2.5]])
        np.testing.assert_array_equal(
            backend.gemm(x, np.eye(1), activation="relu"), [[0.0], [0.0], [2.5]])

    def test_relu_preserves_float32(self, backend):
        x = np.array([[-1.0], [2.0]], dtype=np.float32)
        out = backend.gemm(x, np.eye(1, dtype=np.float32), activation="relu")
        assert out.dtype == np.float32

    def test_unknown_activation_raises(self, backend):
        with pytest.raises(ValueError, match="activation"):
            backend.gemm(np.eye(2), np.eye(2), activation="tanh")


class TestBackendThreadsThroughOps:
    def test_dense_forward_uses_active_backend(self, rng):
        from repro.nn import Dense, Tensor

        recorded = {}

        class Spy(NumpyBackend):
            def gemm(self, a, b, out=None, *, bias=None, activation=None):
                recorded["bias"] = bias
                return super().gemm(a, b, out=out, bias=bias, activation=activation)

        layer = Dense(4, 3, rng=rng)
        with use_backend(Spy()):
            out = layer(Tensor(rng.standard_normal((2, 4))))
        assert out.shape == (2, 3)
        assert recorded["bias"] is layer.bias.data

    def test_conv_activation_epilogue_matches_separate_relu(self, rng):
        from repro.nn import Conv2D, ReLU, Tensor, no_grad
        from repro.utils.perf import counters as perf_counters

        init_rng = np.random.default_rng(3)
        fused = Conv2D(2, 4, kernel_size=3, activation="relu", rng=init_rng)
        init_rng = np.random.default_rng(3)
        separate = Conv2D(2, 4, kernel_size=3, rng=init_rng)
        x = rng.standard_normal((3, 2, 5, 5))

        # Inference: the clamp rides the GEMM epilogue.
        before = perf_counters.get("backend_fused_activation")
        with no_grad():
            fused_out = fused(Tensor(x))
            reference = ReLU()(separate(Tensor(x)))
        assert perf_counters.get("backend_fused_activation") > before
        np.testing.assert_allclose(fused_out.data, reference.data, rtol=1e-12)

        # Training: the epilogue is a regular graph node with exact grads.
        inputs_fused = Tensor(x, requires_grad=True)
        inputs_ref = Tensor(x, requires_grad=True)
        fused(inputs_fused).sum().backward()
        ReLU()(separate(inputs_ref)).sum().backward()
        np.testing.assert_allclose(inputs_fused.grad, inputs_ref.grad,
                                   rtol=1e-12, atol=1e-12)

    def test_conv_rejects_unknown_activation(self, rng):
        from repro.nn import Conv2D

        with pytest.raises(ValueError, match="activation"):
            Conv2D(2, 4, activation="gelu", rng=rng)

    def test_blocked_and_numpy_training_agree(self, rng):
        """A conv+dense forward/backward matches across backends to round-off."""
        from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential, Tensor
        from repro.nn import functional as F

        def run(backend_name):
            with use_backend(backend_name):
                model_rng = np.random.default_rng(7)
                model = Sequential([
                    Conv2D(2, 4, kernel_size=3, rng=model_rng),
                    ReLU(),
                    MaxPool2D(2),
                    Flatten(),
                    Dense(16, 3, rng=model_rng),
                ])
                x = Tensor(rng.standard_normal((5, 2, 4, 4)), requires_grad=True)
                loss = F.cross_entropy(model(x), np.array([0, 1, 2, 0, 1]))
                loss.backward()
                return loss.item(), x.grad.copy()

        rng_state = rng.bit_generator.state
        loss_numpy, grad_numpy = run("numpy")
        rng.bit_generator.state = rng_state
        loss_blocked, grad_blocked = run(BlockedBackend(block_rows=2))
        assert loss_numpy == pytest.approx(loss_blocked, rel=1e-12)
        np.testing.assert_allclose(grad_numpy, grad_blocked, rtol=1e-12, atol=1e-12)
