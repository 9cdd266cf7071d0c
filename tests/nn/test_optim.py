"""Tests for the optimizers."""

import numpy as np
import pytest

from repro.nn.layers.base import Parameter
from repro.nn.optim import SGD, Adam, AdamW, RMSProp, get_optimizer
from repro.nn.tensor import Tensor


def quadratic_loss(parameter: Parameter) -> Tensor:
    """Simple convex objective ||p - 3||^2."""
    diff = parameter - Tensor(np.full_like(parameter.data, 3.0))
    return (diff * diff).sum()


def run_optimizer(optimizer_cls, steps=200, **kwargs):
    parameter = Parameter(np.zeros(4))
    optimizer = optimizer_cls([parameter], **kwargs)
    for _ in range(steps):
        optimizer.zero_grad()
        loss = quadratic_loss(parameter)
        loss.backward()
        optimizer.step()
    return parameter, optimizer


class TestOptimizerBase:
    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_non_positive_lr_rejected(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(2))], lr=0.0)

    def test_step_skips_parameters_without_grad(self):
        parameter = Parameter(np.ones(3))
        optimizer = SGD([parameter], lr=0.1)
        optimizer.step()  # no gradient yet: must be a no-op
        np.testing.assert_allclose(parameter.data, np.ones(3))

    def test_zero_grad(self):
        parameter = Parameter(np.ones(3))
        optimizer = SGD([parameter], lr=0.1)
        quadratic_loss(parameter).backward()
        optimizer.zero_grad()
        assert parameter.grad is None

    def test_state_dict_roundtrip(self):
        _, optimizer = run_optimizer(SGD, steps=3, lr=0.1)
        state = optimizer.state_dict()
        fresh = SGD([Parameter(np.zeros(4))], lr=1.0)
        fresh.load_state_dict(state)
        assert fresh.lr == optimizer.lr
        assert fresh.step_count == 3

    def test_get_optimizer_factory(self):
        optimizer = get_optimizer("sgd", [Parameter(np.zeros(2))], lr=0.1)
        assert isinstance(optimizer, SGD)
        with pytest.raises(KeyError, match="unknown optimizer"):
            get_optimizer("bogus", [Parameter(np.zeros(2))])


class TestConvergence:
    @pytest.mark.parametrize("optimizer_cls, kwargs", [
        (SGD, {"lr": 0.05}),
        (SGD, {"lr": 0.05, "momentum": 0.9}),
        (SGD, {"lr": 0.05, "momentum": 0.9, "nesterov": True}),
        (Adam, {"lr": 0.1}),
        (AdamW, {"lr": 0.1, "weight_decay": 1e-4}),
        (RMSProp, {"lr": 0.05}),
    ])
    def test_converges_to_minimum(self, optimizer_cls, kwargs):
        parameter, _ = run_optimizer(optimizer_cls, **kwargs)
        np.testing.assert_allclose(parameter.data, np.full(4, 3.0), atol=0.05)

    def test_sgd_weight_decay_shrinks_solution(self):
        no_decay, _ = run_optimizer(SGD, lr=0.05, weight_decay=0.0)
        with_decay, _ = run_optimizer(SGD, lr=0.05, weight_decay=0.5)
        assert np.abs(with_decay.data).sum() < np.abs(no_decay.data).sum()

    def test_sgd_matches_manual_update(self):
        parameter = Parameter(np.array([1.0]))
        optimizer = SGD([parameter], lr=0.1)
        quadratic_loss(parameter).backward()       # grad = 2*(1-3) = -4
        optimizer.step()
        np.testing.assert_allclose(parameter.data, [1.0 + 0.1 * 4.0])

    def test_adam_first_step_size_is_lr(self):
        # With bias correction, the very first Adam step has magnitude ~lr.
        parameter = Parameter(np.array([0.0]))
        optimizer = Adam([parameter], lr=0.01)
        quadratic_loss(parameter).backward()
        optimizer.step()
        assert abs(parameter.data[0]) == pytest.approx(0.01, rel=1e-3)


class TestValidation:
    def test_sgd_invalid_momentum(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.1, momentum=1.5)

    def test_sgd_nesterov_requires_momentum(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.1, nesterov=True)

    def test_adam_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], betas=(1.0, 0.999))

    def test_rmsprop_invalid_alpha(self):
        with pytest.raises(ValueError):
            RMSProp([Parameter(np.zeros(1))], alpha=1.2)
