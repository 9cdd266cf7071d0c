"""Tests for the Module base class and the Sequential container."""

import numpy as np
import pytest

from repro.nn import Dense, Flatten, MaxPool2D, Module, Parameter, ReLU, Sequential, Tensor
from repro.nn.dtype import default_dtype
from repro.nn.layers.base import Parameter as BaseParameter


class Affine(Module):
    """Minimal custom module used to exercise the registration machinery."""

    def __init__(self):
        super().__init__()
        self.scale = Parameter(np.array([2.0]))

    def forward(self, inputs):
        return inputs * self.scale


class TestModule:
    def test_parameter_registration_via_attribute(self):
        module = Affine()
        names = [name for name, _ in module.named_parameters()]
        assert names == ["scale"]

    def test_parameters_are_recursive(self, rng):
        outer = Sequential([("inner", Dense(3, 2, rng=rng)), ("act", ReLU())])
        names = [name for name, _ in outer.named_parameters()]
        assert names == ["inner.weight", "inner.bias"]

    def test_register_module_type_check(self):
        with pytest.raises(TypeError):
            Affine().register_module("bad", object())

    def test_num_parameters(self, rng):
        dense = Dense(4, 3, rng=rng)
        assert dense.num_parameters() == 4 * 3 + 3

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(Tensor([1.0]))

    def test_state_dict_roundtrip(self, rng):
        source = Dense(3, 2, rng=rng)
        target = Dense(3, 2, rng=np.random.default_rng(999))
        target.load_state_dict(source.state_dict())
        np.testing.assert_allclose(source.weight.data, target.weight.data)
        np.testing.assert_allclose(source.bias.data, target.bias.data)

    def test_state_dict_copies_not_views(self, rng):
        dense = Dense(2, 2, rng=rng)
        state = dense.state_dict()
        state["weight"][:] = 0.0
        assert not np.allclose(dense.weight.data, 0.0)

    @pytest.mark.parametrize("parameter_dtype", [np.float64, np.float32])
    def test_load_state_dict_copies_each_value_once(self, rng, parameter_dtype):
        """Same dtype or cast from float64, each parameter gets the state
        entry's values in a C-ordered buffer of its own."""
        with default_dtype(parameter_dtype):
            dense = Dense(3, 2, rng=rng)
        state = {"weight": np.asfortranarray(rng.normal(size=(3, 2))),
                 "bias": rng.normal(size=2)}
        dense.load_state_dict(state)
        for name, parameter in dense.named_parameters():
            data = parameter.data
            assert data.dtype == parameter_dtype and data.flags.c_contiguous
            assert data.tobytes() == state[name].astype(parameter_dtype).tobytes()
            assert not np.shares_memory(data, state[name])

    def test_load_state_dict_shape_mismatch(self, rng):
        dense = Dense(3, 2, rng=rng)
        bad_state = {"weight": np.zeros((2, 2)), "bias": np.zeros(2)}
        with pytest.raises(ValueError, match="shape mismatch"):
            dense.load_state_dict(bad_state)

    def test_load_state_dict_strict_missing_key(self, rng):
        dense = Dense(3, 2, rng=rng)
        with pytest.raises(KeyError):
            dense.load_state_dict({"weight": dense.weight.data})
        # Non-strict mode tolerates the missing bias.
        dense.load_state_dict({"weight": dense.weight.data}, strict=False)

    def test_parameter_repr(self):
        assert "shape" in repr(BaseParameter(np.zeros((2, 2)), name="w"))


class TestSequential:
    def make_model(self, rng):
        return Sequential([
            ("dense1", Dense(4, 8, rng=rng)),
            ("relu", ReLU()),
            ("dense2", Dense(8, 3, rng=rng)),
        ])

    def test_forward_applies_in_order(self, rng):
        model = self.make_model(rng)
        x = rng.standard_normal((2, 4))
        expected = model["dense2"](ReLU()(model["dense1"](Tensor(x))))
        np.testing.assert_allclose(model(Tensor(x)).data, expected.data)

    def test_len_iter_and_names(self, rng):
        model = self.make_model(rng)
        assert len(model) == 3
        assert model.layer_names == ["dense1", "relu", "dense2"]
        assert [type(layer).__name__ for layer in model] == ["Dense", "ReLU", "Dense"]

    def test_unnamed_layers_get_positional_names(self, rng):
        model = Sequential([Dense(2, 2, rng=rng), ReLU()])
        assert model.layer_names == ["layer0", "layer1"]

    def test_duplicate_name_rejected(self, rng):
        with pytest.raises(ValueError, match="duplicate"):
            Sequential([("a", ReLU()), ("a", ReLU())])

    def test_append_type_check(self):
        with pytest.raises(TypeError):
            Sequential().append("not a module")

    def test_indexing_by_name_int_and_slice(self, rng):
        model = self.make_model(rng)
        assert model["relu"] is model[1]
        head = model[:2]
        assert isinstance(head, Sequential)
        assert head.layer_names == ["dense1", "relu"]

    def test_slice_shares_parameters(self, rng):
        model = self.make_model(rng)
        head = model[:1]
        assert head["dense1"].weight is model["dense1"].weight

    def test_index_of_unknown_layer(self, rng):
        with pytest.raises(KeyError, match="available layers"):
            self.make_model(rng).index_of("missing")

    def test_split_at_index_and_name(self, rng):
        model = self.make_model(rng)
        head, tail = model.split_at(1)
        assert head.layer_names == ["dense1"]
        assert tail.layer_names == ["relu", "dense2"]
        head, tail = model.split_at("relu")
        assert head.layer_names == ["dense1", "relu"]
        assert tail.layer_names == ["dense2"]

    def test_split_at_out_of_range(self, rng):
        with pytest.raises(ValueError):
            self.make_model(rng).split_at(7)

    def test_split_composition_equals_full_forward(self, rng):
        model = self.make_model(rng)
        head, tail = model.split_at(2)
        x = Tensor(rng.standard_normal((3, 4)))
        np.testing.assert_allclose(tail(head(x)).data, model(x).data)

    def test_empty_sequential_is_identity(self, rng):
        x = Tensor(rng.standard_normal((2, 5)))
        out = Sequential()(x)
        np.testing.assert_allclose(out.data, x.data)

    def test_forward_collect_returns_every_activation(self, rng):
        model = self.make_model(rng)
        activations = model.forward_collect(Tensor(rng.standard_normal((2, 4))))
        assert list(activations) == ["dense1", "relu", "dense2"]
        assert activations["dense2"].shape == (2, 3)

    def test_cnn_style_sequential(self, rng):
        model = Sequential([
            ("conv", __import__("repro.nn", fromlist=["Conv2D"]).Conv2D(3, 4, rng=rng)),
            ("pool", MaxPool2D(2)),
            ("flat", Flatten()),
            ("out", Dense(4 * 4 * 4, 2, rng=rng)),
        ])
        assert model(Tensor(rng.standard_normal((2, 3, 8, 8)))).shape == (2, 2)

    def test_repr_lists_children(self, rng):
        assert "dense1" in repr(self.make_model(rng))
