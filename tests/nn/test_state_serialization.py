"""Optimizer state dicts, their npz round-trip, and RNG stream packing.

These are the primitives the durable-checkpoint layer builds on: an
optimizer restored from a checkpoint must resume the *exact* update
trajectory (moment buffers included), and a packed RNG stream must
reproduce the exact draw sequence of the generator it captured.
"""

import numpy as np
import pytest

from repro.nn.layers.base import Parameter
from repro.nn.optim import SGD, Adam, AdamW, RMSProp
from repro.nn.serialization import (
    flatten_optimizer_state,
    pack_rng_state,
    restore_rng_state,
    save_state_dict,
    load_state_dict,
    unflatten_optimizer_state,
    unpack_rng_state,
)


def make_optimizer(cls, shapes=((4, 3), (3,)), dtype=np.float64, **kwargs):
    parameters = [Parameter(np.zeros(shape, dtype=dtype)) for shape in shapes]
    return cls(parameters, **kwargs), parameters


def synthetic_steps(optimizer, parameters, steps, seed):
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        for parameter in parameters:
            parameter.grad = rng.normal(size=parameter.data.shape)
        optimizer.step()


def assert_parameters_equal(a, b):
    for left, right in zip(a, b):
        np.testing.assert_array_equal(left.data, right.data)


OPTIMIZERS = [
    (SGD, dict(lr=0.05, momentum=0.9)),
    (Adam, dict(lr=0.01)),
    (AdamW, dict(lr=0.01, weight_decay=0.01)),
    (RMSProp, dict(lr=0.01)),
]


class TestResumeExactness:
    @pytest.mark.parametrize("cls, kwargs", OPTIMIZERS,
                             ids=[cls.__name__ for cls, _ in OPTIMIZERS])
    def test_restored_optimizer_resumes_exact_trajectory(self, cls, kwargs):
        reference, ref_params = make_optimizer(cls, **kwargs)
        synthetic_steps(reference, ref_params, steps=3, seed=1)
        snapshot = reference.state_dict()
        snapshot_params = [p.data.copy() for p in ref_params]
        synthetic_steps(reference, ref_params, steps=4, seed=2)

        resumed, res_params = make_optimizer(cls, **kwargs)
        for parameter, value in zip(res_params, snapshot_params):
            parameter.data = value.copy()
        resumed.load_state_dict(snapshot)
        assert resumed.step_count == 3
        synthetic_steps(resumed, res_params, steps=4, seed=2)
        assert_parameters_equal(ref_params, res_params)

    def test_state_dict_is_a_snapshot(self):
        optimizer, parameters = make_optimizer(Adam, lr=0.01)
        synthetic_steps(optimizer, parameters, steps=2, seed=1)
        snapshot = optimizer.state_dict()
        frozen = [b.copy() for b in snapshot["slots"]["m"]]
        synthetic_steps(optimizer, parameters, steps=2, seed=2)
        for before, after in zip(frozen, snapshot["slots"]["m"]):
            np.testing.assert_array_equal(before, after)

    def test_untouched_slots_stay_none(self):
        optimizer, _ = make_optimizer(SGD, lr=0.1, momentum=0.9)
        state = optimizer.state_dict()
        assert state["slots"]["velocity"] == [None, None]
        fresh, _ = make_optimizer(SGD, lr=0.1, momentum=0.9)
        fresh.load_state_dict(state)  # all-None restore is valid

    def test_none_entries_clear_existing_buffers(self):
        optimizer, parameters = make_optimizer(SGD, lr=0.1, momentum=0.9)
        synthetic_steps(optimizer, parameters, steps=1, seed=1)
        assert optimizer._velocity[0] is not None
        blank, _ = make_optimizer(SGD, lr=0.1, momentum=0.9)
        optimizer.load_state_dict(blank.state_dict())
        assert optimizer._velocity == [None, None]
        assert optimizer.step_count == 0


class TestStrictness:
    def test_unexpected_slot_rejected_strict(self):
        sgd, params = make_optimizer(SGD, lr=0.1, momentum=0.9)
        synthetic_steps(sgd, params, steps=1, seed=1)
        adam, _ = make_optimizer(Adam, lr=0.01)
        with pytest.raises(ValueError, match="unexpected slots"):
            adam.load_state_dict(sgd.state_dict())

    def test_missing_slot_rejected_strict(self):
        adam, _ = make_optimizer(Adam, lr=0.01)
        state = adam.state_dict()
        del state["slots"]["v"]
        fresh, _ = make_optimizer(Adam, lr=0.01)
        with pytest.raises(ValueError, match="missing slots"):
            fresh.load_state_dict(state)

    def test_non_strict_ignores_foreign_slots(self):
        sgd, params = make_optimizer(SGD, lr=0.1, momentum=0.9)
        synthetic_steps(sgd, params, steps=2, seed=1)
        adam, _ = make_optimizer(Adam, lr=0.01)
        adam.load_state_dict(sgd.state_dict(), strict=False)
        assert adam.step_count == 2  # hyper-state restored
        assert adam._m == [None, None]  # buffers untouched

    def test_slot_length_mismatch_always_rejected(self):
        adam, _ = make_optimizer(Adam, lr=0.01)
        state = adam.state_dict()
        state["slots"]["m"] = state["slots"]["m"] + [None]
        state["slots"]["v"] = state["slots"]["v"] + [None]
        with pytest.raises(ValueError):
            adam.load_state_dict(state, strict=False)

    def test_shape_mismatch_rejected(self):
        adam, params = make_optimizer(Adam, lr=0.01)
        synthetic_steps(adam, params, steps=1, seed=1)
        other, _ = make_optimizer(Adam, shapes=((5, 2), (3,)), lr=0.01)
        with pytest.raises(ValueError):
            other.load_state_dict(adam.state_dict())

    def test_legacy_hyper_only_dict_accepted(self):
        adam, params = make_optimizer(Adam, lr=0.01)
        synthetic_steps(adam, params, steps=2, seed=1)
        buffers = [b.copy() for b in adam._m]
        adam.load_state_dict({"lr": 0.5, "step_count": 7})
        assert adam.lr == 0.5
        assert adam.step_count == 7
        for before, after in zip(buffers, adam._m):
            np.testing.assert_array_equal(before, after)  # untouched


class TestDtypePolicyCasts:
    @pytest.mark.parametrize("source, target",
                             [(np.float64, np.float32),
                              (np.float32, np.float64)])
    def test_cross_precision_restore(self, source, target):
        # The dtype policy governs Parameter construction, so scope each
        # optimizer's build under its own policy (as a real cross-policy
        # checkpoint restore would be).
        from repro.nn.dtype import default_dtype
        with default_dtype(source):
            donor, donor_params = make_optimizer(Adam, dtype=source, lr=0.01)
            synthetic_steps(donor, donor_params, steps=2, seed=1)
        with default_dtype(target):
            receiver, _ = make_optimizer(Adam, dtype=target, lr=0.01)
        receiver.load_state_dict(donor.state_dict())
        for buffer in receiver._m + receiver._v:
            assert buffer.dtype == target
        np.testing.assert_allclose(receiver._m[0],
                                   donor._m[0].astype(target), rtol=1e-6)

    def test_restored_buffers_do_not_alias_checkpoint(self):
        optimizer, parameters = make_optimizer(Adam, lr=0.01)
        synthetic_steps(optimizer, parameters, steps=1, seed=1)
        state = optimizer.state_dict()
        fresh, fresh_params = make_optimizer(Adam, lr=0.01)
        fresh.load_state_dict(state)
        synthetic_steps(fresh, fresh_params, steps=1, seed=2)  # mutates in place
        np.testing.assert_array_equal(optimizer._m[0], state["slots"]["m"][0])


class TestNpzRoundTrip:
    def test_save_load_optimizer(self, tmp_path):
        optimizer, parameters = make_optimizer(Adam, lr=0.01)
        synthetic_steps(optimizer, parameters, steps=3, seed=1)
        path = save_state_dict(flatten_optimizer_state(optimizer.state_dict()),
                               tmp_path / "optimizer.npz")
        fresh, fresh_params = make_optimizer(Adam, lr=0.5)
        fresh.load_state_dict(unflatten_optimizer_state(load_state_dict(path)))
        assert fresh.lr == optimizer.lr
        assert fresh.step_count == 3
        for left, right in zip(fresh._m, optimizer._m):
            np.testing.assert_array_equal(left, right)
        # And the restored optimizer continues the donor's trajectory.
        for parameter, donor in zip(fresh_params, parameters):
            parameter.data = donor.data.copy()
        synthetic_steps(optimizer, parameters, steps=2, seed=9)
        synthetic_steps(fresh, fresh_params, steps=2, seed=9)
        for left, right in zip(fresh_params, parameters):
            np.testing.assert_array_equal(left.data, right.data)

    def test_flatten_unflatten_preserves_holes(self):
        optimizer, parameters = make_optimizer(SGD, lr=0.1, momentum=0.9)
        rng = np.random.default_rng(0)
        parameters[0].grad = rng.normal(size=parameters[0].data.shape)
        optimizer.step()  # only parameter 0 gets a velocity buffer
        state = optimizer.state_dict()
        rebuilt = unflatten_optimizer_state(flatten_optimizer_state(state))
        assert rebuilt["slots"]["velocity"][1] is None
        np.testing.assert_array_equal(rebuilt["slots"]["velocity"][0],
                                      state["slots"]["velocity"][0])

    def test_save_state_dict_honors_exact_path(self, tmp_path):
        """Regression: numpy appends ``.npz`` to bare paths, which would
        break temp-then-rename writers using ``*.tmp`` names."""
        path = tmp_path / "payload.npz.tmp"
        returned = save_state_dict({"a": np.arange(3.0)}, path)
        assert returned == path
        assert path.exists()
        assert not (tmp_path / "payload.npz.tmp.npz").exists()
        loaded = load_state_dict(path)
        np.testing.assert_array_equal(loaded["a"], np.arange(3.0))


class TestRngStreams:
    def test_pack_restore_reproduces_draws(self):
        rng = np.random.default_rng(123)
        rng.normal(size=10)  # advance the stream
        packed = pack_rng_state(rng)
        expected = rng.normal(size=5)
        rng.normal(size=7)  # drift further
        restore_rng_state(rng, packed)
        np.testing.assert_array_equal(rng.normal(size=5), expected)

    def test_pack_is_read_only(self):
        rng = np.random.default_rng(5)
        twin = np.random.default_rng(5)
        pack_rng_state(rng)  # capturing must not advance the stream
        np.testing.assert_array_equal(rng.normal(size=4), twin.normal(size=4))

    def test_pack_accepts_raw_state_dict(self):
        rng = np.random.default_rng(9)
        packed = pack_rng_state(rng.bit_generator.state)
        assert unpack_rng_state(packed) == rng.bit_generator.state

    def test_restore_none_is_noop(self):
        rng = np.random.default_rng(4)
        twin = np.random.default_rng(4)
        restore_rng_state(rng, None)
        np.testing.assert_array_equal(rng.normal(size=3), twin.normal(size=3))

    def test_round_trips_through_npz(self, tmp_path):
        rng = np.random.default_rng(77)
        rng.normal(size=3)
        save_state_dict({"stream": pack_rng_state(rng)}, tmp_path / "rng.npz")
        expected = rng.normal(size=4)
        fresh = np.random.default_rng(0)
        restore_rng_state(fresh, load_state_dict(tmp_path / "rng.npz")["stream"])
        np.testing.assert_array_equal(fresh.normal(size=4), expected)
