"""JobSpec schema: round-trip exactness, strictness, versioning.

The golden fixture (``golden_jobspec_v1.json``) pins the serialized
form of a representative spec — any change to the payload layout shows
up as a diff to that file and has to be a deliberate, reviewed schema
change (with a version bump when an old reader could misread it).
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.api import JOBSPEC_SCHEMA_VERSION, JobSpec, JobWorkload
from repro.core.config import CONFIG_SCHEMA_VERSION, TrainingConfig

GOLDEN_PATH = Path(__file__).with_name("golden_jobspec_v1.json")


def golden_spec() -> JobSpec:
    """The spec the golden fixture serializes (keep in sync with the file)."""
    return JobSpec(
        name="golden",
        workload=JobWorkload(scale="laptop", num_samples=320,
                             num_end_systems=2, partition="dirichlet",
                             partition_kwargs={"alpha": 0.3},
                             test_fraction=0.25, client_blocks=1, seed=11),
        config=TrainingConfig.fast_debug(epochs=2, seed=11),
        evaluate=False,
    )


class TestRoundTrip:
    def test_through_json_text(self):
        spec = golden_spec()
        text = json.dumps(spec.to_json_dict())
        rebuilt = JobSpec.from_json_dict(json.loads(text))
        assert rebuilt == spec

    def test_defaults_round_trip(self):
        spec = JobSpec()
        assert JobSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_envelope_carries_versions(self):
        payload = golden_spec().to_json_dict()
        assert payload["schema_version"] == JOBSPEC_SCHEMA_VERSION
        assert payload["config"]["schema_version"] == CONFIG_SCHEMA_VERSION

    def test_golden_fixture_is_current(self):
        """Serialized form matches the committed fixture byte-for-byte."""
        expected = json.dumps(golden_spec().to_json_dict(),
                              indent=2, sort_keys=True) + "\n"
        assert GOLDEN_PATH.read_text() == expected

    def test_golden_fixture_loads(self):
        payload = json.loads(GOLDEN_PATH.read_text())
        assert JobSpec.from_json_dict(payload) == golden_spec()


class TestStrictness:
    def test_unknown_envelope_key_rejected(self):
        payload = JobSpec().to_json_dict()
        payload["epochs"] = 5  # a config knob typo'd onto the envelope
        with pytest.raises(ValueError, match="unknown JobSpec keys: epochs"):
            JobSpec.from_json_dict(payload)

    def test_unknown_workload_key_rejected(self):
        payload = JobSpec().to_json_dict()
        payload["workload"]["nmu_samples"] = 100
        with pytest.raises(ValueError, match="nmu_samples"):
            JobSpec.from_json_dict(payload)

    def test_unknown_config_key_rejected(self):
        payload = JobSpec().to_json_dict()
        payload["config"]["learning_rate"] = 0.1
        with pytest.raises(ValueError, match="learning_rate"):
            JobSpec.from_json_dict(payload)

    def test_non_mapping_payload_rejected(self):
        with pytest.raises(TypeError):
            JobSpec.from_json_dict(["not", "a", "mapping"])
        payload = JobSpec().to_json_dict()
        payload["workload"] = "iid"
        with pytest.raises(TypeError):
            JobSpec.from_json_dict(payload)

    @pytest.mark.parametrize("seed", [None, True, 1.0])
    def test_workload_seed_must_be_an_int(self, seed):
        """A ``null`` seed would draw a different dataset on every build."""
        payload = JobWorkload().to_json_dict()
        payload["seed"] = seed
        with pytest.raises(ValueError, match="seed must be an int"):
            JobWorkload.from_json_dict(payload)

    @pytest.mark.parametrize("seed", [None, False, 0.0])
    def test_config_seed_must_be_an_int(self, seed):
        with pytest.raises(ValueError, match="seed must be an int"):
            TrainingConfig.from_dict({"seed": seed})

    @pytest.mark.parametrize("loss", ["mse", "l1"])
    def test_config_loss_must_take_class_labels(self, loss):
        """Messages carry class-index labels, which these losses cannot train on."""
        with pytest.raises(ValueError, match="loss must be"):
            TrainingConfig.from_dict({"loss": loss})


class TestVersioning:
    def test_future_envelope_version_rejected(self):
        payload = JobSpec().to_json_dict()
        payload["schema_version"] = JOBSPEC_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            JobSpec.from_json_dict(payload)

    def test_future_config_version_rejected(self):
        payload = JobSpec().to_json_dict()
        payload["config"]["schema_version"] = CONFIG_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            JobSpec.from_json_dict(payload)

    def test_missing_version_reads_as_v1(self):
        payload = JobSpec().to_json_dict()
        del payload["schema_version"]
        assert JobSpec.from_json_dict(payload) == JobSpec()


class TestValidation:
    def test_bad_scale(self):
        with pytest.raises(ValueError, match="scale"):
            JobWorkload(scale="huge")

    def test_nonpositive_end_systems(self):
        with pytest.raises(ValueError, match="num_end_systems"):
            JobWorkload(num_end_systems=0)

    def test_dataset_too_small(self):
        with pytest.raises(ValueError, match="num_samples"):
            JobWorkload(num_samples=30, num_end_systems=4)

    def test_bad_test_fraction(self):
        with pytest.raises(ValueError, match="test_fraction"):
            JobWorkload(test_fraction=1.5)

    def test_empty_name(self):
        with pytest.raises(ValueError, match="name"):
            JobSpec(name="  ")

    def test_revalidated_on_parse(self):
        """Values surviving the key filter still go through __post_init__."""
        payload = JobSpec().to_json_dict()
        payload["workload"]["num_end_systems"] = -3
        with pytest.raises(ValueError, match="num_end_systems"):
            JobSpec.from_json_dict(payload)


class TestPresets:
    def test_fast_debug_shape(self):
        spec = JobSpec.fast_debug(name="smoke", epochs=2)
        assert spec.name == "smoke"
        assert spec.workload.num_samples == 160
        assert spec.workload.num_end_systems == 2
        assert spec.config.epochs == 2

    def test_specs_are_plain_dataclasses(self):
        spec = JobSpec.fast_debug()
        clone = dataclasses.replace(
            spec, config=dataclasses.replace(spec.config, epochs=9))
        assert clone.config.epochs == 9
        assert spec.config.epochs != 9
