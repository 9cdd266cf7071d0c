"""The runtime facade: materialization determinism and trainer wiring."""

import numpy as np
import pytest

from repro.api import (JobSpec, JobWorkload, build_trainer, build_workload,
                       resume_trainer, run_job)
from repro.state import FileCheckpointStore


def tiny_workload() -> JobWorkload:
    return JobWorkload(num_samples=160, num_end_systems=2, seed=3)


class TestBuildWorkload:
    def test_two_materializations_are_bit_identical(self):
        """Two processes building the same workload must hold identical
        datasets — the property crash-resume correctness rests on."""
        first = build_workload(tiny_workload())
        second = build_workload(tiny_workload())
        first_images, first_labels = first.train.arrays()
        second_images, second_labels = second.train.arrays()
        assert np.array_equal(first_images, second_images)
        assert np.array_equal(first_labels, second_labels)
        assert [len(part) for part in first.parts] == \
            [len(part) for part in second.parts]
        for part_a, part_b in zip(first.parts, second.parts):
            images_a, labels_a = part_a.arrays()
            images_b, labels_b = part_b.arrays()
            assert np.array_equal(images_a, images_b)
            assert np.array_equal(labels_a, labels_b)

    def test_split_matches_workload(self):
        pieces = build_workload(
            JobWorkload(num_samples=160, num_end_systems=2, client_blocks=2))
        assert pieces.split_spec.client_blocks == 2

    def test_experiment_harness_delegates_here(self):
        """repro.experiments.build_workload is a shim over this module."""
        from repro.experiments.base import WorkloadSpec
        from repro.experiments.base import build_workload as legacy_build

        legacy = legacy_build(WorkloadSpec.laptop(num_samples=160,
                                                  num_end_systems=2, seed=3))
        modern = build_workload(tiny_workload())
        legacy_images, _ = legacy["train"].arrays()
        modern_images, _ = modern.train.arrays()
        assert np.array_equal(legacy_images, modern_images)

    @pytest.mark.parametrize("scale", ["paper", "laptop"])
    def test_one_scale_to_architecture_mapping(self, scale):
        """WorkloadSpec and the runtime build the same network per scale."""
        from repro.experiments.base import WorkloadSpec

        spec = WorkloadSpec(scale=scale, num_samples=40, num_end_systems=2)
        pieces = build_workload(JobWorkload(scale=scale, num_samples=40,
                                            num_end_systems=2))

        def layers(architecture):
            return [(name, parameter.shape) for name, parameter
                    in architecture.build(seed=0).named_parameters()]

        assert layers(spec.architecture()) == layers(pieces.architecture)
        assert pieces.train.arrays()[0].shape[-1] == spec.image_size


class TestBuildTrainer:
    def test_checkpoint_dir_override(self, tmp_path):
        spec = JobSpec.fast_debug(epochs=1, checkpoint_every_s=0.05)
        trainer = build_trainer(spec, checkpoint_dir=str(tmp_path / "ckpt"))
        assert trainer.config.checkpoint_dir == str(tmp_path / "ckpt")

    def test_pieces_reused(self):
        spec = JobSpec.fast_debug(epochs=1)
        pieces = build_workload(spec.workload)
        trainer = build_trainer(spec, pieces=pieces)
        assert trainer.end_systems[0] is not None
        assert len(trainer.end_systems) == spec.workload.num_end_systems


class TestRunAndResume:
    def test_run_job_returns_history(self):
        spec = JobSpec.fast_debug(epochs=1)
        history = run_job(spec)
        assert len(history.records) == 1
        assert history.final_test_accuracy is not None

    def test_resume_trainer_picks_up_from_store(self, tmp_path):
        spec = JobSpec.fast_debug(epochs=3, checkpoint_every_s=0.05,
                                  checkpoint_dir=str(tmp_path))
        pieces = build_workload(spec.workload)
        trainer = build_trainer(spec, pieces=pieces)
        trainer.train(epochs=2)
        store = FileCheckpointStore(tmp_path)
        resumed = resume_trainer(spec, store, pieces=pieces)
        assert resumed._start_epoch == 2
        history = resumed.train()
        assert history.records[-1].epoch == 2
