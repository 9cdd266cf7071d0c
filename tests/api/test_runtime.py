"""The runtime facade: materialization determinism and trainer wiring."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import (JobSpec, JobWorkload, build_split, build_trainer,
                       build_workload, resume_trainer, run_job)
from repro.api.runtime import scale_architecture, scale_image_size
from repro.core.config import TrainingConfig
from repro.simnet.topology import star_topology
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

    @pytest.mark.parametrize("scale", ["paper", "laptop"])
    def test_scale_sets_network_and_image_size(self, scale):
        pieces = build_workload(JobWorkload(scale=scale, num_samples=40,
                                            num_end_systems=2))

        def layers(architecture):
            return [(name, parameter.shape) for name, parameter
                    in architecture.build(seed=0).named_parameters()]

        assert layers(scale_architecture(scale)) == layers(pieces.architecture)
        assert pieces.train.arrays()[0].shape[-1] == scale_image_size(scale)


class TestBuildTrainer:
    def test_checkpoint_dir_override(self, tmp_path):
        spec = JobSpec.fast_debug(epochs=1, checkpoint_every_s=0.05)
        trainer = build_trainer(spec, checkpoint_dir=str(tmp_path / "ckpt"))
        assert trainer.config.checkpoint_dir == str(tmp_path / "ckpt")

    def test_cut_comes_from_the_spec_not_the_pieces(self, tmp_path):
        """Pieces materialized for one cut train the cut the spec names."""
        cut1 = JobSpec(workload=JobWorkload(num_samples=160, num_end_systems=2,
                                            client_blocks=1))
        cut2 = JobSpec(workload=JobWorkload(num_samples=160, num_end_systems=2,
                                            client_blocks=2),
                       config=TrainingConfig.fast_debug(
                           epochs=2, checkpoint_every_s=0.05,
                           checkpoint_dir=str(tmp_path)))
        pieces = build_workload(cut1.workload)
        assert build_split(cut2, pieces).client_blocks == 2
        trainer = build_trainer(cut2, pieces=pieces)
        assert trainer.split_spec.client_blocks == 2
        trainer.train(epochs=1)
        resumed = resume_trainer(cut2, FileCheckpointStore(tmp_path), pieces=pieces)
        assert resumed.split_spec.client_blocks == 2

    def test_topology_is_passed_through(self):
        spec = JobSpec.fast_debug(epochs=1)
        topology = star_topology(spec.workload.num_end_systems, latencies_s=[0.001, 0.2])
        trainer = build_trainer(spec, topology=topology)
        assert trainer.topology is topology

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


#: Run in a fresh interpreter: every ``import`` that a ``repro`` module makes
#: while the run-server is imported and a job is built and trained, of a
#: package outside the standard library, numpy and scipy, is printed.
_FOREIGN_IMPORTS = """
import builtins, sys
allowed = set(sys.stdlib_module_names) | {"repro", "numpy", "scipy"}
foreign = set()
real_import = builtins.__import__

def watched(name, globals=None, locals=None, fromlist=(), level=0):
    importer = (globals or {}).get("__name__", "")
    if (level == 0 and importer.partition(".")[0] == "repro"
            and name.partition(".")[0] not in allowed):
        foreign.add(name)
    return real_import(name, globals, locals, fromlist, level)

builtins.__import__ = watched
import repro.server
from repro.api import JobSpec, build_trainer
build_trainer(JobSpec.fast_debug(epochs=1)).train()
print(sorted(foreign))
"""


def test_a_job_imports_nothing_beyond_numpy_and_scipy():
    """The runtime dependencies (``requirements.txt``'s first block) are
    numpy and scipy: the run-server and a job import no other package."""
    src = Path(__file__).resolve().parents[2] / "src"
    result = subprocess.run([sys.executable, "-c", _FOREIGN_IMPORTS], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                            timeout=300, check=True)
    assert result.stdout.splitlines()[-1] == "[]"
