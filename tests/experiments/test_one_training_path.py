"""Experiments and baselines train only through the trainer's message path.

The client step (``forward_batch`` / ``apply_gradient``) and the server
step (``CentralServer.process``) are driven by the engine alone; a study
that needs a different wire form sets a codec on the end-systems instead
of running a private loop.  An experiment describes each run as a
``JobSpec`` and gets its trainer from ``repro.api.build_trainer``: no
module under ``repro.experiments`` builds a trainer or a split itself or
names the harness-only workload class the JobSpec replaced.  Checked by
AST, so a new module is covered the day it is added.
"""

import ast
from pathlib import Path

import pytest

import repro.baselines
import repro.experiments

FORBIDDEN_CALLS = {"forward_batch", "apply_gradient", "process"}
FORBIDDEN_CONSTRUCTORS = {"EndSystem", "CentralServer"}
MODULES = sorted(
    path
    for package in (repro.experiments, repro.baselines)
    for path in Path(package.__file__).parent.glob("*.py")
)
EXPERIMENT_MODULES = [path for path in MODULES if path.parent.name == "experiments"]
#: Built only by ``repro.api.build_trainer`` / ``build_split``.
TRAINER_CONSTRUCTORS = {"SpatioTemporalTrainer", "SplitSpec"}
#: The deleted harness twin of ``JobWorkload``, spelled so this file does not name it.
DELETED_NAMES = {"Workload" + "Spec"}


def _offences(source):
    """``(line, name)`` for every forbidden call in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in FORBIDDEN_CALLS:
            found.append((node.lineno, func.attr))
        if isinstance(func, ast.Name) and func.id in FORBIDDEN_CONSTRUCTORS:
            found.append((node.lineno, func.id))
    return found


def _name(node):
    """The identifier a ``Name`` / ``Attribute`` / import alias node spells, if any."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rsplit(".", 1)[-1]
    return None


def _spec_offences(source):
    """``(line, name)`` for every hand-built trainer or split and every deleted name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _name(node.func) in TRAINER_CONSTRUCTORS:
            found.append((node.lineno, _name(node.func)))
        elif _name(node) in DELETED_NAMES:
            found.append((node.lineno, _name(node)))
    return found


def test_modules_are_found():
    names = {path.name for path in MODULES}
    assert {"compression.py", "table1.py", "vanilla_split.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_private_training_loop(path):
    assert _offences(path.read_text()) == []


def test_detector_sees_a_private_loop():
    loop = (
        "server = CentralServer(spec)\n"
        "message = system.forward_batch(x, y)\n"
        "system.apply_gradient(server.process(message))\n"
    )
    assert sorted(_offences(loop)) == [
        (1, "CentralServer"), (2, "forward_batch"), (3, "apply_gradient"), (3, "process"),
    ]


@pytest.mark.parametrize("path", EXPERIMENT_MODULES, ids=lambda path: path.name)
def test_experiments_build_trainers_from_job_specs(path):
    assert _spec_offences(path.read_text()) == []


def test_detector_sees_a_hand_built_trainer():
    deleted = sorted(DELETED_NAMES)[0]
    source = (
        f"from .base import {deleted}\n"
        "split = SplitSpec(architecture, client_blocks=1)\n"
        "trainer = core.trainer.SpatioTemporalTrainer(split, parts, config)\n"
        f"workload = base.{deleted}.laptop()\n"
        "trainer = build_trainer(spec, pieces=pieces)\n"
    )
    assert sorted(_spec_offences(source)) == [
        (1, deleted), (2, "SplitSpec"), (3, "SpatioTemporalTrainer"), (4, deleted),
    ]
