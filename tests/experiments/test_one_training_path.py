"""Experiments and baselines train only through the trainer's message path.

The client step (``forward_batch`` / ``apply_gradient``) and the server
step (``CentralServer.process``) are driven by the engine alone; a study
that needs a different wire form sets a codec on the end-systems instead
of running a private loop.  Checked by AST, so a new module is covered the
day it is added.
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
