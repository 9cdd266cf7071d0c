"""The trace is the ledger's history: same events as the parent, legal moves.

The parent-commit golden (``fixtures/engine_trace_parent.json``, see
``fixtures/README.md``) was recorded before the engine's ledger writes and
trace calls became one ``_enter`` path; every kernel cell, traced at two
sample rates, must still produce the identical trace — same events, same
order, same bytes.  The transition test pins the ledger's shape while those
cells run, and the AST test pins its one writer and two removers.
"""

import ast
import json
from collections import Counter
from pathlib import Path

import pytest

import engine_kernel_golden as kernel_golden
import engine_trace_golden as golden
from repro.core import engine as engine_module
from repro.core.engine import TrainingEngine


@pytest.fixture(scope="module")
def parent_golden():
    return json.loads(golden.GOLDEN.read_text())


@pytest.fixture(scope="module")
def tiny_parts4(tiny_splits):
    from repro.data.partition import IIDPartitioner

    train, _ = tiny_splits
    return IIDPartitioner(4, seed=5).partition(train)


@pytest.mark.parametrize("case", sorted(golden.CASES))
def test_trace_reproduces_parent(case, parent_golden, tiny_split_spec, tiny_parts4,
                                 normalize):
    produced = golden.run_case(tiny_split_spec, tiny_parts4, normalize, case)
    assert produced["events"] == parent_golden[case]["events"], case
    assert produced["sha256"] == parent_golden[case]["sha256"], case


#: Events traced for every batch: losses, and the control plane.
UNSAMPLED = {"nack", "nack-lost", "failover-drop", "dedup", "queue-drop",
             "server-step", "round-start", "weight-sync", "sync-timeout",
             "failover", "shard-crash", "shard-recovery", "chaos-move",
             "chaos-straggler"}


def test_golden_is_not_vacuous(parent_golden):
    """Both rates ran every cell; the half rate thins only the sampled legs."""
    assert parent_golden.keys() == golden.CASES.keys()
    names = Counter()
    for name in kernel_golden.CELLS:
        full = parent_golden[f"{name}@1.0"]["events"]
        half = parent_golden[f"{name}@0.5"]["events"]
        names.update(full)
        assert full["uplink"] > half["uplink"] > 0, name
        assert full["downlink"] > half.get("downlink", 0), name
        for event in UNSAMPLED:
            assert full.get(event) == half.get(event), (name, event)
    assert set(names) == UNSAMPLED | {"uplink", "queue-admit", "queue-wait",
                                      "downlink"}


#: The ledger's moves at the parent, ``(from, to)``; ``None`` is "not in
#: the ledger", and an exit is named by the method that removes the entry.
LEGAL = {
    # ``_uplink``: on the wire, or lost with the client yet to learn.
    (None, "uplink"), (None, "awaiting_giveup"),
    # ``_admit``: queued, or shed by a full queue with the NACK travelling.
    ("uplink", "queued"), ("uplink", "awaiting_nack"),
    # ``_reply``: the gradient ships, or its transfer is lost.
    ("queued", "downlink"), ("queued", "awaiting_giveup"),
    # Exits.  Only a landed gradient is delivered.  A budget stop forgets
    # any state; otherwise an uplink is forgotten when its NACK is lost or
    # a dead hub sheds it, a queued batch when its shard crashes, and the
    # two waiting states when the client learns of the loss.
    ("downlink", "_deliver"),
    ("uplink", "_forget"), ("queued", "_forget"), ("downlink", "_forget"),
    ("awaiting_nack", "_forget"), ("awaiting_giveup", "_forget"),
}
#: Legal only on a path the cells do not reach: a budget stop with a
#: gradient on the wire.
UNREACHED = {("downlink", "_forget")}


@pytest.fixture
def transitions(monkeypatch):
    """Every ledger move the engine makes while the fixture is active."""
    seen = Counter()
    enter = TrainingEngine._enter
    deliver = TrainingEngine._deliver
    forget = TrainingEngine._forget

    def wrapped_enter(engine, key, state, *args, **kwargs):
        seen[engine._outstanding.get(key), state] += 1
        enter(engine, key, state, *args, **kwargs)

    def wrapped_deliver(engine, end_system, gradient_message):
        key = (end_system.system_id, gradient_message.batch_id)
        seen[engine._outstanding.get(key), "_deliver"] += 1
        deliver(engine, end_system, gradient_message)

    def wrapped_forget(engine, end_system, batch_id, *args, **kwargs):
        seen[engine._outstanding.get((end_system.system_id, batch_id)),
             "_forget"] += 1
        forget(engine, end_system, batch_id, *args, **kwargs)

    monkeypatch.setattr(TrainingEngine, "_enter", wrapped_enter)
    monkeypatch.setattr(TrainingEngine, "_deliver", wrapped_deliver)
    monkeypatch.setattr(TrainingEngine, "_forget", wrapped_forget)
    return seen


def test_ledger_transitions_are_legal(transitions, tiny_split_spec, tiny_parts4,
                                      normalize):
    observed = set()
    for name in kernel_golden.CELLS:
        transitions.clear()
        golden.run_traced(tiny_split_spec, tiny_parts4, normalize, name, 1.0)
        assert set(transitions) <= LEGAL, (name, set(transitions) - LEGAL)
        observed |= set(transitions)
    assert observed == LEGAL - UNREACHED


ENGINE = Path(engine_module.__file__)


def _ledger_mutations():
    """``(method, kind)`` for every write/removal of ``_outstanding``."""
    found = []

    def visit(node, method):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            method = node.name
        targets = []
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            kind = "assign"
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        elif isinstance(node, ast.Delete):
            kind, targets = "del", node.targets
        for target in targets:
            if (isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr == "_outstanding"):
                found.append((method, kind))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "_outstanding"
                and node.func.attr not in ("get", "items", "keys", "values")):
            found.append((method, node.func.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, method)

    visit(ast.parse(ENGINE.read_text()), None)
    return found


def test_ledger_has_one_writer_and_two_removers():
    """``_enter`` alone stores a state; ``_deliver``/``_forget`` alone delete."""
    mutations = _ledger_mutations()
    assert sorted(set(mutations)) == [
        ("_deliver", "del"), ("_enter", "assign"), ("_forget", "del")]
    assert mutations.count(("_enter", "assign")) == 1
