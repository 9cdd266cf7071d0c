"""RL004 — scheduled shard callbacks check generation (or shard health).

A crash or recovery bumps a shard runtime's ``generation`` and any event
already scheduled against the old chain must die when it fires —
otherwise a restarted chain double-fires rounds (PR 5's hardest bug
class).  The engine makes that structural: everything that continues a
shard's round chain or dispatch loop is scheduled through
``TrainingEngine._schedule_for(sim, runtime, ...)``, whose wrapper binds
the live generation at schedule time::

    generation = runtime.generation
    def fire(sim):
        if runtime.generation != generation or not runtime.shard.healthy:
            return
        fn(runtime, *args)
    sim.schedule(at_time, fire, ...)

This rule catches what goes around it.  It inspects every direct
``*.schedule(time, callback, ...)`` in the scoped modules whose callback
closes over a shard runtime (an identifier named ``rt``/``runtime``-ish)
and requires the callback — or, one level deep, a same-module function it
delegates to — to consult a ``generation`` or ``healthy``/``health``
name.  Callbacks that never touch a runtime (client-side landings, NACK
deliveries) are exempt: their staleness is resolved by per-message state,
not chain generations.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..findings import Finding
from .base import RuleContext, iter_function_defs, referenced_identifiers

__all__ = ["GenerationGuardRule"]

_SCOPED = ("core/engine.py", "cluster/shard.py")

_GUARD_TOKENS = ("generation", "healthy", "health")


def _runtime_like(names: Set[str]) -> bool:
    return any(name == "rt" or "runtime" in name.lower() for name in names)


def _guarded(names: Set[str]) -> bool:
    return any(token in name.lower() for name in names for token in _GUARD_TOKENS)


class GenerationGuardRule:
    rule_id = "RL004"
    name = "generation-guard"
    description = (
        "Simulator callbacks that close over a shard runtime must check "
        "generation/sent_generation (or shard health) so stale chains die "
        "after a crash or recovery instead of double-firing."
    )

    def __init__(self, modules: Tuple[str, ...] = _SCOPED) -> None:
        self.modules = modules

    def applies_to(self, context: RuleContext) -> bool:
        return context.in_module(names=self.modules)

    def check(self, context: RuleContext) -> Iterator[Finding]:
        defs = iter_function_defs(context.tree)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            if not (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "schedule"):
                continue
            if len(node.args) < 2:
                continue
            callback = self._resolve_callback(node.args[1], defs)
            if callback is None:
                continue
            names = referenced_identifiers(callback)
            if not _runtime_like(names):
                continue
            if _guarded(names):
                continue
            # One-level call-through: a `lambda s, rt=runtime:
            # self._failover_clients(s, rt)` forwarder is fine when the
            # handler it names does the checking.
            if _guarded(self._callee_identifiers(callback, defs)):
                continue
            yield Finding(
                path=context.path,
                line=node.lineno,
                col=node.col_offset,
                rule_id=self.rule_id,
                message="scheduled callback closes over a shard runtime but "
                        "never checks generation or shard health; a stale "
                        "chain can double-fire after crash/recovery",
                fix_hint="schedule it through TrainingEngine._schedule_for, or "
                         "bind gen=runtime.generation at schedule time and "
                         "return early when runtime.generation != gen or the "
                         "shard is unhealthy",
            )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _resolve_callback(arg: ast.AST,
                          defs: Dict[str, List[ast.AST]]) -> Optional[ast.AST]:
        if isinstance(arg, ast.Lambda):
            return arg
        if isinstance(arg, ast.Name):
            candidates = defs.get(arg.id)
            if candidates:
                return candidates[-1]
        return None

    @staticmethod
    def _callee_identifiers(callback: ast.AST,
                            defs: Dict[str, List[ast.AST]]) -> Set[str]:
        """Identifiers of every same-module function the callback calls."""
        names: Set[str] = set()
        called: List[str] = []
        for child in ast.walk(callback):
            if not isinstance(child, ast.Call):
                continue
            func = child.func
            if isinstance(func, ast.Attribute):
                called.append(func.attr)
            elif isinstance(func, ast.Name):
                called.append(func.id)
        for name in called:
            for definition in defs.get(name, ()):
                names |= referenced_identifiers(definition)
        return names
