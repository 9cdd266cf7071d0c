"""RL003 — queue/arena/pending state mutates only in approved modules.

The cluster-wide drop-accounting invariant
(``notified == queue + transport - nack - sync + failover``) holds
because every loss path funnels through ``EndSystem.notify_drop`` and
the queue/arena helpers in the server, shard and engine.  A stray
``shard.queue.clear()`` or ``end_system._pending.pop(...)`` from
anywhere else silently removes work without notifying its owner and the
ledger stops balancing — exactly the class of leak PR 2/PR 5 hunted
down by hand.

The rule flags *mutations* (clear/pop/remove, attribute assignment,
``del``) of the accounting-protected attributes outside the modules that
implement the approved paths.  Reads are always fine; ``__init__``
construction is fine anywhere.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from ..findings import Finding
from .base import RuleContext

__all__ = ["DropAccountingRule"]

#: Attribute names participating in drop accounting.
_PROTECTED = ("_pending", "queue", "_queue", "arena", "_arena",
              "_outstanding", "stranded")

#: Method calls that remove or destroy queued work.
_MUTATORS = ("clear", "pop", "popleft", "popitem", "remove")

#: Modules implementing the approved notify_drop-routing paths (plus the
#: queue/arena containers themselves, which own their storage).
_APPROVED = (
    "core/end_system.py",
    "core/server.py",
    "core/engine.py",
    "core/scheduling.py",
    "cluster/shard.py",
    "utils/arena.py",
)


class DropAccountingRule:
    rule_id = "RL003"
    name = "drop-accounting"
    description = (
        "Server queues, arenas and _pending maps may only be mutated by "
        "the approved notify_drop-routing helpers; direct clears/pops "
        "elsewhere break the drop-accounting balance."
    )

    def __init__(self, approved: Tuple[str, ...] = _APPROVED) -> None:
        self.approved = approved

    def applies_to(self, context: RuleContext) -> bool:
        if context.modpath is None:
            return False
        if context.modpath.startswith("analysis/"):
            return False
        return context.modpath not in self.approved

    def check(self, context: RuleContext) -> Iterator[Finding]:
        visitor = _MutationVisitor(context)
        visitor.visit(context.tree)
        yield from visitor.findings


def _protected_attr(node: ast.AST) -> str:
    """The protected attribute name if ``node`` is ``<expr>.<protected>``."""
    if isinstance(node, ast.Attribute) and node.attr in _PROTECTED:
        return node.attr
    return ""


class _MutationVisitor(ast.NodeVisitor):
    def __init__(self, context: RuleContext) -> None:
        self.context = context
        self.findings: List[Finding] = []
        self._function_stack: List[str] = []

    # ------------------------------------------------------------------ #
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _in_init(self) -> bool:
        return bool(self._function_stack) and self._function_stack[-1] == "__init__"

    def _report(self, node: ast.AST, attr: str, what: str) -> None:
        self.findings.append(Finding(
            path=self.context.path,
            line=node.lineno,
            col=node.col_offset,
            rule_id=DropAccountingRule.rule_id,
            message=f"{what} of accounting-protected '{attr}' outside the "
                    "approved drop-routing modules",
            fix_hint="route the loss through EndSystem.notify_drop / the "
                     "server+shard queue helpers so the drop ledger balances",
        ))

    # ------------------------------------------------------------------ #
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
            attr = _protected_attr(func.value)
            if attr:
                self._report(node, attr, f"direct .{func.attr}()")
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._in_init():
            for target in node.targets:
                attr = _protected_attr(target)
                if attr:
                    self._report(node, attr, "rebinding")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if not self._in_init():
            attr = _protected_attr(node.target)
            if attr:
                self._report(node, attr, "rebinding")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr = _protected_attr(node.target)
        if attr:
            self._report(node, attr, "augmented assignment")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            attr = _protected_attr(target)
            if not attr and isinstance(target, ast.Subscript):
                attr = _protected_attr(target.value)
            if attr:
                self._report(node, attr, "del")
        self.generic_visit(node)
