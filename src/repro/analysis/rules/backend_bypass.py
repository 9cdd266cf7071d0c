"""RL005 — hot-path matrix math goes through ``get_backend().gemm``.

Every heavy product of the split network is a call to
``repro.backend.get_backend().gemm``, the one GEMM path: it fuses the
bias add and the ReLU clamp into the product's epilogue, row-tiles large
products on the ``blocked`` backend, and feeds the gemm counters the
benchmarks reason with.  A raw ``np.matmul``/``@`` in a hot module
silently opts that site out: it still computes the right answer, but it
skips the epilogue and the tiling, and the counters no longer see it.

Scope is the hot modules only; the backend package itself implements the
path, and cold paths (closed-form attack baselines, one-off analysis)
may keep the readable operator.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from ..findings import Finding
from .base import RuleContext, dotted_name

__all__ = ["BackendBypassRule"]

_HOT_MODULES = ("nn/functional.py", "nn/losses.py", "core/server.py",
                "cluster/shard.py", "utils/arena.py")
_HOT_PREFIXES = ("nn/layers/",)

_RAW_GEMM_CALLS = ("matmul", "dot", "einsum", "tensordot", "inner", "vdot")


class BackendBypassRule:
    rule_id = "RL005"
    name = "backend-bypass"
    description = (
        "Hot modules must route matrix products through "
        "repro.backend (get_backend().gemm) instead of raw "
        "np.matmul/@/einsum, so tiling and fused epilogues apply."
    )

    def __init__(self, modules: Tuple[str, ...] = _HOT_MODULES,
                 prefixes: Tuple[str, ...] = _HOT_PREFIXES) -> None:
        self.modules = modules
        self.prefixes = prefixes

    def applies_to(self, context: RuleContext) -> bool:
        return context.in_module(names=self.modules, prefixes=self.prefixes)

    def check(self, context: RuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                yield self._finding(context, node, "the @ operator")
            elif isinstance(node, ast.Call):
                called = dotted_name(node.func)
                if called is None:
                    continue
                alias, _, attr = called.partition(".")
                if alias in ("np", "numpy") and attr in _RAW_GEMM_CALLS:
                    yield self._finding(context, node, f"{called}()")

    def _finding(self, context: RuleContext, node: ast.AST, what: str) -> Finding:
        return Finding(
            path=context.path,
            line=node.lineno,
            col=node.col_offset,
            rule_id=self.rule_id,
            message=f"raw GEMM via {what} in a hot module bypasses "
                    "get_backend().gemm (tiling, fused epilogues, counters)",
            fix_hint="use repro.backend.get_backend().gemm(a, b, bias=, "
                     "activation=) — it fuses the epilogue and keeps the "
                     "gemm counters honest",
        )
