"""RL002 — all randomness and time flow through seeded/simulated sources.

Replay-exact recovery (``repro.state``) and the 1e-9 equivalence pins
only hold if a run is a pure function of its seed: wall-clock reads and
process-global RNG state are the two ways that breaks.  Every stochastic
component must draw from a seeded ``numpy.random.Generator``, and simulated
components must take time from the simulator clock, never the host's.

A generator seeded from a value that may be ``None`` is unseeded in
disguise: ``default_rng(None)`` draws from OS entropy.  So the seed of a
``default_rng(x)`` / ``Generator(BitGen(x))`` call must not be a parameter
of the enclosing function that defaults to ``None`` or is typed
``Optional`` / ``… | None``, nor a conditional expression with a ``None``
branch.

``time.perf_counter``/``process_time`` stay allowed: they measure the
*host* for benchmarking and never feed simulation state.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, Optional, Tuple

from ..findings import Finding
from .base import RuleContext, dotted_name

__all__ = ["DeterminismRule"]

#: Dotted-call suffixes that read the wall clock.
_WALL_CLOCK = (
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)

#: Legacy global-state numpy.random functions (np.random.<fn>); the
#: Generator API (default_rng / SeedSequence / spawn) is the allowed path.
_NP_LEGACY = {
    "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "normal", "uniform",
    "standard_normal", "binomial", "poisson", "beta", "gamma", "exponential",
    "geometric", "lognormal", "multinomial", "get_state", "set_state",
    "RandomState",
}

#: Stdlib ``random`` module functions (all share hidden global state).
_STDLIB_RANDOM = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "seed", "getrandbits",
    "betavariate", "expovariate", "triangular", "vonmisesvariate",
}


class DeterminismRule:
    rule_id = "RL002"
    name = "determinism"
    description = (
        "Simulation code must not read the wall clock or legacy global "
        "RNGs or seed a Generator from a value that may be None; randomness "
        "flows through a seeded Generator and time through the simulator clock."
    )

    def applies_to(self, context: RuleContext) -> bool:
        return context.modpath is not None and not context.modpath.startswith("analysis/")

    def check(self, context: RuleContext) -> Iterator[Finding]:
        for node, nullable in _calls_with_nullable_params(context.tree, frozenset()):
            called = dotted_name(node.func)
            if called is None:
                continue
            finding = self._classify(called) or self._classify_unseeded(called, node, nullable)
            if finding is None:
                continue
            message, hint = finding
            yield Finding(
                path=context.path,
                line=node.lineno,
                col=node.col_offset,
                rule_id=self.rule_id,
                message=message.format(called=called),
                fix_hint=hint,
            )

    @staticmethod
    def _classify(called: str) -> Optional[Tuple[str, str]]:
        for suffix in _WALL_CLOCK:
            if called == suffix or called.endswith("." + suffix):
                return (
                    "{called}() reads the wall clock inside simulation code",
                    "take `now` from the Simulator clock (sim.now) or a "
                    "parameter; perf_counter() is fine for benchmarking",
                )
        parts = called.split(".")
        if len(parts) >= 3 and parts[-2] == "random" and parts[-3] in ("np", "numpy") \
                and parts[-1] in _NP_LEGACY:
            return (
                "{called}() uses numpy's legacy global RNG state",
                "draw from a seeded Generator "
                "(np.random.default_rng(seed) / SeedSequence.generator)",
            )
        if len(parts) == 2 and parts[0] == "random" and parts[1] in _STDLIB_RANDOM:
            return (
                "{called}() uses the stdlib global RNG",
                "draw from a seeded numpy Generator",
            )
        return None

    @staticmethod
    def _classify_unseeded(called: str, node: ast.Call,
                           nullable: FrozenSet[str]) -> Optional[Tuple[str, str]]:
        """Flag Generator construction that is not pinned to a seed.

        ``default_rng()`` with no arguments or ``None`` (and ``Generator``
        wrapping such a bit generator) seeds from OS entropy, so two runs of
        the same config draw different streams — exactly the
        non-reproducibility RL002 exists to keep out of the tree.  So does
        a seed that may be ``None`` (``nullable`` names the enclosing
        function's parameters that may be).
        """
        parts = called.split(".")
        is_random_api = len(parts) == 1 or parts[-2] == "random"
        if not is_random_api or parts[-1] not in ("default_rng", "Generator"):
            return None
        if _may_be_none(_seed_argument(node, called), nullable):
            return (
                "{called}() without a seed, or with one that may be None, draws from OS entropy",
                "pass a required int seed (no None default, not Optional, no None "
                "branch) or a repro.utils.rng SeedSequence stream",
            )
        return None


def _calls_with_nullable_params(
        node: ast.AST, nullable: FrozenSet[str]) -> Iterator[Tuple[ast.Call, FrozenSet[str]]]:
    """Every call under ``node`` with the names, visible where it sits,
    of function parameters that may be ``None``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        positional = args.posonlyargs + args.args
        params = [*zip(positional, [None] * (len(positional) - len(args.defaults)) + args.defaults),
                  *zip(args.kwonlyargs, args.kw_defaults)]
        nullable = (nullable - {arg.arg for arg, _ in params}) | {
            arg.arg for arg, default in params if _is_none(default) or _is_optional(arg.annotation)}
    elif isinstance(node, ast.Call):
        yield node, nullable
    for child in ast.iter_child_nodes(node):
        yield from _calls_with_nullable_params(child, nullable)


def _seed_argument(node: ast.Call, called: str) -> Optional[ast.expr]:
    """``x`` of ``default_rng(x)``, ``Generator(BitGen(x))`` or ``…(SeedSequence(x))``."""
    seed = node.args[0] if node.args else next(
        (kw.value for kw in node.keywords if kw.arg in ("seed", "entropy")), None)
    if isinstance(seed, ast.Call) and (
            called.endswith("Generator") or (dotted_name(seed.func) or "").endswith("SeedSequence")):
        return _seed_argument(seed, "")
    return seed


def _may_be_none(seed: Optional[ast.expr], nullable: FrozenSet[str]) -> bool:
    """No seed, a ``None`` literal, a nullable parameter or a ``None`` branch."""
    if isinstance(seed, ast.IfExp):
        return _is_none(seed.body) or _is_none(seed.orelse)
    return seed is None or _is_none(seed) or isinstance(seed, ast.Name) and seed.id in nullable


def _is_none(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _is_optional(annotation: Optional[ast.expr]) -> bool:
    """``Optional[...]`` or ``… | None``."""
    if isinstance(annotation, ast.Subscript):
        return (dotted_name(annotation.value) or "").rpartition(".")[2] == "Optional"
    return isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr) and any(
        _is_none(side) or _is_optional(side) for side in (annotation.left, annotation.right))
