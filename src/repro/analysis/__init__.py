"""repro-lint: AST-based machine checking of the project's invariants.

The ROADMAP's durable invariants — the float32 dtype policy, seeded-RNG
determinism, the drop-accounting balance
(``notified == queue + transport - nack - sync + failover``),
generation-guarded event chains and the single GEMM path of
``repro.backend`` — were historically enforced by tests and by hand.
This package turns each of them into a lint rule that walks every
module's AST and reports structured findings, so a violation fails CI
the moment it is written instead of the night a sweep goes
non-deterministic.

Usage::

    python -m repro.analysis [--format text|json] [--rules RL001,RL003] [paths]

Rules ship in :mod:`repro.analysis.rules`:

========  ==================  ====================================================
rule id   name                protects
========  ==================  ====================================================
RL001     dtype-policy        float32 policy: array constructors need ``dtype=``
RL002     determinism         all randomness/time flows through seeded streams
RL003     drop-accounting     queue/arena/pending mutations stay in approved paths
RL004     generation-guard    scheduled shard callbacks check generation/health
RL005     backend-bypass      hot-path GEMMs go through ``repro.backend``
RL900     suppression-hygiene suppressions carry a reason and a known rule id
========  ==================  ====================================================

A finding is silenced inline with a *reasoned* suppression on the
flagged line (or the line directly above it)::

    self._queue.clear()  # repro-lint: ignore[RL003] -- simulator event heap, not a drop-accounted queue

Suppressions without a reason (or naming an unknown rule) do not
suppress and are themselves reported (RL900).
"""

from .findings import Finding, JSON_SCHEMA_VERSION, findings_to_json
from .engine import (
    FileReport,
    LintEngine,
    analyze_paths,
    analyze_source,
)
from .rules import DEFAULT_RULES, Rule, RuleContext, make_default_rules

__all__ = [
    "Finding",
    "FileReport",
    "JSON_SCHEMA_VERSION",
    "LintEngine",
    "Rule",
    "RuleContext",
    "DEFAULT_RULES",
    "make_default_rules",
    "analyze_paths",
    "analyze_source",
    "findings_to_json",
]
