"""The standing gate: the tree itself must be repro-lint clean.

This is the pytest twin of the CI ``analysis`` job — any commit that
introduces an unsuppressed invariant violation under ``src/repro`` fails
here first, with the same file:line report the CLI prints.
"""

from __future__ import annotations

import os

import repro
from repro.analysis import analyze_paths

SRC_ROOT = os.path.dirname(os.path.abspath(repro.__file__))


def test_src_tree_has_no_unsuppressed_findings():
    findings = analyze_paths([SRC_ROOT])
    offenders = [f.render() for f in findings if not f.suppressed]
    assert offenders == [], (
        "repro-lint found invariant violations:\n" + "\n".join(offenders)
    )


def test_every_suppression_carries_a_reason():
    findings = analyze_paths([SRC_ROOT])
    suppressed = [f for f in findings if f.suppressed]
    # The suppression machinery refuses reasonless suppressions, so this
    # is a belt-and-braces audit of the report itself.
    for finding in suppressed:
        assert finding.suppress_reason, finding.render()


def test_known_suppression_inventory():
    """Adding a suppression is a reviewed decision: update this list.

    The inventory pins (path, rule) pairs, not line numbers, so routine
    edits do not churn it — but a brand-new suppression anywhere in the
    tree shows up as a diff here and in review.
    """
    findings = analyze_paths([SRC_ROOT])
    inventory = sorted(
        (os.path.relpath(f.path, SRC_ROOT).replace(os.sep, "/"), f.rule_id)
        for f in findings if f.suppressed
    )
    assert inventory == [
        ("simnet/events.py", "RL003"),
    ]
