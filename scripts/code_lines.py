#!/usr/bin/env python3
"""Count lines carrying code outside docstrings and comments.

    python3 scripts/code_lines.py src/repro/core/engine.py src

A line counts when a token other than a comment or layout token touches
it (``tokenize``) and it is not part of a module/class/function docstring
(``ast``).  A directory is summed over its ``*.py`` files.  This is the
count simplicity PRs report in CHANGES.md.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path


_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    source = Path(path).read_text()
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            doc.update(range(first.lineno, first.end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in skip:
            continue
        for line in range(tok.start[0], tok.end[0] + 1):
            if line not in doc:
                lines.add(line)
    return len(lines)


if __name__ == "__main__":
    for arg in sys.argv[1:]:
        target = Path(arg)
        files = sorted(target.rglob("*.py")) if target.is_dir() else [target]
        print(f"{arg}: {sum(code_lines(f) for f in files)}")
