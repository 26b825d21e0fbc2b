#!/usr/bin/env python3
"""Count code lines: the number the simplicity PRs quote (stdlib only).

A *code line* is a physical line carrying at least one token of code.
Blank lines and comment-only lines carry none; docstring lines (the
leading string statement of a module, class or function, found on the
AST) are not counted either.  A statement spread over four physical
lines is four code lines; a line of code with a trailing comment is one.

Usage::

    python tools/count_code.py [FILE_OR_DIR ...]   # default: src/repro
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import List, Set

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_TARGET = REPO_ROOT / "src" / "repro"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCSTRING_OWNERS = (
    ast.Module,
    ast.ClassDef,
    ast.FunctionDef,
    ast.AsyncFunctionDef,
)


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _DOCSTRING_OWNERS) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(text: str) -> int:
    """Code lines in one module's source text."""
    code: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(text)))


def count_paths(targets: List[Path]) -> int:
    """Code lines in every ``*.py`` file under (or named by) ``targets``."""
    total = 0
    for target in targets:
        files = target.rglob("*.py") if target.is_dir() else [target]
        for path in files:
            total += count_code_lines(path.read_text(encoding="utf-8"))
    return total


def main(argv: List[str]) -> int:
    print(count_paths([Path(arg) for arg in argv] or [DEFAULT_TARGET]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
