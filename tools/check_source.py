#!/usr/bin/env python3
"""Source rules for ``src/repro`` (stdlib only; run in tier-1 and CI).

Rules a reviewer would otherwise have to re-check by eye on every PR,
enforced on the AST so a comment or a string cannot trip them.

Rule 1 -- no attribute-bag discovery.  Nothing calls ``vars()`` and
nothing reads ``__dict__`` of an object other than ``self``.  What an
application is made of is what it registered
(``Application.register_resource(name, rtype, *sims)`` and
``app.resources()``); a consumer that walks an application's attributes
instead sees whatever happens to be a top-level attribute that day --
five such walks, each with its own rule, once hid thirteen locks from
telemetry and four LOCK handles from the lock-reshape lever.  An object
copying its *own* ``self.__dict__`` (a ``to_dict`` / ``__getstate__``)
is not discovery and stays legal.

Rule 2 -- one module forks.  ``multiprocessing`` is imported by
``src/repro/workers.py`` and by nothing else: the campaign pool and the
shard pool once hand-rolled the same fork / pipe / EOF protocol with
different stop, terminate and error-transport rules.  Whatever needs a
worker process asks :class:`repro.workers.Workers`.

Rule 3 -- one module spells the HTML page shell.  A ``<!DOCTYPE html>``
string literal appears in ``src/repro/obs/export.py`` and nowhere else:
the telemetry report and the regress diff once each carried their own
document shell, stylesheet, sparkline geometry, panels and tables.  A
report builds its page from that module's kit (``page``, ``panel``,
``table``, ...).  Docstrings and comments may mention the doctype.

Exit status is the number of violations found.

Usage::

    python tools/check_source.py [FILE_OR_DIR ...]   # default: src/repro
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_TARGET = REPO_ROOT / "src" / "repro"

#: The one module that may import ``multiprocessing`` (rule 2).
WORKERS_MODULE = "src/repro/workers.py"

_REGISTRY = "read the application's resource registry (app.resources())"
_WORKERS = f"start worker processes through repro.workers ({WORKERS_MODULE})"

#: The one module that may spell the HTML document shell (rule 3).
PAGE_MODULE = "src/repro/obs/export.py"

_PAGE = f"build HTML pages with the page kit in {PAGE_MODULE}"


def check_source(text: str, where: str) -> List[str]:
    """Rule violations in one module's source, as ``where:line: why``."""
    found: List[Tuple[int, str]] = []
    tree = ast.parse(text, filename=where)
    # A bare string statement is a docstring (prose), not a literal in use.
    prose = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Expr)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "vars"
        ):
            found.append((node.lineno, f"vars() call -- {_REGISTRY}"))
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "__dict__"
            and not (
                isinstance(node.value, ast.Name) and node.value.id == "self"
            )
        ):
            found.append(
                (node.lineno, f"__dict__ of another object read -- {_REGISTRY}")
            )
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:  # a relative import names a module of ours
                modules = [] if node.level else [node.module]
            if where != WORKERS_MODULE and any(
                name.split(".")[0] == "multiprocessing" for name in modules
            ):
                found.append(
                    (node.lineno, f"multiprocessing imported -- {_WORKERS}")
                )
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "<!doctype html" in node.value.lower()
            and id(node) not in prose
            and where != PAGE_MODULE
        ):
            found.append((node.lineno, f"HTML page shell spelled -- {_PAGE}"))
    return [f"{where}:{lineno}: {what}" for lineno, what in sorted(found)]


def check(paths: List[Path]) -> List[str]:
    errors: List[str] = []
    for root in paths:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            try:
                where = str(path.relative_to(REPO_ROOT))
            except ValueError:
                where = str(path)
            errors.extend(
                check_source(path.read_text(encoding="utf-8"), where)
            )
    return errors


def main(argv: List[str]) -> int:
    targets = [Path(arg).resolve() for arg in argv] or [DEFAULT_TARGET]
    errors = check(targets)
    for error in errors:
        print(error, file=sys.stderr)
    print(f"checked source rules: {len(errors)} violation(s)")
    return min(len(errors), 125)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
