#!/usr/bin/env python3
"""Refuse a Prometheus text export that repeats a series.

A series is a metric name plus its label set (label order does not
matter).  The exposition format allows each series once per file; a
file that repeats one -- say, two runs exported under the same ``run``
label -- is refused by a Prometheus parser, so it is refused here too.
Every sample line must also parse.

Usage::

    python tools/check_prom.py metrics.prom [more.prom ...]

Prints one line per problem and exits 1 when there is any, else 0.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Dict, List, Tuple

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE = re.compile(rf"^({_NAME})(?:\{{(.*)\}})?\s+(\S+)(?:\s+\S+)?$")
_LABEL = re.compile(r'\s*([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"\s*(,|$)')

Series = Tuple[str, Tuple[Tuple[str, str], ...]]


def _labels(text: str) -> Tuple[Tuple[str, str], ...]:
    """The sorted ``(name, value)`` pairs of a label block's inside."""
    pairs: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _LABEL.match(text, pos)
        if match is None:
            raise ValueError(f"bad label block {{{text}}}")
        pairs.append((match.group(1), match.group(2)))
        pos = match.end()
    if len({name for name, _ in pairs}) != len(pairs):
        raise ValueError(f"repeated label name in {{{text}}}")
    return tuple(sorted(pairs))


def problems(text: str) -> List[str]:
    """Every unparsable sample line and repeated series in ``text``."""
    seen: Dict[Series, int] = {}
    found: List[str] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        try:
            if match is None:
                raise ValueError("not a sample line")
            series = (match.group(1), _labels(match.group(2) or ""))
            float(match.group(3))
        except ValueError as exc:
            found.append(f"line {lineno}: {exc}: {line}")
            continue
        if series in seen:
            found.append(
                f"line {lineno}: series repeats line {seen[series]}: {line}"
            )
        else:
            seen[series] = lineno
    return found


def main(argv: List[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    failed = False
    for path in argv:
        for problem in problems(Path(path).read_text()):
            print(f"{path}: {problem}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
