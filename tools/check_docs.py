#!/usr/bin/env python3
"""Markdown cross-reference checker (stdlib only; used by the CI docs job).

Scans the repo's documentation for links -- inline ``[text](target)``,
reference-style ``[text][ref]`` / ``[ref][]`` with their ``[ref]:
target`` definitions -- and verifies

* relative file targets exist (``docs/RESILIENCE.md``, ``src/...``),
* intra-document and cross-document anchors (``#fault-model``) resolve
  to a real heading, using GitHub's slugification rules; anchors may
  come from ATX (``## Heading``) or setext (underlined) headings, or
  from explicit HTML ``<a id=...>`` / ``<a name=...>`` tags,
* every reference-style usage has a matching definition,
* no document outside the change log still mentions a *retired name*
  (:data:`RETIRED_NAMES`: commands, files and functions that no longer
  exist), code fences included -- a stale command is the worst kind,
* every ``python -m repro ...`` line inside a code fence (and in the
  usage block of the ``repro.__main__`` docstring) parses with the CLI's
  own ``build_parser()``, names an experiment the registry knows, and
  gives only runner flags that experiment's runner takes.

External (``http(s)://``, ``mailto:``) links are skipped -- CI must not
depend on the network.  Exit status is the number of problems found.

Usage::

    python tools/check_docs.py [FILE_OR_DIR ...]   # default: repo docs
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import shlex
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Checked by default: the user-facing documentation set.
DEFAULT_TARGETS = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "CHANGES.md",
    "docs",
]

#: Checked-in data anchors: each must exist at the repo root AND be
#: referenced somewhere in the default documentation set (an anchor
#: nobody documents is an anchor nobody regenerates correctly).
REQUIRED_ANCHORS = [
    "REGRESS_BASELINE.json",
    "BENCHMARK.json",
]

#: Things that no longer exist.  A document that still mentions one
#: describes a system the reader cannot run.
RETIRED_NAMES = [
    "schedule_batch",
    "Workload.processes",
    "repro bench",
    "BENCH_6.json",
    "BENCH_7.json",
    "Environment._now",
    "env._now",
    "_find_degradable",
    "_locks_for",
    "SedaRateAction",
    "BreakwaterCreditAction",
    "PartiesAllocationAction",
    "DagorLevelAdaptation",
    "DagorFeedbackAction",
    "AutothrottleResizeAction",
    "WorkerReservationAction",
    "BlockingDelaySource",
    "VictimDropAction",
    "UsageWindowSource",
    "PenaltyAction",
    "CancellationAction",
    "RunSpec.adaptive",
    "RunSpec.lever",
    "apply_perturbation",
    "_pool_worker",
    "_shard_worker",
    "_charge_tracing",
    "tracing_cost",
    "event_cost",
    "HoldTracker",
    "ControlPipeline.observe_completion",
    "adaptation_rules",
    "series_rules",
    "NullTelemetrySession",
    "NULL_TELEMETRY",
    "tracer.audit(",
    "get_active_tracer",
    "set_active_tracer",
    "get_active_telemetry",
    "set_active_telemetry",
    "goodput_floor",
    "repro sweep",
    "repro report",
    "repro ablate",
    "faults matrix",
    "--mode compare",
    "--controller compare",
    "UsageStats",
    "DecisionKind.HEALTH",
    "audits_dropped",
    "ConnectionSource",
    "ClosedLoopSource",
    "submit_and_wait",
    "workloads/sessions.py",
    "slo_of",
    "register_node",
    "registered_sims",
    "TaskTree",
    "repro.core.distributed",
    "core/distributed.py",
    "root_key",
    "dist_node",
    "distributed_cancellation.py",
    "atropos_factory",
    "POLICY_CLASSES",
    "DAG_CONTRAST",
    "_tracing_only_atropos",
    "open_wait_count",
    "completions_by_op",
    "statuses_by_epoch",
    "threshold_for",
    "contention_threshold_overrides",
    "directives_deferred",
    "reserved_pools",
    "dagor_user_levels",
    "DagSpec.tower_period",
    "spec.tower_period",
    "FleetSpec.min_culprit_nodes",
    "FleetSpec.evidence_window",
    "FleetSpec.min_culprit_score",
    "FleetSpec.quarantine_offenses",
    "spec.min_culprit_nodes",
    "spec.evidence_window",
    "spec.min_culprit_score",
    "spec.quarantine_offenses",
    "LIGHT_CLASSES",
    "_make_controller",
    "Breakwater.inflight",
]

#: Where retired names are looked for: the default set minus CHANGES.md,
#: the history of record, which names what each PR removed.
RETIRED_TARGETS = [t for t in DEFAULT_TARGETS if t != "CHANGES.md"]

#: The module whose docstring is the CLI's usage block.
CLI_MODULE = REPO_ROOT / "src" / "repro" / "__main__.py"

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
#: Setext underline: a line of = or - under a paragraph line.
SETEXT_RE = re.compile(r"^ {0,3}(=+|-+)\s*$")
#: Reference-style definition: [label]: target
REF_DEF_RE = re.compile(r"^ {0,3}\[([^\]]+)\]:\s*(\S+)")
#: Reference-style usage: [text][label] or collapsed [label][]
REF_USE_RE = re.compile(r"(?<!\!)\[([^\]]*)\]\[([^\]]*)\]")
#: Explicit HTML anchor targets.
HTML_ANCHOR_RE = re.compile(r"<a\s+(?:id|name)=[\"']([^\"']+)[\"']")
CODE_FENCE_RE = re.compile(r"^(```|~~~)")
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")


def _rel(path: Path) -> str:
    """Repo-relative display path; absolute when outside the repo."""
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def slugify(heading: str) -> str:
    """GitHub-style anchor slug for a markdown heading."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def collect_markdown(paths: List[str]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = (REPO_ROOT / raw).resolve() if not Path(raw).is_absolute() \
            else Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.md")))
        elif path.exists():
            files.append(path)
        else:
            print(f"warning: no such doc target {raw!r}", file=sys.stderr)
    return files


def parse(path: Path) -> Tuple[Set[str], List[Tuple[int, str]], List[str]]:
    """Parse one file's anchors and link targets.

    Returns ``(anchors, [(line_number, link_target)], problems)`` where
    *problems* are self-contained errors (reference-style usages with no
    matching definition).
    """
    anchors: Set[str] = set()
    seen: Dict[str, int] = {}
    links: List[Tuple[int, str]] = []
    problems: List[str] = []

    # Strip fenced code up front; reference definitions may appear
    # anywhere in the document, so usages need a full-file def map.
    visible: List[Tuple[int, str]] = []
    in_fence = False
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if CODE_FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if not in_fence:
            visible.append((lineno, line))

    ref_defs: Dict[str, str] = {}
    for lineno, line in visible:
        match = REF_DEF_RE.match(line)
        if match:
            ref_defs[match.group(1).lower()] = match.group(2)
            links.append((lineno, match.group(2)))

    def add_heading(text: str) -> None:
        slug = slugify(text)
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        anchors.add(slug if count == 0 else f"{slug}-{count}")

    prev_line = ""
    for lineno, line in visible:
        match = HEADING_RE.match(line)
        if match:
            add_heading(match.group(2))
        elif (
            SETEXT_RE.match(line)
            and prev_line.strip()
            and not HEADING_RE.match(prev_line)
            and not REF_DEF_RE.match(prev_line)
            and not prev_line.lstrip().startswith(("-", "*", ">", "|"))
        ):
            add_heading(prev_line)
        for tag in HTML_ANCHOR_RE.finditer(line):
            anchors.add(tag.group(1).lower())
        for link in LINK_RE.finditer(line):
            links.append((lineno, link.group(1)))
        if REF_DEF_RE.match(line):
            prev_line = line
            continue  # the definition line itself is not a usage
        for use in REF_USE_RE.finditer(line):
            label = (use.group(2) or use.group(1)).lower()
            # A defined label's target is already checked (once) at its
            # definition line; a usage only needs the label to exist.
            if label not in ref_defs:
                problems.append(
                    f"{_rel(path)}:{lineno}: undefined link reference "
                    f"[{label}]"
                )
        prev_line = line
    return anchors, links, problems


def check(paths: List[str]) -> List[str]:
    files = collect_markdown(paths)
    anchor_index: Dict[Path, Set[str]] = {}
    link_index: Dict[Path, List[Tuple[int, str]]] = {}
    errors: List[str] = []
    for path in files:
        anchor_index[path], link_index[path], problems = parse(path)
        errors.extend(problems)
    for path, links in link_index.items():
        for lineno, target in links:
            if target.startswith(EXTERNAL_PREFIXES):
                continue
            where = f"{_rel(path)}:{lineno}"
            file_part, _, anchor = target.partition("#")
            if not file_part:  # intra-document anchor
                resolved = path
            else:
                resolved = (path.parent / file_part).resolve()
                if not resolved.exists():
                    errors.append(f"{where}: broken link -> {target}")
                    continue
            if anchor:
                if resolved.suffix.lower() != ".md":
                    continue
                if resolved not in anchor_index and resolved.exists():
                    anchor_index[resolved], _, _ = parse(resolved)
                if anchor.lower() not in anchor_index.get(resolved, set()):
                    errors.append(
                        f"{where}: broken anchor -> {target} "
                        f"(no heading #{anchor} in {_rel(resolved)})"
                    )
    return errors


def check_anchors(
    files: List[Path], anchors: List[str] = None
) -> List[str]:
    """Verify the required data anchors exist and are documented."""
    errors: List[str] = []
    texts = [path.read_text(encoding="utf-8") for path in files]
    for anchor in REQUIRED_ANCHORS if anchors is None else anchors:
        if not (REPO_ROOT / anchor).exists():
            errors.append(
                f"required anchor {anchor} is missing from the repo root"
            )
        if not any(anchor in text for text in texts):
            errors.append(
                f"required anchor {anchor} is not referenced by any "
                "checked document"
            )
    return errors


def check_retired(files: List[Path]) -> List[str]:
    """Every mention of a retired name, one error per (line, name)."""
    return [
        f"{_rel(path)}:{lineno}: retired name {name!r} still mentioned"
        for path in files
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        for name in RETIRED_NAMES
        if name in line
    ]


CLI_PREFIX = "python -m repro"


def cli_lines(path: Path) -> List[Tuple[int, str]]:
    """``(line number, command)`` per ``python -m repro ...`` line.

    Markdown: lines inside code fences, backslash continuations joined.
    Python: the module docstring (the usage block of ``__main__``).
    """
    text = path.read_text(encoding="utf-8")
    in_fence = path.suffix == ".py"  # a docstring is one literal block
    if in_fence:
        text = ast.get_docstring(ast.parse(text)) or ""
    found: List[Tuple[int, str]] = []
    pending = None  # (line number, text so far) of a continued command
    for lineno, line in enumerate(text.splitlines(), start=1):
        if CODE_FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if pending is not None:
            lineno, line = pending[0], pending[1] + " " + line.strip()
            pending = None
        elif not in_fence or CLI_PREFIX not in line:
            continue
        if line.endswith("\\"):
            pending = (lineno, line[:-1])
        else:
            found.append((lineno, line[line.index(CLI_PREFIX):]))
    return found


def cli_argv(command: str) -> List[str]:
    """The argv a documented command stands for.

    Comments go; usage-synopsis notation is read as its first concrete
    instance: ``[--flag X]`` is given, ``a|b|c`` is ``a``, a one-letter
    placeholder (``N``, ``S``) is ``1``.
    """
    tokens = shlex.split(
        command.replace("[", " ").replace("]", " "), comments=True
    )[len(CLI_PREFIX.split()):]
    return [
        "1" if re.fullmatch("[A-Z]", token) else token.split("|")[0]
        for token in tokens
    ]


def check_cli(files: List[Path]) -> List[str]:
    """Every documented ``python -m repro`` line must parse with the
    real parser, a positional experiment must resolve, and its runner
    must take every runner flag the line gives."""
    if str(REPO_ROOT / "src") not in sys.path:
        sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.__main__ import build_parser, runner_kwargs
    from repro.experiments import resolve_experiment_id

    parser = build_parser()
    errors: List[str] = []
    for path in files:
        for lineno, command in cli_lines(path):
            where = f"{_rel(path)}:{lineno}"
            complaint = io.StringIO()
            try:
                with contextlib.redirect_stderr(complaint):
                    args = parser.parse_args(cli_argv(command))
            except SystemExit:
                reason = complaint.getvalue().strip().splitlines()[-1:]
                errors.append(
                    f"{where}: `{command}` does not parse: "
                    + "".join(reason)
                )
                continue
            name = getattr(args, "experiment", None)
            if name is None:
                continue
            exp_id = resolve_experiment_id(name)
            if exp_id is None:
                errors.append(f"{where}: unknown experiment {name!r}")
                continue
            try:
                runner_kwargs(args, exp_id)
            except ValueError as exc:
                errors.append(f"{where}: {exc}")
    return errors


def main(argv: List[str]) -> int:
    targets = argv or DEFAULT_TARGETS
    errors = check(targets)
    if not argv:
        # Anchor integrity, retired names and documented commands are
        # repo-level properties; skip them when the caller asked to lint
        # specific files.
        errors += check_anchors(collect_markdown(targets))
        errors += check_retired(collect_markdown(RETIRED_TARGETS))
        errors += check_cli(collect_markdown(RETIRED_TARGETS) + [CLI_MODULE])
    for error in errors:
        print(error, file=sys.stderr)
    checked = len(collect_markdown(targets))
    print(f"checked {checked} markdown file(s): "
          f"{len(errors)} problem(s)")
    return min(len(errors), 125)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
