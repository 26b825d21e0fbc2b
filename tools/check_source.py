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

Rule 4 -- one place gives a task its identity.  Nothing calls the
builtin ``id()`` except a ``__repr__`` body, which may print an
address.  ``BaseController.create_cancel`` numbers every task once
(``CancellableTask.seq``) and controller tables key by that number;
structures that span controllers key by the task object.  Eight
modules once keyed their tables by ``id(task)``, each deriving its own
identity, and the estimator rebuilt creation order from a rank table.

Rule 5 -- randomness and the wall clock have owners.  ``random`` is
imported by ``src/repro/sim/rng.py`` (every simulation draws from a
seeded :class:`repro.sim.Rng`) and ``src/repro/regress/stats.py`` (its
bootstrap is seeded) and by nothing else; ``time`` by
``src/repro/__main__.py``, ``src/repro/reporting.py`` and
``src/repro/campaign/runner.py``, which use it for wall-clock progress
and run timing, and by nothing else.  A draw from an unseeded generator
or a read of the host clock anywhere in the model would make a run
depend on something its spec does not name, and two runs of one spec
would stop being byte-identical.

Rule 6 -- one place ends a request.  A ``RequestRecord(...)`` is built
in ``src/repro/workloads/driver.py`` and nowhere else: ``Driver._request``
is the only code that admits, registers, executes, unwinds and records
a request, and every source offers its load through
``Driver.run_arrivals``.  A connection-scoped source once ran a second
lifecycle that skipped admission, the in-flight count, the offered
counts per operation and the request spans, and numbered its records
from a process-global counter.

Rule 7 -- observers read what a controller declares.  No ``hasattr()``
and no three-argument ``getattr()`` in the packages that read a run
(``src/repro/{campaign,cluster,experiments,faults,regress,telemetry}``)
or in the CLI (``src/repro/__main__.py``).
:class:`repro.core.controller.BaseController` declares what they read
(``slo_latency``, ``decision_log``, ``cancellation``, ``detector``,
``estimator``, ``adaptation``), ``None`` where a controller has none;
a reader tests for ``None``, or for a baseline's own state uses
``isinstance``.  These readers once made 35 probes with their own
fallbacks; one read a ``slo`` attribute no controller has, and several
defaulted attributes that always exist.  A command reads the flags its
own parser declares and hands on only those: the CLI once probed its
parsed arguments 8 times for flags some commands never declare.

Rule 8 -- one module builds ATROPOS.  An ``Atropos(...)`` call appears
in ``src/repro/baselines/__init__.py`` and nowhere else:
:func:`repro.baselines.controller_factory` is the one code that turns a
system name into a controller, and whatever configures ATROPOS (a
case's overrides, a spec's overlay, the cancellation ``policy``, the
fleet's ``cancellation_enabled``) is an ``AtroposConfig`` field handed
to it.  Four more modules once built ATROPOS by hand, one of them under
a policy it looked up by class name, and the mesh kept its own table of
system names that ran an unknown name uncontrolled.

Rule 9 -- memory is released by teardown.  Nothing in ``src/repro``
imports ``gc``.  A finished run is freed by reference counting when its
result is dropped: ``run_simulation`` closes the run's environment then
(``Environment.close``), which finalizes the work in flight, and no
static reference cycle outlives a run.  Forcing a collection costs
milliseconds per run and tuning the collector hides the cycle that made
it necessary; both once looked like the fix for a finished run that
stayed alive, as cyclic garbage, until the next full collection.

Rule 10 -- one stack assembly.  A ``Driver(...)`` call appears in
``src/repro/experiments/harness.py`` and nowhere else:
:func:`repro.experiments.harness.assemble` builds every run's stack
(controller, application, ``bind``, collector, driver), for
``run_simulation`` and for each fleet or mesh node alike.  The epoch
runtime once hand-assembled a second copy of that stack, whose op
aliases closed over the application, and nothing closed its nodes: a
finished fleet or mesh run stayed alive as cyclic garbage until the
next full collection.

Rule 11 -- a decision audit is a record, rendered on read.  A
``CandidateEvidence(...)`` call appears in
``src/repro/core/decision_log.py`` and nowhere else: an audit keeps its
candidates as flat columns (``CandidateColumns``) and builds the ranked
evidence objects only when something reads them (``audit.candidates``,
``to_payload()``).  The levers once built one evidence object and one
rounded gains dict per live task on every potential-overload tick --
several megabytes per run that only a tracer, a scraper or a report
ever read.

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

_IDENTITY = "key a task by task.seq, or by the task object across controllers"

#: The one module that may build a ``RequestRecord`` (rule 6).
LIFECYCLE_MODULE = "src/repro/workloads/driver.py"

_LIFECYCLE = f"end requests in Driver._request ({LIFECYCLE_MODULE})"

#: The one module that may build ATROPOS (rule 8).
FACTORY_MODULE = "src/repro/baselines/__init__.py"

_FACTORY = f"build controllers with controller_factory ({FACTORY_MODULE})"

#: The one module that may build a ``Driver`` (rule 10).
ASSEMBLY_MODULE = "src/repro/experiments/harness.py"

_ASSEMBLY = f"build a run's stack with assemble ({ASSEMBLY_MODULE})"

#: The one module that may build a ``CandidateEvidence`` (rule 11).
AUDIT_MODULE = "src/repro/core/decision_log.py"

_AUDIT = (
    "keep audit candidates as columns; evidence is rendered on read "
    f"in {AUDIT_MODULE}"
)

#: The packages that read a run and may not probe for attributes (rule 7).
OBSERVER_PACKAGES = tuple(
    f"src/repro/{package}/"
    for package in (
        "campaign", "cluster", "experiments", "faults", "regress",
        "telemetry",
    )
)

_DECLARED = (
    "read what BaseController declares (None when absent), or use "
    "isinstance"
)

#: The CLI, which rule 7 covers as well: module -> why.
OBSERVER_MODULES = {
    "src/repro/__main__.py": "read the flags the command's parser declares",
}

#: stdlib module -> the only modules that may import it, and why
#: (rules 2, 5 and 9).
IMPORT_OWNERS = {
    "gc": (
        (),
        "free a run by closing its environment (Environment.close), "
        "never by forcing or tuning the collector",
    ),
    "multiprocessing": ((WORKERS_MODULE,), _WORKERS),
    "random": (
        ("src/repro/sim/rng.py", "src/repro/regress/stats.py"),
        "draw from a seeded repro.sim.Rng",
    ),
    "time": (
        (
            "src/repro/__main__.py",
            "src/repro/reporting.py",
            "src/repro/campaign/runner.py",
        ),
        "read simulated time (env.now); only the CLI and the campaign "
        "runner time the host",
    ),
}


def check_source(text: str, where: str) -> List[str]:
    """Rule violations in one module's source, as ``where:line: why``."""
    found: List[Tuple[int, str]] = []
    tree = ast.parse(text, filename=where)
    # A bare string statement is a docstring (prose), not a literal in use.
    prose = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Expr)}
    # Every node inside a ``__repr__`` body, where ``id()`` may print.
    in_repr = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == "__repr__"
        for inner in ast.walk(node)
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "vars"
        ):
            found.append((node.lineno, f"vars() call -- {_REGISTRY}"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and id(node) not in in_repr
        ):
            found.append((node.lineno, f"id() call -- {_IDENTITY}"))
        elif (
            isinstance(node, ast.Call)
            and "RequestRecord" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            )
            and where != LIFECYCLE_MODULE
        ):
            found.append(
                (node.lineno, f"RequestRecord built -- {_LIFECYCLE}")
            )
        elif (
            isinstance(node, ast.Call)
            and "Atropos" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            )
            and where != FACTORY_MODULE
        ):
            found.append((node.lineno, f"Atropos built -- {_FACTORY}"))
        elif (
            isinstance(node, ast.Call)
            and "Driver" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            )
            and where != ASSEMBLY_MODULE
        ):
            found.append((node.lineno, f"Driver built -- {_ASSEMBLY}"))
        elif (
            isinstance(node, ast.Call)
            and "CandidateEvidence" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            )
            and where != AUDIT_MODULE
        ):
            found.append((node.lineno, f"CandidateEvidence built -- {_AUDIT}"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and (
                node.func.id == "hasattr"
                or (node.func.id == "getattr" and len(node.args) == 3)
            )
            and (
                where.startswith(OBSERVER_PACKAGES)
                or where in OBSERVER_MODULES
            )
        ):
            why = OBSERVER_MODULES.get(where, _DECLARED)
            found.append((node.lineno, f"{node.func.id}() probe -- {why}"))
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
            for root in dict.fromkeys(name.split(".")[0] for name in modules):
                owned = IMPORT_OWNERS.get(root)
                if owned is not None and where not in owned[0]:
                    why = f"{root} imported -- {owned[1]}"
                    found.append((node.lineno, why))
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
