"""Source rules: ``tools/check_source.py`` and the tree it guards, and
``tools/count_code.py``, the counter the simplicity PRs quote."""

from .test_docs import load_checker

checker = load_checker("check_source")
counter = load_checker("count_code")


def test_src_repro_never_walks_an_objects_attributes():
    assert checker.check([checker.DEFAULT_TARGET]) == []


def test_vars_call_and_foreign_dict_read_are_violations():
    source = (
        "def bind(self, app):\n"
        "    for value in vars(app).values():\n"
        "        pass\n"
        "    return app.__dict__\n"
    )
    errors = checker.check_source(source, "m.py")
    assert [e.split(": ")[0] for e in errors] == ["m.py:2", "m.py:4"]


def test_own_dict_comments_and_strings_are_not():
    source = (
        '"""vars(app) and app.__dict__ in prose are fine."""\n'
        "class Status:\n"
        "    def to_dict(self):\n"
        "        return dict(self.__dict__)  # not vars(app)\n"
    )
    assert checker.check_source(source, "m.py") == []


def test_only_the_workers_module_imports_multiprocessing():
    source = (
        "import os, multiprocessing\n"
        "def pool():\n"
        "    from multiprocessing.connection import wait\n"
        "    from .multiprocessing import not_the_stdlib_one\n"
        '    return "import multiprocessing"  # prose is fine\n'
    )
    errors = checker.check_source(source, "src/repro/campaign/runner.py")
    assert [e.split(": ")[0] for e in errors] == [
        "src/repro/campaign/runner.py:1", "src/repro/campaign/runner.py:3",
    ]
    assert checker.check_source(source, checker.WORKERS_MODULE) == []
    assert (checker.REPO_ROOT / checker.WORKERS_MODULE).is_file()


def test_only_the_page_kit_spells_the_html_shell():
    source = (
        '"""Renders a <!DOCTYPE html> page -- prose is fine."""\n'
        "def render(body):\n"
        '    head = "<!DOCTYPE html>\\n<html>"\n'
        '    return f"<!doctype html><body>{body}</body>"\n'
    )
    errors = checker.check_source(source, "src/repro/regress/report.py")
    assert [e.split(": ")[0] for e in errors] == [
        "src/repro/regress/report.py:3", "src/repro/regress/report.py:4",
    ]
    assert checker.check_source(source, checker.PAGE_MODULE) == []
    assert (checker.REPO_ROOT / checker.PAGE_MODULE).is_file()


def test_only_a_repr_body_calls_id():
    source = (
        '"""Keying a table by id(task) in prose is fine."""\n'
        "class Tree:\n"
        "    def add(self, task):\n"
        "        self.children[id(task)] = task\n"
        "    def __repr__(self):\n"
        '        return f"<Tree at {id(self):#x}>"\n'
        "def key(task):\n"
        "    return task.seq, id\n"
        "ranks = {id(t): i for i, t in enumerate([])}\n"
    )
    errors = checker.check_source(source, "src/repro/cluster/node.py")
    assert [e.split(": ")[0] for e in errors] == [
        "src/repro/cluster/node.py:4", "src/repro/cluster/node.py:9",
    ]
    assert "task.seq" in errors[0]


def test_random_and_time_imports_outside_their_owners_are_violations():
    source = (
        '"""import random / import time in prose are fine."""\n'
        "import random\n"
        "from time import perf_counter\n"
        "import os.path, time as clock, time\n"
        "from .random import not_the_stdlib_one\n"
        "import datetime, randomize\n"
        "def jitter():\n"
        "    from random import Random\n"
    )
    errors = checker.check_source(source, "src/repro/core/estimator.py")
    assert [e.split(" -- ")[0] for e in errors] == [
        "src/repro/core/estimator.py:2: random imported",
        "src/repro/core/estimator.py:3: time imported",
        "src/repro/core/estimator.py:4: time imported",
        "src/repro/core/estimator.py:8: random imported",
    ]


def test_only_the_seeded_and_timing_modules_import_random_and_time():
    rng = "import random\nfrom random import Random\n"
    clock = "import time\nfrom time import perf_counter\n"
    for owner in ("src/repro/sim/rng.py", "src/repro/regress/stats.py"):
        assert (checker.REPO_ROOT / owner).is_file()
        assert checker.check_source(rng, owner) == []
        assert len(checker.check_source(clock, owner)) == 2
    for owner in (
        "src/repro/__main__.py",
        "src/repro/reporting.py",
        "src/repro/campaign/runner.py",
    ):
        assert (checker.REPO_ROOT / owner).is_file()
        assert checker.check_source(clock, owner) == []
        assert len(checker.check_source(rng, owner)) == 2


def test_a_gc_import_anywhere_is_a_violation():
    source = (
        '"""import gc in prose is fine."""\n'
        "import gc\n"
        "from gc import collect\n"
        "import os, gc as collector\n"
        "from .gc import not_the_stdlib_one\n"
        "def release():\n"
        "    import gc\n"
        "    gc.collect()\n"
    )
    for where in (
        "src/repro/experiments/harness.py",
        "src/repro/sim/environment.py",
        "src/repro/workers.py",
    ):
        errors = checker.check_source(source, where)
        assert [e.split(" -- ")[0] for e in errors] == [
            f"{where}:2: gc imported",
            f"{where}:3: gc imported",
            f"{where}:4: gc imported",
            f"{where}:7: gc imported",
        ]
        assert "Environment.close" in errors[0]


def test_only_the_driver_builds_a_request_record():
    source = (
        '"""Builds a RequestRecord(...) -- prose is fine."""\n'
        "from ..sim import metrics\n"
        "from ..sim.metrics import RequestRecord\n"
        "def end(op, now):\n"
        "    kind = RequestRecord  # a reference, not a construction\n"
        "    first = RequestRecord(request_id=1, op_name=op)\n"
        "    return first, metrics.RequestRecord(request_id=2, op_name=op)\n"
    )
    errors = checker.check_source(source, "src/repro/workloads/sessions.py")
    assert [e.split(": ")[0] for e in errors] == [
        "src/repro/workloads/sessions.py:6",
        "src/repro/workloads/sessions.py:7",
    ]
    assert "Driver._request" in errors[0]
    assert checker.check_source(source, checker.LIFECYCLE_MODULE) == []


def test_src_repro_ends_every_request_in_the_driver():
    lifecycle = checker.REPO_ROOT / checker.LIFECYCLE_MODULE
    assert "RequestRecord(" in lifecycle.read_text(encoding="utf-8")
    errors = checker.check([checker.DEFAULT_TARGET])
    assert [e for e in errors if "RequestRecord built" in e] == []


def test_a_probe_in_an_observer_package_is_a_violation():
    source = (
        '"""hasattr(controller, "x") in prose is fine."""\n'
        "def read(controller, faults):\n"
        "    if hasattr(controller, 'detector'):\n"
        "        pass\n"
        "    slo = getattr(controller, 'slo_latency', None)\n"
        "    return slo, getattr(faults, 'events')\n"
    )
    for package in checker.OBSERVER_PACKAGES:
        where = f"{package}reader.py"
        errors = checker.check_source(source, where)
        assert [e.split(": ")[0] for e in errors] == [
            f"{where}:3", f"{where}:5",
        ]
        assert "BaseController declares" in errors[0]
    # The CLI reads the flags its parsers declare.
    for where in checker.OBSERVER_MODULES:
        assert (checker.REPO_ROOT / where).is_file()
        errors = checker.check_source(source, where)
        assert [e.split(": ")[0] for e in errors] == [
            f"{where}:3", f"{where}:5",
        ]
        assert "parser declares" in errors[0]
    # Outside the observers (the kernel, a controller) it is no rule's
    # business.
    assert checker.check_source(source, "src/repro/core/atropos.py") == []


def test_src_repro_observers_read_what_a_controller_declares():
    errors = checker.check([checker.DEFAULT_TARGET])
    assert [e for e in errors if "probe" in e] == []


def test_only_the_controller_factory_builds_atropos():
    source = (
        '"""Builds Atropos(env, config) -- prose is fine."""\n'
        "from ..core import atropos\n"
        "from ..core.atropos import Atropos\n"
        "def make(env, config):\n"
        "    kind = Atropos  # a reference, not a construction\n"
        "    first = Atropos(env, config)\n"
        "    return first, atropos.Atropos(env)\n"
    )
    errors = checker.check_source(source, "src/repro/cluster/mesh.py")
    assert [e.split(": ")[0] for e in errors] == [
        "src/repro/cluster/mesh.py:6", "src/repro/cluster/mesh.py:7",
    ]
    assert "controller_factory" in errors[0]
    assert checker.check_source(source, checker.FACTORY_MODULE) == []
    assert (checker.REPO_ROOT / checker.FACTORY_MODULE).is_file()


def test_src_repro_builds_atropos_in_one_module():
    errors = checker.check([checker.DEFAULT_TARGET])
    assert [e for e in errors if "Atropos built" in e] == []


def test_only_the_harness_builds_a_driver():
    source = (
        '"""Builds Driver(env, app, controller) -- prose is fine."""\n'
        "from ..workloads import driver\n"
        "from ..workloads.driver import Driver\n"
        "def build(env, app, controller):\n"
        "    kind = Driver  # a reference, not a construction\n"
        "    first = Driver(env, app, controller)\n"
        "    return first, driver.Driver(env, app, controller)\n"
    )
    errors = checker.check_source(source, "src/repro/cluster/epoch.py")
    assert [e.split(": ")[0] for e in errors] == [
        "src/repro/cluster/epoch.py:6", "src/repro/cluster/epoch.py:7",
    ]
    assert "assemble" in errors[0]
    assert checker.check_source(source, checker.ASSEMBLY_MODULE) == []
    assert (checker.REPO_ROOT / checker.ASSEMBLY_MODULE).is_file()


def test_src_repro_assembles_every_stack_in_one_place():
    assembly = checker.REPO_ROOT / checker.ASSEMBLY_MODULE
    assert "Driver(" in assembly.read_text(encoding="utf-8")
    errors = checker.check([checker.DEFAULT_TARGET])
    assert [e for e in errors if "Driver built" in e] == []


def test_count_code_skips_docstrings_comments_and_blanks():
    source = (
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment line\n"
        "import os  # code with a trailing comment: 1\n"
        "\n"
        "def f(a,\n"
        "      b):  # a two-line signature: 2\n"
        '    """One-line docstring."""\n'
        "    text = \"\"\"a string that is not a docstring,\n"
        '    on two lines: 2"""\n'
        "    return (\n"
        "        a + b  # a three-line statement: 3\n"
        "    )\n"
        "\n"
        "class C:\n"
        '    """Docstring."""\n'
        "    x = 1  # class line + this: 2\n"
    )
    assert counter.count_code_lines(source) == 10


def test_count_code_totals_a_tree(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "pkg" / "b.py").write_text('"""Doc."""\n\nz = 3\n')
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert counter.count_paths([tmp_path]) == 3
    assert counter.count_paths([tmp_path / "pkg" / "a.py"]) == 2
