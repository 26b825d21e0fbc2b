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
