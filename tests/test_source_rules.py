"""Source rules: ``tools/check_source.py`` and the tree it guards."""

from .test_docs import load_checker

checker = load_checker("check_source")


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
