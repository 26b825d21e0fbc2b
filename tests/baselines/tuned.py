"""Test-local controller variants.

A baseline's constructor takes only what a caller varies (its SLO or
target); every other knob is a class constant.  A test that needs a
different knob value builds a subclass that overrides the constant.
"""


def tuned(cls, **constants):
    """A subclass of ``cls`` with the named class constants replaced.

    Only constants ``cls`` already declares may be overridden, so a
    misspelt or retired knob fails here instead of being ignored.
    """
    unknown = sorted(name for name in constants if not hasattr(cls, name))
    if unknown:
        raise AttributeError(f"{cls.__name__} has no constant {unknown}")
    return type(cls.__name__, (cls,), constants)
