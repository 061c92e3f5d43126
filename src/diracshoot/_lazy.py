"""numpy, imported at the first attribute read: classify and portrait read
none.  Each module binds this module as np (from . import _lazy as np)."""


def __getattr__(name):  # PEP 562: called for a name not (yet) in this namespace
    import numpy

    globals()[name] = value = getattr(numpy, name)  # later reads find it there
    return value
