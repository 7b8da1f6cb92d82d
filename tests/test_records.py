"""The package's record classes are plain dataclasses with their own docstrings.

Every ``import paretomm`` builds these classes.  On CPython 3.11 a
``frozen=True`` class execs two more generated methods: a four-field
``eq=False`` class took 365 us to create, against 149 us without
``frozen`` (2 vCPU, best of 5), and every frozen construction goes through
``object.__setattr__`` (0.59 us against 0.22 us for three fields).  A class
without a docstring makes ``dataclass`` call ``inspect.signature`` to write
one, another 40 us.  Together they were about 80 % of the package's own
import time with bytecode cached.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import paretomm


def _records():
    for info in pkgutil.iter_modules(paretomm.__path__):
        module = importlib.import_module(f"paretomm.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                yield cls


def test_records_are_plain_dataclasses_with_their_own_docstring():
    records = list(_records())
    assert {"SolverConfig", "SimplexPoint", "ObjectiveSet"} <= {cls.__name__ for cls in records}
    frozen = [cls.__name__ for cls in records if cls.__dataclass_params__.frozen]
    assert frozen == []
    # dataclass writes "Name(field: type, ...)" into a class that has no docstring
    undocumented = [cls.__name__ for cls in records if cls.__doc__.startswith(f"{cls.__name__}(")]
    assert undocumented == []
