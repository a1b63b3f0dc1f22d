"""No dataclass of the package compares an array field the generated way.

The ``__eq__`` a dataclass generates compares its fields as one tuple, so
an array of more than one element makes it raise, and a generated
``__hash__`` hashes the array, which fails or disagrees with ``==``. So a
dataclass with an ``np.ndarray`` field sets ``eq=False`` or writes both
methods itself. A generated method's code comes from ``exec`` and so has
the file name ``<string>``.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import autolabel3d


def array_dataclasses():
    """Each dataclass of the package with a field typed ``np.ndarray``."""
    for info in pkgutil.iter_modules(autolabel3d.__path__):
        module = importlib.import_module(f"autolabel3d.{info.name}")
        for cls in vars(module).values():
            if (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and dataclasses.is_dataclass(cls)
                    and any("ndarray" in str(f.type)
                            for f in dataclasses.fields(cls))):
                yield cls


def hand_written(cls, name):
    method = cls.__dict__.get(name)
    return method is not None and method.__code__.co_filename != "<string>"


def test_array_dataclasses_compare_as_written():
    found = list(array_dataclasses())
    assert {"Heatmap", "LossValue"} <= {cls.__name__ for cls in found}
    for cls in found:
        assert (not cls.__dataclass_params__.eq
                or hand_written(cls, "__eq__")
                and hand_written(cls, "__hash__")), cls.__name__
