"""Every annotation in the package resolves at run time."""

import inspect
import pkgutil
import typing
from importlib import import_module

import bpalgebra


def _functions():
    """Every function and method defined in a bpalgebra module, by qualified name."""
    for info in pkgutil.iter_modules(bpalgebra.__path__):
        module = import_module(f"bpalgebra.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{obj.__qualname__}", obj
            elif inspect.isclass(obj):
                for member in vars(obj).values():
                    member = getattr(member, "__func__", member)  # staticmethod, classmethod
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{member.__qualname__}", member


def test_type_hints_resolve_for_every_function_and_method():
    functions = dict(_functions())
    assert "bpalgebra.arith.rank_mod_p" in functions and "bpalgebra.arith.Poly2.__init__" in functions
    failures = {}
    for name, func in functions.items():
        try:
            typing.get_type_hints(func)
        except Exception as exc:  # noqa: BLE001 -- every failure is reported
            failures[name] = repr(exc)
    assert not failures, failures
