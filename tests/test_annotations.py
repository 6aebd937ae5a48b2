"""Static checks over the package's functions: every annotation resolves
at run time, and no private function is left in the package for tests only."""

import ast
import inspect
import pkgutil
import typing
from importlib import import_module
from pathlib import Path

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


def _used_names() -> set:
    """The ``Name`` ids and ``Attribute`` names in the package's and the
    benchmark's modules."""
    paths = list(Path(bpalgebra.__file__).parent.glob("*.py"))
    paths += list((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_private_function_has_a_caller_outside_the_tests():
    """A private function or method of the package that neither the package
    nor the benchmark names is a path only tests call: it belongs in
    tests/helpers.py.  Members that ``namedtuple`` generates have their code
    outside the package and are left out."""
    package = Path(bpalgebra.__file__).resolve().parent
    used = _used_names()
    private = {}
    for qualname, func in _functions():
        name = func.__name__
        dunder = name.startswith("__") and name.endswith("__")
        if name.startswith("_") and not dunder and Path(func.__code__.co_filename).resolve().parent == package:
            private[qualname] = name
    assert "bpalgebra.modes.ModeAlgebra._insert" in private
    unused = sorted(qualname for qualname, name in private.items() if name not in used)
    assert not unused, unused
