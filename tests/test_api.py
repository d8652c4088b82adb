"""The public API holds only what the package itself or the acceptance
criteria use: a name used by tests alone belongs in ``tests/oracles.py``."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import creatorsim

PACKAGE = Path(creatorsim.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"
# the package's own re-export of each name is no use of it
SOURCES = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"] + [ACCEPTANCE]


def used_names(paths, attributes_only=False) -> set[str]:
    """Every name the code in ``paths`` reads, imports or looks up as an
    attribute, or only the attribute look-ups; definitions, strings and
    comments are not uses."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif attributes_only:
                continue
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def package_classes() -> list[type]:
    """Each class defined in the package's modules."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"creatorsim.{path.stem}")
        out += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                if cls.__module__ == module.__name__]
    return out


def public_methods() -> list[tuple[str, str]]:
    """(class, method) for each public method of each class defined in the
    package's modules."""
    return [(cls.__name__, name) for cls in package_classes()
            for name in vars(cls)
            if not name.startswith("_") and callable(getattr(cls, name))]


USERS = used_names(SOURCES)
# a method is only ever reached as an attribute; a local variable of the
# same name is no use of it
ATTRIBUTE_USERS = used_names(SOURCES, attributes_only=True)
METHODS = public_methods()


@pytest.mark.parametrize("name", creatorsim.__all__)
def test_exported_name_has_a_user(name):
    assert name in USERS, f"creatorsim.{name} is used by no module nor criterion"


def test_methods_of_every_class_are_checked():
    classes = {cls for cls, _ in METHODS}
    assert {"OpponentPool", "MixedStrategy", "PiecewiseLinearCdf",
            "ModelInstance", "LinearTwitter", "KMR"} <= classes


@pytest.mark.parametrize("cls, name", METHODS)
def test_public_method_has_a_user(cls, name):
    assert name in ATTRIBUTE_USERS, \
        f"{cls}.{name} is used by no module nor criterion"


def test_no_class_compares_by_value():
    """No CLI path and no acceptance criterion compares two value objects,
    so no class defines ``__eq__``: a test that wants to compare two
    results compares their ``vars()``."""
    classes = package_classes()
    assert len(classes) > 10
    assert [cls.__name__ for cls in classes if "__eq__" in vars(cls)] == []
