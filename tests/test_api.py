"""The public API holds only what the package itself or the acceptance
criteria use: a name used by tests alone belongs in ``tests/oracles.py``."""

import ast
from pathlib import Path

import pytest

import creatorsim
from creatorsim.equilibrium import MixedStrategy
from creatorsim.game import OpponentPool

PACKAGE = Path(creatorsim.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def used_names(paths) -> set[str]:
    """Every name the code in ``paths`` reads, imports or looks up as an
    attribute; definitions, strings and comments are not uses."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


# the package's own re-export of each name is no use of it
USERS = used_names([p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
                   + [ACCEPTANCE])
METHODS = [(cls.__name__, name) for cls in (OpponentPool, MixedStrategy)
           for name, value in vars(cls).items()
           if not name.startswith("_") and callable(getattr(cls, name))]


@pytest.mark.parametrize("name", creatorsim.__all__)
def test_exported_name_has_a_user(name):
    assert name in USERS, f"creatorsim.{name} is used by no module nor criterion"


@pytest.mark.parametrize("cls, name", METHODS)
def test_public_method_has_a_user(cls, name):
    assert name in USERS, f"{cls}.{name} is used by no module nor criterion"
