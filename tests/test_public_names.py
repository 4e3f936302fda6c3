"""Each module declares its public names once, and the package re-exports them."""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

import qunimodal

MODULES = ("errors", "polynomials", "checks", "quadrature", "analytic", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_public_definition_is_in_all(name):
    module = importlib.import_module(f"qunimodal.{name}")
    defined = {
        attr for attr, value in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isclass(value) or inspect.isfunction(value))
        and value.__module__ == module.__name__
    }
    assert defined <= set(module.__all__)
    assert all(hasattr(module, attr) for attr in module.__all__)


def test_package_all_is_the_sum_of_the_modules():
    want = [n for name in MODULES[:-1] for n in importlib.import_module(f"qunimodal.{name}").__all__]
    assert sorted(qunimodal.__all__) == sorted(want + ["__version__"])
    assert len(set(qunimodal.__all__)) == len(qunimodal.__all__)
    assert all(hasattr(qunimodal, attr) for attr in qunimodal.__all__)
    assert qunimodal.GAUSS_ORDER == 8 and qunimodal.MuInfo(3, True).in_window


def test_no_module_defines_a_name_twice():
    # A second top-level def or class of one name silently replaces the first.
    for path in sorted(Path(qunimodal.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = Counter(
            node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        )
        assert [name for name, count in names.items() if count > 1] == [], path.name
