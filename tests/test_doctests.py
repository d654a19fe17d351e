"""Every docstring example in the package runs and gives its printed result."""

import doctest
import importlib
import pkgutil

import sketchshape


def test_docstring_examples_pass():
    failed, attempted = {}, 0
    for info in pkgutil.iter_modules(sketchshape.__path__):
        result = doctest.testmod(importlib.import_module(f"sketchshape.{info.name}"))
        attempted += result.attempted
        if result.failed:
            failed[info.name] = result.failed
    assert failed == {}
    assert attempted > 0
