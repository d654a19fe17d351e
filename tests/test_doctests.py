"""Every docstring example in the package runs and gives its printed result,
and the README's "Library use" block runs."""

import contextlib
import doctest
import importlib
import io
import pkgutil
import re
from pathlib import Path

import sketchshape

README = Path(__file__).resolve().parent.parent / "README.md"


def test_docstring_examples_pass():
    failed, attempted = {}, 0
    for info in pkgutil.iter_modules(sketchshape.__path__):
        result = doctest.testmod(importlib.import_module(f"sketchshape.{info.name}"))
        attempted += result.attempted
        if result.failed:
            failed[info.name] = result.failed
    assert failed == {}
    assert attempted > 0


def test_readme_library_block_runs():
    """The block trains the README pipeline's two stages in-process and
    prints its mAP, 0.895825279678196 on the platform the README names;
    other platforms move only the last digits."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    [block] = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], flags=re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert abs(float(out.getvalue()) - 0.895825279678196) < 1e-6
