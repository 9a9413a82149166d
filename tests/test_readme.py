"""The README stays in step with the public API."""

import contextlib
import io
import os
import re
from types import ModuleType

import phiplane

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def test_readme_python_example_runs():
    with open(README) as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert blocks
    for block in blocks:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(block, README, "exec"), {})


def test_public_names_import():
    namespace: dict = {}
    exec("from phiplane import *", namespace)
    assert set(phiplane.__all__) <= namespace.keys()
    # a stale name can resolve to a submodule, e.g. `refine`
    assert not [n for n in phiplane.__all__
                if isinstance(namespace[n], ModuleType)]
