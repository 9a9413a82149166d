"""The benchmark's hold on the program: every name it traces or calls.

`perfbench` looks up phiplane functions by name and patches some of them
while tracing.  A rename that breaks it fails here, not only when the
benchmark runs.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the phiplane modules that perfbench/run.py's load_modules imports
MODULES = ("field", "geometry", "exchange", "fastorbit", "refine", "words",
           "scenarios", "birkhoff", "render", "cli")


def test_tracer_patches_and_restores_every_name(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    mods = {m: importlib.import_module(f"phiplane.{m}") for m in MODULES}
    tracer = tracing.Tracer()
    before = [dict(vars(m)) for m in mods.values()]
    tracer.install(mods)
    try:
        patched = [(owner, attr) for owner, attr, _ in tracer._undo]
        assert len(patched) == 20
        for owner, attr in patched:
            assert getattr(owner, attr).__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in mods.values()] == before
    for owner, attr in patched:
        assert not hasattr(owner.__dict__[attr], "__wrapped__"), attr


def test_perfbench_selftest_passes():
    if importlib.util.find_spec("sympy") is None:
        pytest.skip("perfbench's load_modules imports sympy.core.cache until"
                    " the next benchmark change drops that import")
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.rstrip().endswith("all checks behave")
