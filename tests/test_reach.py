"""Reach audit: which functions of the package no command enters.

Every command runs in process under ``sys.setprofile`` (``validate``,
``sweep``, and ``build``/``energy``/``solve`` at q = 0 and 0.7 on both
examples, at --grid 200).  The functions of src/flatribbon never entered must
be exactly ``NEVER_ENTERED``: a new function that no command reaches, or one
on the list that a command starts to call, is an explicit edit of the list.
Lambdas and comprehensions are not counted.  The caches of module-level
functions are cleared first, so what earlier tests filled does not hide a call.
"""

import inspect
import os
import sys
from pathlib import Path

import pytest

import flatribbon
from flatribbon import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(flatribbon.__file__).resolve().parent

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects carry co_qualname from Python 3.11")

NEVER_ENTERED = {
    "angleivp.rhs_prescribed",  # kept as patch points of the benchmark's tracer
    "angleivp.rhs_same_angle",
    "energy.case_a_energy",  # perfbench oracle
    "frames.NormalField.normal",
    "frames.NormalField.scalars",
    "numerics.first_where",  # error paths
    "numerics.central_difference",
    "numerics.stencil_difference",
    "ribbon._extend_at_zero",
    "ribbon._extend_at_zero.<locals>.scaled",
}


def defined_functions():
    """{(file, first line, qualname): 'module.qualname'} of every def in the package, nested ones too."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if hasattr(c, "co_code")]
            # a function's code is optimized; a module or class body's is not
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                found[(str(path), code.co_firstlineno, code.co_qualname)] = f"{path.stem}.{code.co_qualname}"
    return found


def clear_caches():
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("flatribbon."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def test_every_function_but_the_listed_ones_is_entered_by_a_command(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # the samples config names its csv relative to the repo root
    runs = [["validate"], ["sweep", "--config", "examples/torus_knot.cfg", "--out", str(tmp_path / "sweep")]]
    for example in ("torus_knot", "samples_rmf"):
        for q in ("0", "0.7"):
            out = str(tmp_path / f"{example}_q{q}")
            for command in ("build", "energy", "solve"):
                runs.append([command, "--config", f"examples/{example}.cfg", "--grid", "200", "--q", q, "--out", out])
    entered = set()
    clear_caches()
    previous = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(frame.f_code))
    try:
        codes = [cli.main(argv) for argv in runs]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(runs)
    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_qualname) for c in entered}
    never = {name for key, name in defined_functions().items() if key not in reached}
    assert never == NEVER_ENTERED
