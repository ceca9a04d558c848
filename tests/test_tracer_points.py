"""Every function and method that the benchmark tracer patches still exists.

``perfbench/tracer.py`` replaces package functions and methods by name; a
rename in the package would leave its spans empty.  The tracer module is
loaded by path and only read.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("name, module, attr", tracer.FUNCTIONS, ids=[f"{m}.{a}" for _, m, a in tracer.FUNCTIONS])
def test_traced_function_resolves(name, module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("name, module, cls, attr", tracer.METHODS, ids=[f"{c}.{a}" for _, _, c, a in tracer.METHODS])
def test_traced_method_is_defined_on_its_class(name, module, cls, attr):
    assert attr in vars(getattr(importlib.import_module(module), cls))


@pytest.mark.parametrize("name, index", sorted(tracer.OUTPUT_PATH_ARG.items()))
def test_output_path_argument_is_where_the_tracer_reads_it(name, index):
    # the tracer counts the bytes of the file named by this positional argument
    (module, attr), *_ = [(m, a) for n, m, a in tracer.FUNCTIONS if n == name]
    parameters = list(inspect.signature(getattr(importlib.import_module(module), attr)).parameters)
    assert parameters[index] == "path"
