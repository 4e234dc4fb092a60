"""The benchmark tracer wraps geolens bindings by name: they must exist.

A renamed or moved binding would turn its layer metric silently null, so
this checks the names the tracer lists without importing the benchmark
package (the tracer source is compiled from its file, read-only).
"""

import importlib
import pathlib
import types

import pytest

from geolens import Euclidean, Hyperbolic, Sphere, SurfaceOfRevolution

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_traced_functions_resolve(tracer):
    for layer, module_name, attr in tracer.FUNCTIONS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{layer}: {module_name}.{attr}"


def test_traced_methods_exist_on_every_model(tracer):
    for model in (Euclidean, Sphere, Hyperbolic, SurfaceOfRevolution):
        for name in tracer.METHODS:
            assert callable(getattr(model, name, None)), f"{model.__name__}.{name}"
