"""The benchmark tracer wraps hybridnoc callables by name; every name must resolve."""

import importlib
import importlib.util
import pathlib

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = load_tracer().TRACED
    assert traced
    for layer, names in traced.items():
        module = importlib.import_module(f"hybridnoc.{layer}")
        for name in names:
            if "." in name:
                # the tracer patches the method found in the class __dict__
                cls_name, meth = name.split(".")
                assert callable(vars(getattr(module, cls_name)).get(meth)), name
            else:
                assert callable(getattr(module, name, None)), f"{layer}.{name}"
