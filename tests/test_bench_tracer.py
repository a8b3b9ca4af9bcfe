"""The benchmark calls hybridnoc by name; every name it wraps or calls must resolve."""

import ast
import importlib
import importlib.util
import pathlib

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
TRACER_PATH = BENCH / "tracer.py"


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


def hn_names(path):
    """Every dotted name hn.<a>.<b>... the file reads off the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id == "hn":
            names.add(".".join(reversed(chain)))
    return names


def test_every_package_name_the_bench_calls_resolves():
    package = importlib.import_module("hybridnoc")
    for script in ("run.py", "workloads.py"):
        names = hn_names(BENCH / script)
        assert names, script
        for name in names:
            obj = package
            for part in name.split("."):
                assert hasattr(obj, part), f"{script}: hn.{name}"
                obj = getattr(obj, part)
