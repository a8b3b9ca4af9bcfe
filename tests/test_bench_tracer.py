"""The benchmark calls hybridnoc by name; every name it wraps or calls must
resolve, and every call it makes must fit the signature it calls."""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import hybridnoc

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


def hn_name(node):
    """"a.b" for the expression hn.a.b, None for any other."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if chain and isinstance(node, ast.Name) and node.id == "hn":
        return ".".join(reversed(chain))
    return None


def hn_names(path):
    """Every dotted name hn.<a>.<b>... the file reads off the package."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {name for node in ast.walk(tree) if (name := hn_name(node))}


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


def unbound_calls(package):
    """"file:line hn.name: reason" for each hn.<name>(...) call in the bench
    whose positional count and keyword names do not bind to the signature
    of that name in package."""
    faults = []
    for script in ("run.py", "workloads.py"):
        tree = ast.parse((BENCH / script).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            name = hn_name(node.func) if isinstance(node, ast.Call) else None
            if name is None:
                continue
            where = f"{script}:{node.lineno} hn.{name}"
            # *args or **kwargs would hide the count the call makes
            assert not any(isinstance(a, ast.Starred) for a in node.args), where
            assert all(k.arg for k in node.keywords), where
            obj = package
            for part in name.split("."):
                obj = getattr(obj, part)
            try:
                inspect.signature(obj).bind(*node.args, **{k.arg: k for k in node.keywords})
            except TypeError as exc:
                faults.append(f"{where}: {exc}")
    return faults


def test_every_package_call_the_bench_makes_fits_its_signature():
    assert unbound_calls(hybridnoc) == []


def test_a_changed_signature_fails_to_bind(monkeypatch):
    # a profile reader that also takes the mesh breaks both bench calls
    def load_profile(path, mesh, granularity):
        raise AssertionError("never called")

    monkeypatch.setattr(hybridnoc, "load_profile", load_profile)
    faults = unbound_calls(hybridnoc)
    assert len(faults) == 2
    assert all(f.startswith("run.py:") and " hn.load_profile: " in f for f in faults)
