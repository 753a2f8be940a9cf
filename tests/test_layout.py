"""Layout guards: the names the benchmark reaches into, and no `assert`
in the runtime package (its checks must hold under `python -O`)."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tracer_targets():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "perfbench" / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [(modname, attr) for modname, attr, *_ in mod.TARGETS]


@pytest.mark.parametrize("modname,attr", _tracer_targets())
def test_tracer_targets_resolve(modname, attr):
    owner, _, name = attr.rpartition(".")
    obj = importlib.import_module(modname)
    assert name in vars(getattr(obj, owner) if owner else obj)


def test_workload_references_resolve():
    """Every `M.<module>.<attr>...` in workloads.py, the caches each pass
    clears among them, resolves on cubelink."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    modules = next(ast.literal_eval(n.value) for n in tree.body
                   if isinstance(n, ast.Assign)
                   and ast.unparse(n.targets[0]) == "MODULES")
    chains = []
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if getattr(node, "id", None) == "M" and chain[:1] and chain[0] in modules:
            chains.append(chain)
    assert ["cube", "_base_cache", "clear"] in chains
    for module, *attrs in chains:
        obj = importlib.import_module(modules[module])
        for name in attrs:
            obj = getattr(obj, name)


def test_no_assert_in_runtime_package():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "cubelink").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
