"""Layout guards: the names the benchmark reaches into, no `assert` in the
runtime package (its checks must hold under `python -O`), no unread
parameter in any function, no private name imported across modules, no
oracle under linkage/, and no runtime dependency outside the standard
library."""

import ast
import importlib
import importlib.util
import pathlib
import subprocess
import sys
from collections import Counter

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


# The definitions that no runtime code and no tracer target names.  The
# tests read the faces by dimension; the lattice readers leave the package
# with the benchmark refresh (ROADMAP item 6).
ONLY_TESTS_NAME = {"Polytope.faces_by_dim"}


def _names(tree):
    """Every name a tree reads or imports, attributes included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (a.name for a in node.names)


def test_every_runtime_definition_has_a_runtime_reference():
    """Every `def` and `class` under src/cubelink is named somewhere in
    src/cubelink outside its own body, or by the benchmark tracer's
    TARGETS: code that only the tests call belongs in tests/audit.py.
    ONLY_TESTS_NAME lists the exceptions, and an entry that is named now,
    or gone, fails too."""
    trees = [ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "cubelink").rglob("*.py"))]
    named = Counter(name for tree in trees for name in _names(tree))
    traced = {part for _, attr in _tracer_targets()
              for part in attr.split(".")}
    unnamed = []
    for tree in trees:
        owner = {id(child): node.name for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for child in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            qual = ".".join(filter(None, (owner.get(id(node)), name)))
            if not (name.startswith("__") or name in traced
                    or named[name] > Counter(_names(node))[name]):
                unnamed.append(qual)
    assert sorted(unnamed) == sorted(ONLY_TESTS_NAME)


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


def test_every_parameter_of_a_function_is_read():
    """A function or method reads each of its parameters (`self` and `cls`
    aside): a parameter nothing reads is a knob to drop."""
    unread = []
    for path in sorted((ROOT / "src" / "cubelink").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [v for v in (a.vararg, a.kwarg) if v]]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno} {node.name}({p})"
                       for p in params
                       if p not in ("self", "cls") and p not in read]
    assert unread == []


# Each seam and the functions allowed to cross it: Menger routing only in
# the router, and no oracle search anywhere under linkage/, since every
# base case reads its linkage off the shortest-path witness.
SEAMS = {"disjoint_paths": {"route_into"}, "oracle_linkage": set(),
         "linkable": set(), "_linkable_masks": set()}


def _callee(call):
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def _oracle_imports(tree):
    """The names a module imports from cubelink.oracle, "oracle" for the
    module itself."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").rpartition(".")[2] == "oracle":
                names |= {a.name for a in node.names}
            else:
                names |= {"oracle" for a in node.names if a.name == "oracle"}
        elif isinstance(node, ast.Import):
            names |= {"oracle" for a in node.names
                      if a.name.rpartition(".")[2] == "oracle"}
    return names


def test_routing_and_search_each_have_one_seam():
    stray = []
    for path in sorted((ROOT / "src" / "cubelink" / "linkage").glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {name: set() for name in SEAMS}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                for name, homes in SEAMS.items():
                    if node.name in homes:
                        inside[name] |= {id(n) for n in ast.walk(node)}
        stray += [f"{path.name}:{node.lineno} {_callee(node)}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _callee(node) in SEAMS
                  and id(node) not in inside[_callee(node)]]
    assert stray == []


def test_no_linkage_module_imports_the_oracle():
    """The solvers share no code with the ground truth they are checked
    against: no module under linkage/ imports cubelink.oracle, whole or
    any name of it."""
    found = {f"{path.name} {name}"
             for path in sorted((ROOT / "src" / "cubelink" /
                                 "linkage").glob("*.py"))
             for name in _oracle_imports(ast.parse(path.read_text()))}
    assert found == set()


def test_no_private_name_crosses_a_module():
    """A name that another cubelink module imports is public in the
    module that defines it: no module under src/cubelink imports a
    `_`-prefixed name from another."""
    root = ROOT / "src" / "cubelink"
    found = [f"{path.relative_to(root)}:{node.lineno} {alias.name}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").startswith("cubelink"))
             for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_every_star_tag_is_pinned():
    """Every `star/...` tag in star.py shows in a trace of the pinned star
    set, so the star-branch digest covers every branch.  A constant that
    opens an f-string tag only needs to start some trace entry."""
    from test_star import star_branch_certificates

    tree = ast.parse((ROOT / "src" / "cubelink" / "linkage" /
                      "star.py").read_text())
    heads = {id(v) for node in ast.walk(tree)
             if isinstance(node, ast.JoinedStr) for v in node.values}
    traces = {t for cert in star_branch_certificates() for t in cert.trace}
    unpinned = [node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.startswith("star/")
                and node.value not in traces
                and not (id(node) in heads
                         and any(t.startswith(node.value) for t in traces))]
    assert unpinned == []


def test_no_hand_written_bfs_in_linkage():
    """The solvers search through the router and `paths`: no module under
    linkage/ reaches for `deque` to run a BFS of its own."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "cubelink" /
                                 "linkage").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.ImportFrom)
                 and any(a.name == "deque" for a in node.names))
             or (isinstance(node, ast.Attribute) and node.attr == "deque")]
    assert found == []


def test_runtime_package_has_no_dependencies():
    """pyproject.toml declares none, and every absolute import under
    src/cubelink names a standard-library module."""
    text = (ROOT / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    assert "\ndependencies = []\n" in project
    outside = [f"{path.name}:{node.lineno} {name}"
               for path in sorted((ROOT / "src" / "cubelink").rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               for name in (
                   [a.name for a in node.names]
                   if isinstance(node, ast.Import)
                   else [node.module] if isinstance(node, ast.ImportFrom)
                   and node.level == 0 else [])
               if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_cli_import_loads_no_introspection_modules():
    """`import cubelink.cli` in a fresh interpreter adds none of the
    modules that dataclasses and typing pull in: the import is part of
    every command's run time."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "before = set(sys.modules); import cubelink.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    added = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(ROOT / "src")],
        capture_output=True, text=True, check=True).stdout.split()
    assert "cubelink.cli" in added
    assert {"dataclasses", "inspect", "typing"}.isdisjoint(added)


def test_every_unreached_entry_sits_under_a_reason(tmp_path, monkeypatch):
    """tests/unreached_lines.txt gives each entry a `#` reason above it in
    its block, and linetrace reports an entry whose block has none."""
    import linetrace

    entries, bare = linetrace._listed()
    assert entries and bare == []
    listed = tmp_path / "unreached_lines.txt"
    listed.write_text("# header\n\n# why\na.py:f: x\n\nb.py:g: y\n# late\n"
                      "c.py:h: z\n")
    monkeypatch.setattr(linetrace, "LISTED", listed)
    assert linetrace._listed() == (["a.py:f: x", "b.py:g: y", "c.py:h: z"],
                                   ["b.py:g: y"])
