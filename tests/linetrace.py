"""A pytest plugin that lists the statements of cubelink no test reaches.

Load it with `-p linetrace` (tests/ on PYTHONPATH) on a run of the whole
suite:

    PYTHONPATH=tests PYTHONHASHSEED=0 python -m pytest -q -p linetrace \\
        --hypothesis-seed=0

It traces, with the standard library's sys.settrace and threading.settrace,
the frames of files under src/cubelink only; code run in a subprocess is not
seen.  At the end of the session every statement that no line event reached
is written as `file:function: source text`, file relative to src/cubelink
and function the dotted name of the enclosing defs (`<module>` at top
level).  Source text, not a line number, names the statement, so an edit
elsewhere in the file leaves the entry as it was.

The list is compared, as a multiset, with tests/unreached_lines.txt: an
unreached statement that is not listed fails the session, and a listed one
that is now reached is only reported, so that it can be taken off.  Lines
of that file that are blank or start with `#` are ignored.
"""

import ast
import collections
import os
import pathlib
import sys
import threading
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cubelink"
LISTED = ROOT / "tests" / "unreached_lines.txt"


def _code_lines(code):
    """The lines the compiler gave any instruction of `code` or of the code
    nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _statements(tree):
    """(first line, last line, enclosing function) of every statement.  A
    compound statement spans its header only: decorators, keyword and
    condition, up to its first inner statement."""
    out = []

    def walk(body, scope):
        for node in body:
            inner = [n for field in ("body", "orelse", "finalbody")
                     for n in getattr(node, field, [])]
            inner += [n for h in getattr(node, "handlers", []) for n in h.body]
            first = min([node.lineno] + [d.lineno for d in getattr(
                node, "decorator_list", [])])
            last = (max(node.lineno, min(n.lineno for n in inner) - 1)
                    if inner else node.end_lineno)
            out.append((first, last, ".".join(scope) or "<module>"))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                walk(inner, scope + [node.name])
            else:
                walk([n for n in inner if isinstance(n, ast.stmt)], scope)

    walk(tree.body, [])
    return out


def unreached(reached):
    """The `file:function: source text` entries of the statements under
    PACKAGE that have instructions and no line in `reached`."""
    entries = []
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        code_lines = _code_lines(compile(text, str(path), "exec"))
        name = str(path)
        seen = {line for file, line in reached if file == name}
        rel = path.relative_to(PACKAGE).as_posix()
        for first, last, scope in _statements(ast.parse(text)):
            span = set(range(first, last + 1))
            if span & code_lines and not span & seen:
                entries.append(f"{rel}:{scope}: {source[first - 1].strip()}")
    return entries


def _listed():
    if not LISTED.exists():
        return []
    return [line for line in LISTED.read_text().splitlines()
            if line.strip() and not line.startswith("#")]


class LineTrace:
    """The session's trace: which lines of PACKAGE ran, and the report."""

    def __init__(self):
        self.prefix = str(PACKAGE) + os.sep
        self.traced = {}    # code object -> whether it lies under PACKAGE
        self.reached = set()  # (file name, line number) of each line event
        self.report = None

    def local(self, frame, event, arg):
        if event == "line":
            self.reached.add((frame.f_code.co_filename, frame.f_lineno))
        return self.local

    def trace(self, frame, event, arg):
        code = frame.f_code
        hit = self.traced.get(code)
        if hit is None:
            hit = self.traced[code] = os.path.realpath(
                code.co_filename).startswith(self.prefix)
        return self.local if hit else None

    def pytest_sessionfinish(self, session):
        sys.settrace(None)
        threading.settrace(None)
        reached = {(os.path.realpath(f), line) for f, line in self.reached}
        now = collections.Counter(unreached(reached))
        listed = collections.Counter(_listed())
        self.report = (sum(now.values()), sorted((now - listed).elements()),
                       sorted((listed - now).elements()))
        if self.report[1] and session.exitstatus == pytest.ExitCode.OK:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        if self.report is None:
            return
        count, new, gone = self.report
        write = terminalreporter.write_line
        name = LISTED.relative_to(ROOT)
        write(f"linetrace: {count} statements of cubelink no test reached")
        if new:
            write(f"linetrace: FAIL: {len(new)} of them are not in {name}; "
                  f"reach them with a test or list them:")
            for entry in new:
                write(entry)
        if gone:
            write(f"linetrace: {len(gone)} listed in {name} are reached "
                  f"now; take them off:")
            for entry in gone:
                write(entry)


def pytest_configure(config):
    if any(m == "cubelink" or m.startswith("cubelink.") for m in sys.modules):
        raise pytest.UsageError("linetrace must be loaded before cubelink "
                                "is imported")
    tracer = LineTrace()
    config.pluginmanager.register(tracer, "linetrace-session")
    threading.settrace(tracer.trace)
    sys.settrace(tracer.trace)
