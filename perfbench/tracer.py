"""Spans around the public functions of each cubelink layer.

install() replaces every function in TARGETS, at each cubelink module that
holds a reference to it, with a wrapper that records a span: its name, the
operation it ran under, the span that caused it, and start and end times.
Per-name totals (calls, self time, sizes) are kept as the spans close;
the first SPAN_CAP spans are also kept whole and written out at exit.  Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time

SPAN_CAP = 50_000


def _len_result(args, result):
    return len(result)


def _faces_scanned(args, result):
    return len(args[1].proper_faces)  # (cls, host, generators)


# (module, attribute, span name, size name, size function)
TARGETS = [
    ("cubelink.hypercube", "face_graph", "hypercube.face_graph", "vertices", _len_result),
    ("cubelink.hypercube", "cube_graph", "hypercube.cube_graph", None, None),
    ("cubelink.paths", "shortest_path", "paths.shortest_path", None, None),
    ("cubelink.paths", "disjoint_paths", "paths.disjoint_paths", None, None),
    ("cubelink.paths", "reachable", "paths.reachable", None, None),
    ("cubelink.paths", "validate_linkage", "paths.validate_linkage", None, None),
    ("cubelink.complexes", "Polytope.__init__", "complexes.Polytope.init", None, None),
    ("cubelink.complexes", "star_complex", "complexes.star_complex", None, None),
    ("cubelink.complexes", "Complex.generated_by", "complexes.Complex.generated_by",
     "faces_scanned", _faces_scanned),
    ("cubelink.complexes", "Complex.graph", "complexes.Complex.graph", None, None),
    ("cubelink.oracle", "oracle_linkage", "oracle.oracle_linkage", None, None),
    ("cubelink.oracle", "cube_instance_key", "oracle.cube_instance_key", None, None),
    ("cubelink.oracle", "census", "oracle.census", None, None),
    ("cubelink.linkage.cube", "solve_cube", "linkage.solve_cube", None, None),
    ("cubelink.linkage.cube", "cube_linkage", "linkage.cube_linkage", None, None),
    ("cubelink.linkage.cube", "solve_cube_strong", "linkage.solve_cube_strong", None, None),
    ("cubelink.linkage.cube", "detect_config_3F", "linkage.detect_config_3F", None, None),
    ("cubelink.linkage.link", "solve_link", "linkage.solve_link", None, None),
    ("cubelink.linkage.star", "solve_star", "linkage.solve_star", None, None),
    ("cubelink.linkage.star", "detect_config_dF", "linkage.detect_config_dF", None, None),
    ("cubelink.linkage.cubical", "solve_cubical", "linkage.solve_cubical", None, None),
    ("cubelink.linkage.cubical", "solve_cubical_strong", "linkage.solve_cubical_strong",
     None, None),
    ("cubelink.linkage.cubical", "vertex_link", "linkage.vertex_link", None, None),
]


class Tracer:
    def __init__(self):
        self.stats = {}      # span name -> [calls, self_ns, size]
        self.spans = []      # (id, parent id, name, op, start_ns, end_ns)
        self.op = 0
        self._next = 0
        self._stack = []     # open spans: [id, ns covered by children]

    def wrap(self, name, fn, size_fn):
        st = self.stats.setdefault(name, [0, 0, 0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                st[0] += 1
                st[1] += dur - frame[1]
                if sid < SPAN_CAP:
                    spans.append((sid, parent, name, self.op, start, end))
            if size_fn is not None:
                st[2] += size_fn(args, result)
            return result

        return wrapper

    def summary(self):
        """Per-name totals: {name: {"calls", "self_s", size name}}."""
        out = {}
        for _, _, name, size_name, _ in TARGETS:
            calls, own, size = self.stats.get(name, (0, 0, 0))
            row = {"calls": calls, "self_s": own / 1e9}
            if size_name:
                row[size_name] = size
            out[name] = row
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "op", "start_ns", "end_ns"],
                       "spans": self.spans,
                       "dropped": max(0, self._next - SPAN_CAP)}, fh)


def install(tracer):
    """Wrap every target at each loaded cubelink module that references it."""
    mods = [m for n, m in list(sys.modules.items())
            if n == "cubelink" or n.startswith("cubelink.")]
    for modname, attr, name, _, size_fn in TARGETS:
        mod = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(name, raw.__func__, size_fn)))
            else:
                setattr(cls, meth, tracer.wrap(name, raw, size_fn))
            continue
        orig = getattr(mod, attr)
        wrapped = tracer.wrap(name, orig, size_fn)
        for m in mods:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
