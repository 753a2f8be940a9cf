"""The four benchmark workloads.

Each workload is a closed loop with one client: operation i+1 is sent only
after operation i has returned.  Operation i has kind KINDS[i % len(KINDS)],
so the share of each kind in a run is fixed by the list; the instances come
from the seed.  Kinds repeat in a list where their latencies would otherwise
put the median or the 90th percentile on the edge between two latency modes.

An operation is (kind, call, check).  Only `call` runs program code and only
`call` is timed; `check` re-validates the output with perfbench.check and
returns (error or None, certificate trace tags, obstructed?).
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import time
from collections import defaultdict
from math import comb
from types import SimpleNamespace

from check import (Host, blocked_pairings, linkage_error, parse_label,
                   to_label, witness_error)

MODULES = {
    "hypercube": "cubelink.hypercube",
    "complexes": "cubelink.complexes",
    "cube": "cubelink.linkage.cube",
    "cubical": "cubelink.linkage.cubical",
    "star": "cubelink.linkage.star",
}


def load_package():
    """Import cubelink afresh, so that every module-level cache starts empty."""
    for name in [n for n in sys.modules
                 if n == "cubelink" or n.startswith("cubelink.")]:
        del sys.modules[name]
    importlib.import_module("cubelink")
    M = SimpleNamespace(**{k: importlib.import_module(v)
                           for k, v in MODULES.items()})
    # kept apart so that they still work once the tracer has wrapped cube_graph
    M.clear_caches = (M.hypercube.cube_graph.cache_clear,
                      M.cube._base_cache.clear,
                      M.complexes.build_cube_polytope.cache_clear,
                      M.complexes.link_polytope.cache_clear)
    return M


class Op:
    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind, self.call, self.check = kind, call, check


def _pairs(X, k):
    return [(X[2 * i], X[2 * i + 1]) for i in range(k)]


def cert_outcome(cert, host, pairs, avoid=(), star_of=None):
    tags = list(cert.trace)
    if cert.valid is not True:
        return "certificate not marked valid", tags, False
    if cert.paths is not None:
        return linkage_error(host, pairs, cert.paths, avoid, star_of), tags, False
    w = cert.obstruction
    if w is None:
        return "certificate has neither paths nor obstruction", tags, False
    err = witness_error(host, pairs, w.kind, w.facet, tuple(w.pair), w.blocking,
                        star_of)
    return err, tags, True


class InProcess:
    """A workload that calls the library in this process."""

    in_process = True

    def setup(self, M):
        pass

    def release(self):
        """Drop what setup built, before the next set-up."""

    def cold(self, M):
        for clear in M.clear_caches:
            clear()

    def check_hosts(self):
        pass


class CubeSmall(InProcess):
    """Q_4..Q_7: full-capacity solve_cube, cube_linkage with 1 or 2 avoided
    vertices, solve_cube_strong at even d."""

    name = "cube-small"
    rate = 1400
    passes = 20
    # Solves and avoids on Q4 and Q6 take 0.1-0.6 ms.  The other kinds take
    # 0.7-0.9 ms, or about 0.5 ms when the memo already holds their base
    # cases, which happens for 10-35% of them depending on how far the pass
    # is.  With the fast kinds at 6 in 62, p50 stays among the slow
    # operations whatever the memo's hit rate, instead of on the gap.
    FAST = [("solve", 4, 0), ("solve", 6, 0),
            ("avoid", 4, 1), ("avoid", 4, 2), ("avoid", 6, 1), ("avoid", 6, 2)]
    SLOW = [("solve", 5, 0), ("avoid", 5, 1), ("avoid", 5, 2),
            ("solve", 7, 0), ("avoid", 7, 1), ("avoid", 7, 2),
            ("strong", 4, 1), ("strong", 6, 1)]
    KINDS = FAST + 7 * SLOW

    def op(self, M, i, rng):
        kind, d, a = self.KINDS[i % len(self.KINDS)]
        host = Host(d)
        k = (d + 1) // 2
        npairs = {"solve": k, "avoid": k - 1, "strong": d // 2}[kind]
        X = rng.sample(range(1 << d), 2 * npairs + a)
        pairs, avoid = _pairs(X, npairs), X[2 * npairs:]
        if kind == "solve":
            call = lambda: M.cube.solve_cube(d, pairs)
        elif kind == "avoid":
            call = lambda: M.cube.cube_linkage(d, pairs, avoid)
        else:
            call = lambda: M.cube.solve_cube_strong(d, pairs, avoid[0])
        return Op(f"{kind}-Q{d}", call,
                  lambda cert: cert_outcome(cert, host, pairs, avoid))


class CubeLarge(InProcess):
    """Full-capacity solve_cube at d = 11..14, one d after another."""

    name = "cube-large"
    rate = 21
    passes = 5
    # Medians of about 9, 19, 42 and 90 ms.  Per 8 operations, Q13 four times
    # and Q14 twice put p50 at the middle of Q13's latencies and p90 inside
    # Q14's.  Q15 (~170 ms a solve) would leave too few operations in a run
    # for steady percentiles.
    KINDS = [11, 12, 13, 13, 13, 13, 14, 14]

    def op(self, M, i, rng):
        d = self.KINDS[i % len(self.KINDS)]
        host = Host(d)
        k = (d + 1) // 2
        pairs = _pairs(rng.sample(range(1 << d), 2 * k), k)
        return Op(f"solve-Q{d}", lambda: M.cube.solve_cube(d, pairs),
                  lambda cert: cert_outcome(cert, host, pairs))


class Polytope(InProcess):
    """solve_cubical, solve_cubical_strong and solve_star on lattices of
    Q6, Q7 and the vertex links of Q7 and Q8, built during set-up."""

    name = "polytope"
    rate = 50
    passes = 10
    HOSTS = {"Q6": (6, None), "Q7": (7, None), "linkQ7": (7, 0), "linkQ8": (8, 0)}
    # Per 20 operations: 25% faster than Q7 (~1-8 ms), 40% on Q7 (~11 ms),
    # 30% on linkQ8 (~33 ms) and the strong solves, which build vertex links
    # on a cache miss (35-80 ms).  p50 falls on Q7, p90 on linkQ8.
    KINDS = (2 * [("cubical", "Q6"), ("cubical", "linkQ7")]
             + 4 * [("cubical", "Q7"), ("star", "Q7")]
             + 3 * [("cubical", "linkQ8"), ("star", "linkQ8")]
             + [("strong", "Q6"), ("strong", "linkQ7")])

    def setup(self, M):
        C = M.complexes
        self.P = {name: (C.build_cube_polytope(D) if v is None
                         else C.link_polytope(D, v))
                  for name, (D, v) in self.HOSTS.items()}
        self.H = {name: Host(D, v) for name, (D, v) in self.HOSTS.items()}

    def release(self):
        self.P = self.H = None

    def cold(self, M):
        super().cold(M)
        for P in self.P.values():
            P.__dict__.pop("_vertex_link_cache", None)

    def check_hosts(self):
        """The built lattices must have the vertices and edges of the model."""
        for name, P in self.P.items():
            H = self.H[name]
            if P.vertices != H.vertices:
                raise RuntimeError(f"{name}: wrong vertex set")
            for v in H.vertices:
                want = sorted(v ^ (1 << i) for i in range(H.D) if H.has(v ^ (1 << i)))
                if sorted(P.graph[v]) != want:
                    raise RuntimeError(f"{name}: wrong neighbours of {v}")

    def op(self, M, i, rng):
        kind, name = self.KINDS[i % len(self.KINDS)]
        P, H = self.P[name], self.H[name]
        k = (H.dim + 1) // 2
        if kind == "cubical":
            pairs = _pairs(rng.sample(H.vertices, 2 * k), k)
            return Op(f"cubical-{name}", lambda: M.cubical.solve_cubical(P, pairs),
                      lambda cert: cert_outcome(cert, H, pairs))
        if kind == "strong":
            X = rng.sample(H.vertices, H.dim + 1)
            pairs, x = _pairs(X, H.dim // 2), X[-1]
            return Op(f"strong-{name}",
                      lambda: M.cubical.solve_cubical_strong(P, pairs, x),
                      lambda cert: cert_outcome(cert, H, pairs, (x,)))
        s1 = rng.choice(H.vertices)
        X = rng.sample(sorted(H.star_vertices(s1) - {s1}), 2 * k - 1)
        pairs = [(s1, X[0])] + _pairs(X[1:], k - 1)
        return Op(f"star-{name}", lambda: M.star.solve_star(P, s1, pairs),
                  lambda cert: cert_outcome(cert, H, pairs, star_of=s1))


class Cli:
    """`cubelink` run one subprocess at a time: solve on cube, link and
    lattice hosts, verify of every certificate, and exhaustive censuses."""

    name = "cli"
    in_process = False
    rate = 4
    passes = 4
    LATTICE = "link6.json"   # `cubelink gen link --cube 6`: the link of 000000
    # Solves and verifies take 130-200 ms, the Q_3 census about as long, the
    # linkQ4 census ~370 ms and the Q_4 census ~490 ms.  With the Q_4 census
    # twice per 12 operations, p90 falls inside its latencies.
    KINDS = [("solve", "cube"), ("verify",), ("solve", "link"), ("verify",),
             ("solve", "lattice"), ("verify",), ("solve", "q3"), ("verify",),
             ("census", "cube", 3), ("census", "link", 4),
             ("census", "cube", 4), ("census", "cube", 4)]

    def __init__(self, root, work):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.child = os.path.join(root, "perfbench", "cli_child.py")
        self.stats_file = os.path.join(work, "child-stats.json")
        self.traced = False
        self.layers = defaultdict(float)
        self.spans = defaultdict(lambda: defaultdict(int))

    def _run(self, args, traced=False):
        if traced:
            cmd = [sys.executable, self.child, self.stats_file, *args]
        else:
            cmd = [sys.executable, "-m", "cubelink.cli", *args]
        t0 = time.perf_counter()
        r = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True,
                           text=True, timeout=120)
        return r, time.perf_counter() - t0

    def setup(self, M):
        r, _ = self._run(["gen", "link", "--cube", "6"])
        if r.returncode != 0:
            raise RuntimeError(f"gen link failed: {r.stderr.strip()}")
        with open(os.path.join(self.work, self.LATTICE), "w") as fh:
            fh.write(r.stdout)

    def release(self):
        pass

    def cold(self, M):
        pass

    def check_hosts(self):
        """The generated lattice file must list the facets of link(Q6, 000000)."""
        with open(os.path.join(self.work, self.LATTICE)) as fh:
            data = json.load(fh)
        verts = [parse_label(lbl) for lbl in data["labels"]]
        got = {frozenset(verts[i] for i in f) for f in data["facets"]}
        H = Host(6, 0)
        if got != {frozenset(H.facet_vertices(f)) for f in H.facets}:
            raise RuntimeError("gen link --cube 6 lists the wrong facets")

    def op(self, M, i, rng):
        kind = self.KINDS[i % len(self.KINDS)]
        if kind[0] == "verify":
            args = ["verify", "cert.json"]
            check = self._check_verify
        elif kind[0] == "census":
            host_kind, D = kind[1], kind[2]
            args = ["census", f"--{host_kind}", str(D), "--k", "2", "--exhaustive"]
            H = Host(D, 0 if host_kind == "link" else None)
            check = lambda out: self._check_census(out, H)
        else:
            args, H, pairs, code = self._solve_instance(kind[1], i // len(self.KINDS), rng)
            check = lambda out: self._check_solve(out, H, pairs, code)
        name = "-".join(map(str, kind))

        def call():
            r, wall = self._run(args, self.traced)
            if self.traced:
                self._absorb(kind[0], wall)
            return r
        return Op(name, call, check)

    def _solve_instance(self, where, cycle, rng):
        if where == "cube":
            d = 4 + cycle % 4
            H, k, flags = Host(d), (d + 1) // 2, ["--cube", str(d)]
            pairs = _pairs(rng.sample(H.vertices, 2 * k), k)
            code = 0
        elif where == "link":
            D = 5 + cycle % 2
            v = rng.randrange(1 << D)
            H, k = Host(D, v), D // 2
            flags = ["--link", str(D), "--vertex", to_label(v, D)]
            pairs = _pairs(rng.sample(H.vertices, 2 * k), k)
            code = 0
        elif where == "lattice":
            H, flags = Host(6, 0), ["--lattice", self.LATTICE]
            pairs = _pairs(rng.sample(H.vertices, 6), 3)
            code = 0
        else:
            # both diagonals of a 2-face of Q_3: the paper's config-3F
            H, flags = Host(3), ["--cube", "3"]
            axis = rng.randrange(3)
            free = 7 & ~(1 << axis)
            u = rng.randrange(2) << axis
            w = u ^ (free & -free)
            pairs = [(u, u ^ free), (w, w ^ free)]
            rng.shuffle(pairs)
            pairs = [p if rng.random() < 0.5 else p[::-1] for p in pairs]
            code = 2
        text = ",".join(f"{to_label(s, H.D)}-{to_label(t, H.D)}" for s, t in pairs)
        return ["solve", *flags, "--pairs", text], H, pairs, code

    def _check_solve(self, r, H, pairs, code):
        with open(os.path.join(self.work, "cert.json"), "w") as fh:
            fh.write(r.stdout)
        if r.returncode != code:
            return f"exit {r.returncode}, expected {code}: {r.stderr.strip()[-200:]}", [], False
        try:
            payload = json.loads(r.stdout)
            labels = [[parse_label(a), parse_label(b)] for a, b in payload["instance"]["pairs"]]
            result, tags = payload["result"], payload["trace"]
        except (ValueError, KeyError, TypeError) as e:
            return f"unreadable certificate: {e}", [], False
        if payload.get("valid") is not True:
            return "certificate not marked valid", tags, False
        if labels != [list(p) for p in pairs]:
            return "certificate instance differs from the request", tags, False
        try:
            if "linkage" in result and code == 0:
                paths = [[parse_label(lbl) for lbl in p] for p in result["linkage"]]
                return linkage_error(H, pairs, paths), tags, False
            if "obstruction" in result and code == 2:
                o = result["obstruction"]
                err = witness_error(H, pairs, o["kind"], [parse_label(x) for x in o["facet"]],
                                    tuple(parse_label(x) for x in o["pair"]),
                                    [parse_label(x) for x in o["blocking"]])
                return err, tags, True
        except (ValueError, KeyError, TypeError) as e:
            return f"malformed result: {e}", tags, False
        return f"result {sorted(result)} does not match exit {code}", tags, False

    @staticmethod
    def _check_verify(r):
        if r.returncode != 0 or not r.stdout.startswith("PASS"):
            return f"verify exit {r.returncode}: {r.stdout.strip()} {r.stderr.strip()[-200:]}", [], False
        return None, [], False

    @staticmethod
    def _check_census(r, H):
        if r.returncode != 0:
            return f"census exit {r.returncode}: {r.stderr.strip()[-200:]}", [], False
        try:
            rep = json.loads(r.stdout)
            total, linked, unlinked = rep["total"], rep["linked"], rep["unlinked"]
            bad = rep["timeouts"] or rep["detector_mismatches"]
            obs = rep["obstructions"]
        except (ValueError, KeyError, TypeError) as e:
            return f"unreadable census: {e}", [], False
        want = blocked_pairings(H)
        if (total != comb(len(H.vertices), 4) * 3 or linked + unlinked != total
                or unlinked != want or bad
                or obs != ({"config-3F": want} if want else {})):
            return f"census disagrees: total {total}, unlinked {unlinked}, want {want}", [], False
        return None, [], False

    def _absorb(self, command, wall):
        """Add one traced child's timings and span totals to the layer sums."""
        with open(self.stats_file) as fh:
            st = json.load(fh)
        os.remove(self.stats_file)
        self.layers["cli.import_s"] += st["import_s"]
        self.layers["cli.interpreter_s"] += wall - st["import_s"] - st["install_s"] - st["run_s"]
        self.layers[f"cli.{command}.wall_s"] += wall
        for name, row in st["spans"].items():
            for field, value in row.items():
                self.spans[name][field] += value


WORKLOADS = {w.name: w for w in (CubeSmall, CubeLarge, Polytope, Cli)}
