"""Ground-truth engines: exhaustive linkage search, censuses, separator checks.

Every count the acceptance suite trusts is produced here, independently of the
constructive solvers.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import deque
from dataclasses import dataclass, field

from .errors import OracleTimeout
from .paths import reachable

DEFAULT_TIMEOUT_MS = 10_000


def oracle_timeout_ms() -> int:
    return int(os.environ.get("CUBELINK_ORACLE_TIMEOUT_MS", DEFAULT_TIMEOUT_MS))


def _bfs_dist(G, s, t, forbidden):
    if s == t:
        return 0
    seen = {s}
    q = deque([(s, 0)])
    while q:
        u, du = q.popleft()
        for w in G[u]:
            if w == t:
                return du + 1
            if w not in seen and w not in forbidden:
                seen.add(w)
                q.append((w, du + 1))
    return None


def oracle_linkage(G, pairs, avoid=(), deadline=None):
    """Exhaustive backtracking search for a vertex-disjoint Y-linkage.

    Returns a list of paths (one per pair, original order) or None if no
    linkage exists.  `deadline` is an absolute time.monotonic() value; when
    exceeded an OracleTimeout is raised.  Pairs are routed hardest first
    (max distance), with per-pair residual-reachability pruning.
    """
    avoid = set(avoid)
    terminals = set()
    for s, t in pairs:
        terminals.update((s, t))
    if len(terminals) != 2 * len(pairs):
        raise ValueError("terminals not distinct")
    if avoid & terminals:
        raise ValueError("avoid overlaps terminals")

    order = sorted(
        range(len(pairs)),
        key=lambda i: (-(_bfs_dist(G, *sorted(pairs[i]), avoid) or len(G)),
                       sorted(pairs[i])),
    )
    ordered = [tuple(sorted(pairs[i])) for i in order]
    found = {}

    def feasible(idx, used):
        for j in range(idx, len(ordered)):
            s, t = ordered[j]
            other = terminals - {s, t}
            block = (used | avoid | other) - {s, t}
            if t not in reachable(G, [s], block):
                return False
        return True

    def paths_from(s, t, blocked):
        # DFS over simple s-t paths avoiding `blocked`, sorted neighbours
        stack = [(s, [s], blocked | {s})]
        while stack:
            u, path, seen = stack.pop()
            if deadline is not None and time.monotonic() > deadline:
                raise OracleTimeout("oracle budget exceeded", partial=dict(found))
            for w in sorted(G[u], reverse=True):
                if w == t:
                    yield path + [t]
                elif w not in seen:
                    stack.append((w, path + [w], seen | {w}))

    def solve(idx, used):
        if idx == len(ordered):
            return True
        if not feasible(idx, used):
            return False
        s, t = ordered[idx]
        other = terminals - {s, t}
        for p in paths_from(s, t, (used | avoid | other) - {s, t}):
            found[(s, t)] = p
            if solve(idx + 1, used | set(p)):
                return True
            del found[(s, t)]
        return False

    if solve(0, set()):
        out = []
        for s, t in pairs:
            p = found[tuple(sorted((s, t)))]
            out.append(p if p[0] == s else p[::-1])
        return out
    return None


@dataclass
class CensusReport:
    """Counts from a pairing census; total = linked + unlinked + timeouts."""

    host: str
    k: int
    mode: str
    total: int = 0
    linked: int = 0
    unlinked: int = 0
    timeouts: int = 0
    obstructions: dict = field(default_factory=dict)
    detector_mismatches: list = field(default_factory=list)
    witness_samples: list = field(default_factory=list)
    wall_time_s: float = 0.0

    def to_json(self) -> dict:
        return {
            "host": self.host,
            "k": self.k,
            "mode": self.mode,
            "total": self.total,
            "linked": self.linked,
            "unlinked": self.unlinked,
            "timeouts": self.timeouts,
            "obstructions": {k: self.obstructions[k] for k in sorted(self.obstructions)},
            "detector_mismatches": self.detector_mismatches,
            "witness_samples": self.witness_samples,
        }


def all_pairings(X):
    """All perfect pairings of an even-sized vertex collection."""
    X = sorted(X)
    if not X:
        yield []
        return
    s = X[0]
    for i in range(1, len(X)):
        t = X[i]
        rest = X[1:i] + X[i + 1:]
        for sub in all_pairings(rest):
            yield [(s, t)] + sub


def census(G, k, host="", mode="exhaustive", sample=None, seed=0,
           detector=None):
    """Classify pairings of 2k terminals via the oracle.

    mode "exhaustive": every X of size 2k and every pairing (|V| <= 16
    enforced).  mode "sample": `sample` random instances from `seed`.
    `detector` maps (pairs) -> obstruction kind or None and is cross-tabbed
    against the oracle verdict; disagreements are recorded.
    """
    t0 = time.monotonic()
    rep = CensusReport(host=host, k=k, mode=mode)
    verts = sorted(G)
    if mode == "exhaustive":
        if len(verts) > 16:
            raise ValueError("exhaustive census limited to 16 vertices")
        instances = (
            pairing
            for X in itertools.combinations(verts, 2 * k)
            for pairing in all_pairings(X)
        )
        budget = None
    elif mode == "sample":
        import random

        rng = random.Random(seed)

        def sampled():
            for _ in range(sample):
                X = rng.sample(verts, 2 * k)
                rng.shuffle(X)
                yield [(X[2 * i], X[2 * i + 1]) for i in range(k)]

        instances = sampled()
        budget = oracle_timeout_ms() / 1000.0
    else:
        raise ValueError(f"unknown census mode {mode}")

    for pairs in instances:
        rep.total += 1
        kind = detector(pairs) if detector else None
        deadline = time.monotonic() + budget if budget else None
        try:
            linkage = oracle_linkage(G, pairs, deadline=deadline)
        except OracleTimeout:
            rep.timeouts += 1
            continue
        if linkage is not None:
            rep.linked += 1
            if kind is not None:
                rep.detector_mismatches.append(
                    {"pairs": pairs, "detector": kind, "oracle": "linked"})
        else:
            rep.unlinked += 1
            if kind is None:
                rep.detector_mismatches.append(
                    {"pairs": pairs, "detector": None, "oracle": "unlinked"})
            else:
                rep.obstructions[kind] = rep.obstructions.get(kind, 0) + 1
                if len(rep.witness_samples) < 8:
                    rep.witness_samples.append({"pairs": pairs, "kind": kind})
    rep.wall_time_s = time.monotonic() - t0
    return rep


def separator_census(d):
    """Exhaustively verify the structure of minimum separators of Q_d.

    Every size-d separator must be the neighbourhood N(v) of some vertex, be
    an independent set, and leave exactly two components, one of them {v}.
    Returns a dict report; d <= 4.
    """
    from .hypercube import cube_graph

    if d > 4:
        raise ValueError("exhaustive separator census limited to d <= 4")
    G = cube_graph(d)
    verts = sorted(G)
    neighborhoods = {frozenset(G[v]): v for v in verts}
    report = {"d": d, "subsets": 0, "separators": 0, "violations": []}
    for S in itertools.combinations(verts, d):
        report["subsets"] += 1
        Sset = set(S)
        rest = [v for v in verts if v not in Sset]
        comp = reachable(G, [rest[0]], Sset)
        if len(comp) == len(rest):
            continue  # not a separator
        report["separators"] += 1
        fs = frozenset(S)
        if fs not in neighborhoods:
            report["violations"].append({"separator": list(S), "why": "not a neighbourhood"})
            continue
        v = neighborhoods[fs]
        if any(b in G[a] for a, b in itertools.combinations(S, 2)):
            report["violations"].append({"separator": list(S), "why": "not independent"})
        comps = []
        left = set(rest)
        while left:
            c = reachable(G, [min(left)], Sset)
            comps.append(c)
            left -= c
        if len(comps) != 2 or {v} not in comps:
            report["violations"].append(
                {"separator": list(S), "why": f"components {sorted(map(sorted, comps))}"})
    return report


def common_neighbor_check(G) -> bool:
    """True iff no two vertices share three or more neighbours (no K_{2,3})."""
    verts = sorted(G)
    nbrs = {v: set(G[v]) for v in verts}
    for u, v in itertools.combinations(verts, 2):
        if len(nbrs[u] & nbrs[v]) > 2:
            return False
    return True


def axis_permutations(d):
    return list(itertools.permutations(range(d)))


def _apply_perm(v, perm):
    out = 0
    for i, p in enumerate(perm):
        if (v >> i) & 1:
            out |= 1 << p
    return out


def cube_instance_key(d, pairs, x=None):
    """Canonical key of a cube instance under translations and axis perms.

    Two instances in the same orbit of Aut(Q_d) get the same key: minimise
    over translating any terminal (or x) to the origin composed with every
    axis permutation.  Intended for d <= 4 where d! is small.
    """
    terminals = [v for p in pairs for v in p]
    anchors = terminals + ([x] if x is not None else [])
    best = None
    for t in anchors:
        shifted_pairs = [(a ^ t, b ^ t) for a, b in pairs]
        shifted_x = x ^ t if x is not None else None
        for perm in axis_permutations(d):
            pp = tuple(sorted(tuple(sorted((_apply_perm(a, perm), _apply_perm(b, perm))))
                              for a, b in shifted_pairs))
            key = (pp, _apply_perm(shifted_x, perm) if x is not None else None)
            if best is None or key < best:
                best = key
                best_map = (t, perm)
    return best, best_map


def apply_cube_map(v, d, tmap):
    """Apply the (translate, permute) map returned by cube_instance_key."""
    t, perm = tmap
    return _apply_perm(v ^ t, perm)


def invert_cube_map(v, d, tmap):
    """Invert apply_cube_map."""
    t, perm = tmap
    inv = [0] * d
    for i, p in enumerate(perm):
        inv[p] = i
    return _apply_perm(v, inv) ^ t
