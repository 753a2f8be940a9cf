"""Ground-truth engines: exhaustive linkage search, censuses, symmetry keys.

Every count the acceptance suite trusts is produced here, independently of the
constructive solvers.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field

from .errors import NoPath, OracleTimeout
from .paths import reachable, shortest_path

DEFAULT_TIMEOUT_MS = 10_000


def oracle_timeout_ms() -> int:
    return int(os.environ.get("CUBELINK_ORACLE_TIMEOUT_MS", DEFAULT_TIMEOUT_MS))


def oracle_linkage(G, pairs, avoid=(), deadline=None):
    """Exhaustive backtracking search for a vertex-disjoint Y-linkage.

    Returns a list of paths (one per pair, original order) or None if no
    linkage exists.  `deadline` is an absolute time.monotonic() value; when
    exceeded an OracleTimeout is raised.  Pairs are routed hardest first
    (max distance), with per-pair residual-reachability pruning.
    """
    avoid = set(avoid)
    terminals = {v for p in pairs for v in p}
    if len(terminals) != 2 * len(pairs):
        raise ValueError("terminals not distinct")
    if avoid & terminals:
        raise ValueError("avoid overlaps terminals")

    def dist(s, t):
        try:
            return len(shortest_path(G, s, t, avoid)) - 1
        except NoPath:
            return len(G)

    order = sorted(range(len(pairs)),
                   key=lambda i: (-dist(*sorted(pairs[i])), sorted(pairs[i])))
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
        for perm in itertools.permutations(range(d)):
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
