"""Ground-truth engines: exhaustive linkage search, censuses, symmetry keys.

Every count the acceptance suite trusts is produced here, independently of the
constructive solvers.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field

from .errors import OracleTimeout
from .paths import distance, reachable

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

    order = sorted(range(len(pairs)),
                   key=lambda i: (-distance(G, *sorted(pairs[i]), avoid),
                                  sorted(pairs[i])))
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
                raise OracleTimeout("oracle budget exceeded")
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


def _perm_tables(d):
    """Every axis permutation of Q_d, in itertools.permutations order, with
    its image table over the 2^d vertices."""
    return tuple((perm, tuple(_apply_perm(v, perm) for v in range(1 << d)))
                 for perm in itertools.permutations(range(d)))


_PERMS = {d: _perm_tables(d) for d in (1, 2, 3, 4)}
# _TO_LOW[d][diff]: the permutations that map diff to its low mask
# (1 << popcount) - 1, i.e. that put a pair differing in diff at (0, low)
_TO_LOW = {d: tuple(tuple(e for e in perms
                          if e[1][diff] == (1 << diff.bit_count()) - 1)
                    for diff in range(1 << d))
           for d, perms in _PERMS.items()}
# perm -> inverse image table
_MAPS = {perm: tuple(sorted(range(len(table)), key=table.__getitem__))
         for perms in _PERMS.values() for perm, table in perms}


def _key_candidates(d, pairs, x):
    """(anchor, permutations) in the order the minimum is taken over.

    The key's minimum is over every terminal or x translated to the origin
    composed with every axis permutation.  A terminal anchor puts (0, w) first
    in the sorted pairs, w being the image of its partner; an x anchor puts no
    0 in any pair, so it never wins while there are terminals.  w is least,
    (1 << h) - 1, exactly for the anchors whose pair is at the least Hamming
    distance h and the permutations that map the pair's difference there.
    Every other candidate is strictly larger, so skipping them keeps both
    the key and the first candidate that attains it.
    """
    h = min((a ^ b).bit_count() for a, b in pairs)
    return [(t, _TO_LOW[d][a ^ b]) for a, b in pairs
            if (a ^ b).bit_count() == h for t in (a, b)]


def cube_instance_key(d, pairs, x=None):
    """Canonical key of a cube instance under translations and axis perms.

    Two instances in the same orbit of Aut(Q_d) get the same key: the least
    over translating any terminal (or x) to the origin composed with every
    axis permutation, with the first such (anchor, perm) as the map.  Image
    tables and the pruning in _key_candidates cover d <= 4 only; larger d
    raises ValueError.
    """
    if d not in _PERMS:
        raise ValueError(f"cube instance keys cover 1 <= d <= 4, not {d}")
    best = None
    for t, perms in _key_candidates(d, pairs, x):
        shifted_pairs = [(a ^ t, b ^ t) for a, b in pairs]
        shifted_x = x ^ t if x is not None else None
        for perm, img in perms:
            pp = tuple(sorted((img[a], img[b]) if img[a] < img[b]
                              else (img[b], img[a])
                              for a, b in shifted_pairs))
            key = (pp, img[shifted_x] if x is not None else None)
            if best is None or key < best:
                best = key
                best_map = (t, perm)
    return best, best_map


def invert_cube_map(v, d, tmap):
    """Undo the (translate, permute) map returned by cube_instance_key:
    the vertex that the map sends to v."""
    t, perm = tmap
    return _MAPS[perm][v] ^ t
