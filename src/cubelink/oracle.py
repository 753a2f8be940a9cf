"""Ground-truth engines: exhaustive linkage search, censuses, and the
small-cube symmetry key `cube_instance_key`, which no solver calls.

Every count the acceptance suite trusts is produced here, independently of the
constructive solvers, by one search on the bitset router `paths.Bits`.
That search, `_linkable_masks`, returns the vertex masks of the linkage
it finds: it first routes the pairs one after another along BFS-shortest
paths, and searches only when that leaves a pair cut off.  `linkable`
reads only whether it found one, which is all a census needs.
`oracle_linkage` makes the same one call for `--method oracle` and reads
each path off its mask (`Bits.walk`).  No solver imports this module:
each base case reads `Bits.shortest_linkage` and `Bits.walk` in `paths`.
"""

from __future__ import annotations

import itertools
import os
import time

from .errors import OracleTimeout
from .paths import Bits

DEFAULT_TIMEOUT_MS = 10_000
TIMEOUT_VAR = "CUBELINK_ORACLE_TIMEOUT_MS"


def oracle_timeout_ms() -> int:
    """The budget of each CLI or census oracle search: a positive integer of
    milliseconds from CUBELINK_ORACLE_TIMEOUT_MS, else the default."""
    raw = os.environ.get(TIMEOUT_VAR)
    if raw is None:
        return DEFAULT_TIMEOUT_MS
    try:
        ms = int(raw)
    except ValueError:
        ms = 0
    if ms <= 0:
        raise ValueError(f"{TIMEOUT_VAR} must be a positive integer of "
                         f"milliseconds, not {raw!r}")
    return ms


def _check_instance(G, pairs, avoid):
    terminals = {v for p in pairs for v in p}
    if len(terminals) != 2 * len(pairs):
        raise ValueError("terminals not distinct")
    if set(avoid) & terminals:
        raise ValueError("avoid overlaps terminals")
    if not all(v in G for v in terminals):
        raise ValueError("terminal not in the graph")


def _check_deadline(deadline):
    if deadline is not None and time.monotonic() > deadline:
        raise OracleTimeout("oracle budget exceeded")


def oracle_linkage(G, pairs, avoid=(), deadline=None):
    """A vertex-disjoint Y-linkage, one path per pair in the given order
    and orientation, or None if no linkage exists.

    It is the linkage that `linkable`'s one search finds, each path read
    off its vertex mask (`Bits.walk`), so its verdict is `linkable`'s.
    `deadline` is an absolute time.monotonic() value that the search
    checks; when exceeded an OracleTimeout is raised.
    """
    _check_instance(G, pairs, avoid)
    B = Bits(G)
    ps, frees = B.pair_masks(pairs, avoid)
    masks = _linkable_masks(B, ps, frees, deadline)
    if masks is None:
        return None
    return [B.walk(a, b, m) for (a, b), m in zip(ps, masks)]


def linkable(G, pairs, avoid=(), deadline=None):
    """Whether a vertex-disjoint linkage of `pairs` avoiding `avoid` exists.

    Validates like oracle_linkage and reads no paths.  It agrees with
    `oracle_linkage(...) is not None` by construction: both make the same
    `_linkable_masks` call.  That call first tries a witness: each pair in
    the given order takes a BFS-shortest path through its free vertices
    minus the earlier paths, and if every pair gets one, that is a
    linkage.  Otherwise pairs are taken one at a time in the given order,
    each by a DFS over induced s-t paths that stops at the first vertex
    adjacent to t; the last pair is one flood fill.  That is complete: if a
    linkage exists, the shortest path inside each path's own vertex set is
    induced and gives one too.  A node is dropped when t is cut off from
    it, or a later pair by the vertices used so far.  `deadline` is an
    absolute time.monotonic() value checked before the witness and at every
    pop.
    """
    _check_instance(G, pairs, avoid)
    B = Bits(G)
    return _linkable_masks(B, *B.pair_masks(pairs, avoid),
                           deadline) is not None


def _linkable_masks(B, ps, frees, deadline):
    """`linkable` on bit tables: ps are the pairs by index and frees their
    free masks, as `Bits.pair_masks` gives them.  The vertex masks of the
    linkage found, one induced path per pair in pair order, or None."""
    _check_deadline(deadline)
    masks = B.shortest_linkage(ps, frees)
    if masks is not None:
        return masks
    nbr, full = B.nbr, B.full

    def search(idx, used):
        s, t = ps[idx]
        goal = 1 << t
        blocked = full & ~frees[idx] | used
        later = ps[idx + 1:], frees[idx + 1:]
        # seen: blocked, the path, and the neighbours of all but its end
        stack = [(s, 1 << s, blocked | 1 << s)]
        while stack:
            u, path, seen = stack.pop()
            _check_deadline(deadline)
            if nbr[u] & goal:
                path |= goal
                # the last pair is one flood fill
                if idx + 2 == len(ps):
                    a, b = ps[-1]
                    last = B.route(a, b, frees[-1] & ~(used | path))
                    if last:
                        return [path, last]
                elif not B.cut_off(*later, used | path):
                    rest = search(idx + 1, used | path)
                    if rest is not None:
                        return [path] + rest
                continue
            # s alone takes nothing a later pair may use
            if not B.route(u, t, full & ~seen) or (
                    u != s and B.cut_off(*later, used | path)):
                continue
            closed = seen | nbr[u]
            rest = nbr[u] & ~seen
            while rest:
                low = rest & -rest
                rest ^= low
                stack.append((low.bit_length() - 1, path | low, closed))
        return None

    # a lone pair the witness could not route is cut off
    return search(0, 0) if len(ps) > 1 else None


class CensusReport:
    """Counts from a pairing census; total = linked + unlinked + timeouts.
    Reports with equal fields are equal."""

    def __init__(self, host, k, mode):
        self.host = host
        self.k = k
        self.mode = mode
        self.total = self.linked = self.unlinked = self.timeouts = 0
        self.obstructions = {}
        self.detector_mismatches = []
        self.witness_samples = []
        self.wall_time_s = 0.0

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

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


def census(G, k, host="", sample=None, seed=0, detector=None):
    """Classify pairings of 2k terminals as linked or unlinked.

    Each verdict comes from `linkable` on bit tables built once for the run.
    With no `sample` the census is exhaustive: every X of size 2k and every
    pairing (|V| <= 16 enforced), in the order of `all_pairings`, with
    shortest routes read off one geodesic table; else `sample` random ones
    from `seed`.  Each search is bounded by oracle_timeout_ms(), and counted
    as a timeout when it runs out.
    `detector` maps (pairs) -> obstruction kind or None and is cross-tabbed
    against the verdict; disagreements are recorded.  A k below 1 or above
    |V| / 2, or a sample below 1, raises ValueError.
    """
    t0 = time.monotonic()
    mode = "exhaustive" if sample is None else "sample"
    rep = CensusReport(host=host, k=k, mode=mode)
    n = len(G)
    if not 1 <= k <= n // 2:
        raise ValueError(f"k must be between 1 and {n // 2}, not {k}")
    if sample is None:
        if n > 16:
            raise ValueError("exhaustive census limited to 16 vertices")
    elif sample < 1:
        raise ValueError(f"sample must be at least 1, not {sample}")

    bits = Bits(G)
    verts = bits.verts
    if sample is None:
        bits.geo = bits.geodesics()
        # the pairings of every 2k-subset, as positions in it
        shapes = list(all_pairings(range(2 * k)))

        def instances():
            for X in itertools.combinations(range(n), 2 * k):
                free = bits.full & ~sum(1 << i for i in X)
                for shape in shapes:
                    ps = [(X[i], X[j]) for i, j in shape]
                    yield ([(verts[a], verts[b]) for a, b in ps], ps,
                           [free | 1 << a | 1 << b for a, b in ps])
    else:
        import random

        rng = random.Random(seed)

        def instances():
            for _ in range(sample):
                X = rng.sample(verts, 2 * k)
                rng.shuffle(X)
                pairs = [(X[2 * i], X[2 * i + 1]) for i in range(k)]
                yield (pairs, *bits.pair_masks(pairs, ()))

    budget = oracle_timeout_ms() / 1000.0
    for pairs, ps, frees in instances():
        rep.total += 1
        kind = detector(pairs) if detector else None
        deadline = time.monotonic() + budget
        try:
            linked = _linkable_masks(bits, ps, frees, deadline) is not None
        except OracleTimeout:
            rep.timeouts += 1
            continue
        if linked:
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


def _key_candidates(d, pairs):
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
    for t, perms in _key_candidates(d, pairs):
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
