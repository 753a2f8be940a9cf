"""Independent checks of solver outputs.

Nothing here calls into cubelink.  Hosts are described by their geometry in
cube coordinates: a vertex is an int bitmask of Q_D, an edge joins two
vertices whose XOR is a single bit, and a facet is a (mask, values) pair of
fixed coordinates.

- The cube Q_D has 2D facets, each fixing one coordinate.
- The link of v in Q_D (a cubical (D-1)-polytope) drops v and its antipode.
  Its facets fix two coordinates, exactly one of which agrees with v.
"""

from __future__ import annotations

from itertools import combinations


def parse_label(label: str) -> int:
    """Bit string with coordinate 0 leftmost, as the CLI prints vertices."""
    if not label or set(label) - {"0", "1"}:
        raise ValueError(f"bad vertex label {label!r}")
    return sum(1 << i for i, c in enumerate(label) if c == "1")


def to_label(v: int, D: int) -> str:
    return "".join(str((v >> i) & 1) for i in range(D))


class Host:
    """A cube or a cube vertex link, with its facets in cube coordinates."""

    def __init__(self, D, link_vertex=None):
        self.D = D
        full = (1 << D) - 1
        if link_vertex is None:
            self.dim = D
            self.removed = frozenset()
            self.facets = [(1 << i, b << i) for i in range(D) for b in (0, 1)]
        else:
            v = link_vertex
            self.dim = D - 1
            self.removed = frozenset((v, v ^ full))
            self.facets = []
            for i, j in combinations(range(D), 2):
                vi, vj = (v >> i) & 1, (v >> j) & 1
                for ai, aj in ((vi, 1 - vj), (1 - vi, vj)):
                    self.facets.append(((1 << i) | (1 << j), (ai << i) | (aj << j)))
        self.vertices = [x for x in range(1 << D) if x not in self.removed]

    def has(self, x) -> bool:
        return isinstance(x, int) and 0 <= x < (1 << self.D) and x not in self.removed

    def edge(self, a, b) -> bool:
        x = a ^ b
        return self.has(a) and self.has(b) and x != 0 and x & (x - 1) == 0

    def facets_through(self, *vs):
        return [(m, val) for m, val in self.facets
                if all((x & m) == val for x in vs)]

    def facet_vertices(self, facet):
        m, val = facet
        return {x for x in self.vertices if (x & m) == val}

    def star_vertices(self, s1):
        out = set()
        for f in self.facets_through(s1):
            out |= self.facet_vertices(f)
        return out

    def as_facet(self, verts):
        """The facet whose vertex set is exactly `verts`, or None."""
        verts = set(verts)
        if not verts:
            return None
        for f in self.facets_through(*verts):
            if self.facet_vertices(f) == verts:
                return f
        return None


def linkage_error(host, pairs, paths, avoid=(), star_of=None):
    """None when `paths` is a linkage for `pairs` in `host`, else the reason.

    With `star_of`, every edge must also lie in a facet through that vertex,
    which is the graph of the star a star solver routes in.
    """
    if paths is None or len(paths) != len(pairs):
        return f"expected {len(pairs)} paths"
    avoid = set(avoid)
    used = set()
    for (s, t), p in zip(pairs, paths):
        if not p or {p[0], p[-1]} != {s, t}:
            return f"path does not join {s}-{t}"
        if len(set(p)) != len(p):
            return f"path {s}-{t} repeats a vertex"
        if any(not host.has(x) for x in p):
            return f"path {s}-{t} leaves the host"
        for a, b in zip(p, p[1:]):
            if not host.edge(a, b):
                return f"non-edge {a}-{b}"
            if star_of is not None and not host.facets_through(star_of, a, b):
                return f"edge {a}-{b} outside the star of {star_of}"
        if used & set(p):
            return "paths share a vertex"
        if avoid & set(p):
            return "path meets an avoided vertex"
        used |= set(p)
    return None


def witness_error(host, pairs, kind, facet, pair, blocking, star_of=None):
    """None when the obstruction witness holds where the paper allows one.

    config-3F blocks only 2 pairs in a 3-polytope; config-dF blocks only a
    linkage inside the star of `star_of`.  The face, the pair at facet
    diameter and the all-terminal neighbourhood of t1 are re-derived here.
    """
    X = {v for p in pairs for v in p}
    if kind == "config-3F":
        if host.dim != 3 or len(pairs) != 2:
            return f"config-3F in a {host.dim}-polytope with {len(pairs)} pairs"
        need = 4
    elif kind == "config-dF":
        if star_of is None:
            return "config-dF outside a star linkage"
        if pair[0] != star_of:
            return "config-dF witness pair does not start at the star centre"
        need = host.dim + 1
    else:
        return f"unknown obstruction kind {kind!r}"
    a, b = pair
    if (a, b) not in pairs and (b, a) not in pairs:
        return "witness pair is not an instance pair"
    F = host.as_facet(facet)
    if F is None:
        return "witness face is not a facet of the host"
    if len(X & set(facet)) < need:
        return "too few terminals in the witness facet"
    if any((x & F[0]) != F[1] for x in pair):
        return "witness pair leaves the witness facet"
    free = ((1 << host.D) - 1) & ~F[0]
    if (a ^ b) != free:
        return "witness pair is not at facet diameter"
    nbrs = sorted(b ^ (1 << i) for i in range(host.D) if (free >> i) & 1)
    if sorted(blocking) != nbrs:
        return "blocking set is not the facet neighbourhood of t1"
    if not set(nbrs) <= X:
        return "a facet neighbour of t1 is not a terminal"
    return None


def blocked_pairings(host):
    """Obstructed 2-pairings of a 3-polytope host: both diagonals of a facet."""
    return len(host.facets) if host.dim == 3 else 0

