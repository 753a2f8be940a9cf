"""Disjoint-path primitives over plain adjacency dicts and a bitset router.

A graph here is a dict mapping each vertex to an iterable of neighbours
(undirected: both directions present).  A path is a list of vertices.
Menger routing (disjoint_paths) routes every vertex of A into B by
vertex-disjoint paths or raises Cut with a separator smaller than |A|.
Its max-flow keeps the flow per vertex (the vertices that carry it and one
successor per vertex), never builds the vertex-split network, and reads
each row of G at most once per call, so it runs on graphs computed on
access.  Each augmenting search stops as soon as it reaches a free vertex
of B, which gives the path a search run to the sink would give and reads
no row past it.  Everything is deterministic: neighbours are scanned in
sorted order so repeated runs produce identical certificates.

The router (`Bits`) indexes the vertices in sorted order, keeps each
vertex's neighbours as one int mask, and answers every reachability
question with one flood fill on those ints, `Bits.route`: the mask of a
shortest path it returns is 0 exactly when the ends are cut off.  Tables
that answer many instances (an exhaustive census, the cube bases' Q_d,
d <= 4) also hold a geodesic table (`Bits.geodesics`), off which `route`
reads the full graph's shortest path, with no flood, whenever that path
avoids every vertex the caller has taken: the flood's own answer, so no
verdict, certificate or census count depends on the table.
"""

from __future__ import annotations

from collections import deque

from .errors import NoPath

# the bit tables hold one |V|-bit mask per vertex, about |V|^2 / 8 bytes:
# 32 MB at 2^14 vertices, 0.5 GB at 2^16
MAX_SEARCH_VERTICES = 1 << 14


class Cut(Exception):
    """Raised by disjoint_paths when A cannot be routed into B.

    Carries a vertex separator of size < |A| cutting A from B.
    """

    def __init__(self, separator):
        super().__init__(f"A-B separator of size {len(separator)}")
        self.separator = sorted(separator)


def shortest_path(G, s, t, forbidden=()):
    """Deterministic BFS shortest s-t path avoiding `forbidden` (inner or not).

    s and t themselves are never treated as forbidden.  Raises NoPath.
    """
    forbidden = set(forbidden) - {s, t}
    if s == t:
        return [s]
    prev = {s: None}
    q = deque([s])
    while q:
        u = q.popleft()
        for w in sorted(G[u]):
            if w in prev or w in forbidden:
                continue
            prev[w] = u
            if w == t:
                path = [t]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                return path[::-1]
            q.append(w)
    raise NoPath(f"no {s}-{t} path avoiding {len(forbidden)} vertices")


def reachable(G, sources, forbidden=()):
    """Set of vertices reachable from `sources` without entering `forbidden`."""
    forbidden = set(forbidden)
    seen = set(s for s in sources if s not in forbidden)
    q = deque(seen)
    while q:
        u = q.popleft()
        for w in G[u]:
            if w not in seen and w not in forbidden:
                seen.add(w)
                q.append(w)
    return seen


def _menger_flow(G, A, B, need, forbidden):
    """Unit-capacity vertex-splitting max-flow for vertex-disjoint A-B paths
    (Menger; Even and Tarjan 1975).

    Each vertex v is split into an in-copy and an out-copy joined by an arc
    of capacity 1; edges run from out-copies to in-copies, a source feeds
    the in-copies of A and the out-copies of B feed a sink.  A path enters
    no vertex of A and stops at its first vertex of B.  At unit vertex
    capacity at most one unit leaves an out-copy and at most one enters an
    in-copy, so the flow is kept per vertex: `used`, the vertices that
    carry it, and the edge arcs as nxt[v] = w with prv[w] = v.  A source or
    sink arc carries flow exactly when its vertex is used.

    Augmenting paths are found by BFS from the source: unused sources in
    sorted order, then from each node its forward arcs before its backward
    ones, neighbours in sorted order.  Reached copies are kept in two maps:
    prev0[w] = v when w's in-copy was reached from v's out-copy (v == w
    undoes w's vertex arc, None is the source), and prev1[v] = w when v's
    out-copy was reached from w's in-copy (w == v is v's vertex arc).
    Each row of G is read and sorted at most once per call, when the
    search first leaves that vertex's out-copy.

    A search stops at the first in-copy it queues (sources first) of a
    vertex w in B that is not used: w's vertex and sink arcs are free, so
    it augments along prev0[w], w's vertex arc and w's sink arc.  Run on, the search would
    find that same path.  An out-copy of a vertex of B is queued only from
    its own unused in-copy, since a used in-copy undoes the arc into it
    from prv[w] and a flow path never leaves a vertex of B.  The queue is
    first in, first out, so w's out-copy would be the first of them popped,
    and the reached maps never change an entry once set.  A failed search
    queues no such in-copy, so it explores the same copies and gives the
    same cut.

    Returns (flow_value, nxt, None) when `need` units flow, else
    (flow_value, nxt, (prev0, prev1)) for the last, failed search.
    """
    A, B = set(A), set(B)
    forbidden = set(forbidden)
    starts = sorted(A - forbidden)
    blocked = A | forbidden  # no edge enters these
    rows = {}
    used, nxt, prv = set(), {}, {}
    value = 0
    while value < need:
        prev0 = {a: None for a in starts if a not in used}
        prev1 = {}
        end = next((a for a in prev0 if a in B), None)
        q = deque() if end is not None else deque((a, 0) for a in prev0)
        while q:
            v, side = q.popleft()
            if side == 0:
                if v not in used:
                    prev1[v] = v
                    q.append((v, 1))
                else:
                    # undo the edge into v; a used source has none
                    u = prv.get(v)
                    if u is not None and u not in prev1:
                        prev1[u] = v
                        q.append((u, 1))
                continue
            row = rows.get(v)
            if row is None:
                row = rows[v] = [w for w in sorted(G[v]) if w not in blocked]
            for w in row:
                if w not in prev0:
                    prev0[w] = v
                    if w in B and w not in used:
                        end = w
                        break
                    q.append((w, 0))
            if end is not None:
                break
            if v in used and v not in prev0:
                prev0[v] = v
                q.append((v, 0))
        if end is None:
            return value, nxt, (prev0, prev1)
        prev1[end] = end
        # augment, walking back from the sink: a step out of a node is met
        # before the step into it, so an edge arc being undone may already
        # have been replaced by a new one from the same vertex
        v = end
        while True:
            w = prev1[v]
            if w == v:
                used.add(v)
            else:
                if nxt.get(v) == w:
                    del nxt[v]
                if prv.get(w) == v:
                    del prv[w]
            u = prev0[w]
            if u is None:
                break
            if u == w:
                used.discard(w)
            else:
                nxt[u] = w
                prv[w] = u
            v = u
        value += 1
    return value, nxt, None


def disjoint_paths(G, A, B, forbidden=()):
    """One path from every vertex of A into B, pairwise vertex-disjoint and
    avoiding `forbidden` (Menger routing).

    Each path meets A only at its first vertex and B only at its last.
    Vertices in both A and B become length-0 paths first.  Raises Cut with a
    separator of size < |A| when no such paths exist, as when |B| < |A|.
    Returns a list of paths; an empty A returns [].
    """
    A, B = set(A), set(B)
    forbidden = set(forbidden)
    if forbidden & (A | B):
        raise ValueError("forbidden overlaps terminals")
    shared = A & B
    paths = [[v] for v in sorted(shared)]
    A2, B2 = A - shared, B - shared
    if not A2:
        return paths
    _, nxt, reached = _menger_flow(G, A2, B2, len(A2), forbidden | shared)
    if reached is not None:
        # min cut across the residual boundary, one vertex per saturated arc
        prev0, prev1 = reached
        cut = {v for v in prev0 if v not in prev1}
        cut |= {a for a in A2 if a not in prev0}
        cut |= {b for b in B2 if b in prev1}
        raise Cut(cut | shared)
    for a in sorted(A2):
        p = [a]
        while p[-1] not in B2:
            p.append(nxt[p[-1]])
        paths.append(p)
    return paths


def validate_linkage(G, pairs, paths, avoid=()):
    """Check that `paths` is a Y-linkage for `pairs` avoiding `avoid`.

    Returns (True, "ok") or (False, first violation).  Report-only.  A
    graph with a `has_edge(a, b)` method, as `hypercube.CubeAdjacency` has,
    answers the edge test without building the row of a.
    """
    if len(paths) != len(pairs):
        return False, f"expected {len(pairs)} paths, got {len(paths)}"
    has_edge = getattr(G, "has_edge", None)
    avoid = set(avoid)
    seen = set()
    for i, ((s, t), p) in enumerate(zip(pairs, paths)):
        if not p:
            return False, f"path {i} empty"
        if (p[0], p[-1]) not in ((s, t), (t, s)):
            return False, f"path {i} joins {p[0]}-{p[-1]}, wanted {sorted((s, t))}"
        vs = set(p)
        if len(vs) != len(p):
            return False, f"path {i} repeats a vertex"
        for a, b in zip(p, p[1:]):
            if not (has_edge(a, b) if has_edge else b in G[a]):
                return False, f"path {i} uses non-edge {a}-{b}"
        if not seen.isdisjoint(vs):
            return False, f"paths share vertex {min(seen & vs)}"
        if not avoid.isdisjoint(vs):
            return False, f"path {i} meets avoided vertex {min(avoid & vs)}"
        seen |= vs
    return True, "ok"


class Bits:
    """Bit tables of one graph: vertex i of the sorted vertex list is the
    bit 1 << i, and nbr[i] is the mask of its neighbours.  A graph of more
    than MAX_SEARCH_VERTICES vertices raises ValueError before anything is
    built."""

    def __init__(self, G):
        if len(G) > MAX_SEARCH_VERTICES:
            raise ValueError(f"oracle searches hold at most "
                             f"{MAX_SEARCH_VERTICES} vertices, not {len(G)}")
        self.verts = sorted(G)
        self.index = index = {v: i for i, v in enumerate(self.verts)}
        self.nbr = []
        for v in self.verts:
            m = 0
            for w in G[v]:
                m |= 1 << index[w]
            self.nbr.append(m)
        self.full = (1 << len(self.verts)) - 1
        self.geo = None  # geodesics(), on tables that answer many instances

    def geodesics(self):
        """geo[a][b], by index, a != b: the mask that route(a, b, full)
        returns.

        One breadth-first search per vertex a.  A vertex's path is its
        parent's path plus itself, the parent being its least neighbour on
        the previous level: the vertex that route's walk-back takes.  The
        table holds |V|^2 masks, so only bit tables that answer many
        instances build it."""
        nbr, n, geo = self.nbr, len(self.nbr), []
        for a in range(n):
            path = [0] * n
            path[a] = seen = level = 1 << a
            while level:
                prev, new = level, 0
                while level:
                    low = level & -level
                    new |= nbr[low.bit_length() - 1]
                    level ^= low
                level = rest = new & ~seen
                seen |= level
                while rest:
                    low = rest & -rest
                    rest ^= low
                    v = low.bit_length() - 1
                    back = nbr[v] & prev
                    path[v] = path[(back & -back).bit_length() - 1] | low
            geo.append(path)
        return geo

    def mask(self, vs):
        index, m = self.index, 0
        for v in vs:
            if v in index:
                m |= 1 << index[v]
        return m

    def route(self, a, b, free):
        """The vertex mask of a shortest path from vertex a to vertex b
        through the mask `free`, a and b included; 0 when b is cut off.  It
        floods from a, level by level, and walks back from b, taking the
        least vertex of each level that is adjacent to the one after it.

        With a geodesic table (`geo`), the full graph's path geo[a][b] is
        returned with no flood when it lies inside free | a | b.  That is
        the flood's own answer: the path keeps its length, so each of its
        vertices keeps its level, and a neighbour of one on the flood's
        previous level was on the full graph's too, so the least such
        neighbour is still the path's."""
        nbr, goal = self.nbr, 1 << b
        if self.geo is not None:
            path = self.geo[a][b]
            if not path & ~(free | 1 << a | goal):
                return path
        front = 1 << a
        free &= ~front
        levels = []
        while front:
            levels.append(front)
            new = 0
            while front:
                low = front & -front
                new |= nbr[low.bit_length() - 1]
                front ^= low
            if new & goal:
                path, v = goal, b
                for level in reversed(levels):
                    back = nbr[v] & level
                    low = back & -back
                    path |= low
                    v = low.bit_length() - 1
                return path
            front = new & free
            free ^= front
        return 0

    def pair_masks(self, pairs, avoid):
        """Per pair (a, b) by index, the vertices its path may use: neither
        avoided nor a terminal of another pair."""
        index = self.index
        ps = [(index[s], index[t]) for s, t in pairs]
        free = self.full & ~self.mask(avoid)
        for a, b in ps:
            free &= ~(1 << a | 1 << b)
        return ps, [free | 1 << a | 1 << b for a, b in ps]

    def cut_off(self, ps, frees, taken):
        """Whether a pair of ps is cut off once the vertices `taken` are."""
        for (a, b), free in zip(ps, frees):
            if not self.route(a, b, free & ~taken):
                return True
        return False

    def shortest_linkage(self, ps, frees):
        """Route each pair in turn along a BFS-shortest path (`route`)
        through its free mask minus the earlier paths: the path masks in
        pair order, or None when a pair is cut off."""
        used, masks = 0, []
        for (a, b), free in zip(ps, frees):
            path = self.route(a, b, free & ~used)
            if not path:
                return None
            used |= path
            masks.append(path)
        return masks

    def walk(self, a, b, mask):
        """The path, as vertices, from index a to index b through the
        vertex mask of an induced path: each step has one neighbour left
        in the mask."""
        nbr, verts = self.nbr, self.verts
        path, u = [verts[a]], a
        mask &= ~(1 << a)
        while u != b:
            step = nbr[u] & mask
            mask ^= step
            u = step.bit_length() - 1
            path.append(verts[u])
        return path
