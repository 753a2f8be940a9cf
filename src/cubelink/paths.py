"""Disjoint-path primitives over plain adjacency dicts.

A graph here is a dict mapping each vertex to an iterable of neighbours
(undirected: both directions present).  A path is a list of vertices.
Menger routing (disjoint_paths) routes every vertex of A into B by
vertex-disjoint paths or raises Cut with a separator smaller than |A|.
Everything is deterministic: neighbours are scanned in sorted order so
repeated runs produce identical certificates.
"""

from __future__ import annotations

from collections import deque

from .errors import NoPath


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


_SRC, _SNK = ("#src",), ("#snk",)


def _menger_flow(G, A, B, need, forbidden):
    """Unit-capacity vertex-splitting max-flow for vertex-disjoint A-B paths.

    Nodes are (v, 0) = in-copy and (v, 1) = out-copy plus source/sink
    sentinels.  Vertex arcs (v,0)->(v,1) and terminal arcs have capacity 1;
    edge arcs (v,1)->(w,0) are uncuttable (capacity 2 suffices at unit vertex
    capacity).  The network is never stored: a node's arcs are read off G
    when the search reaches it, arcs with room first, then arcs whose flow
    can be undone, each in sorted vertex order.

    Returns (flow_value, flow on the arcs that carry it,
    residual_reachable_or_None).
    """
    A, B = set(A), set(B)
    forbidden = set(forbidden)

    def arcs(u):
        """u's arcs out, as (head, capacity), and the tails of its arcs in."""
        if u == _SRC:
            return [((a, 0), 1) for a in sorted(A - forbidden)], ()
        v, side = u
        if side == 0:
            return [((v, 1), 1)], (() if v in A else
                                   [(w, 1) for w in sorted(G[v])])
        if v in B:
            # a path stops at its first B-vertex
            return [(_SNK, 1)], [(v, 0)]
        # A-vertices are sources only: no arcs back into them
        return [((w, 0), 2) for w in sorted(G[v])
                if w not in forbidden and w not in A], [(v, 0)]

    flow, value = {}, 0
    while value < need:
        prev = {_SRC: None}
        q = deque([_SRC])
        while q and _SNK not in prev:
            u = q.popleft()
            out, into = arcs(u)
            for w, cap in out:
                if w not in prev and flow.get((u, w), 0) < cap:
                    prev[w] = (u, 1)
                    if w == _SNK:
                        break
                    q.append(w)
            else:
                for w in into:
                    if w not in prev and flow.get((w, u)):
                        prev[w] = (u, -1)
                        q.append(w)
        if _SNK not in prev:
            return value, flow, set(prev)
        node = _SNK
        while node != _SRC:
            u, step = prev[node]
            arc = (u, node) if step > 0 else (node, u)
            flow[arc] = flow.get(arc, 0) + step
            if not flow[arc]:
                del flow[arc]
            node = u
        value += 1
    return value, flow, None


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
    value, flow, reached = _menger_flow(G, A2, B2, len(A2),
                                        forbidden | shared)
    if reached is not None:
        # min cut across the residual boundary, one vertex per saturated arc
        cut = {v for v, side in reached - {_SRC}
               if side == 0 and (v, 1) not in reached}
        cut |= {a for a in A2 if (a, 0) not in reached}
        cut |= {b for b in B2 if (b, 1) in reached}
        raise Cut(cut | shared)
    # decompose the flow into paths, each step taking the least head by str
    heads = {}
    for (u, w), f in flow.items():
        heads.setdefault(u, []).extend([w] * f)
    for hs in heads.values():
        hs.sort(key=str, reverse=True)
    paths2 = []
    for _ in range(value):
        node, p = heads[_SRC].pop(), []
        while node != _SNK:
            if node[1] == 0:
                p.append(node[0])
            node = heads[node].pop()
        paths2.append(p)
    return paths + sorted(paths2)


def validate_linkage(G, pairs, paths, avoid=()):
    """Check that `paths` is a Y-linkage for `pairs` avoiding `avoid`.

    Returns (True, "ok") or (False, first violation).  Report-only.
    """
    if len(paths) != len(pairs):
        return False, f"expected {len(pairs)} paths, got {len(paths)}"
    avoid = set(avoid)
    seen = set()
    for i, (pair, p) in enumerate(zip(pairs, paths)):
        if not p:
            return False, f"path {i} empty"
        if {p[0], p[-1]} != set(pair):
            return False, f"path {i} joins {p[0]}-{p[-1]}, wanted {sorted(pair)}"
        if len(set(p)) != len(p):
            return False, f"path {i} repeats a vertex"
        for a, b in zip(p, p[1:]):
            if b not in G[a]:
                return False, f"path {i} uses non-edge {a}-{b}"
        overlap = seen & set(p)
        if overlap:
            return False, f"paths share vertex {sorted(overlap)[0]}"
        hit = avoid & set(p)
        if hit:
            return False, f"path {i} meets avoided vertex {sorted(hit)[0]}"
        seen |= set(p)
    return True, "ok"
