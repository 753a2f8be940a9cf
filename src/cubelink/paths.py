"""Disjoint-path primitives over plain adjacency dicts.

A graph here is a dict mapping each vertex to an iterable of neighbours
(undirected: both directions present).  A path is a list of vertices.
Everything is deterministic: neighbours are scanned in sorted order so
repeated runs produce identical certificates.
"""

from __future__ import annotations

from collections import deque

from .errors import NoPath


class Cut(Exception):
    """Raised by disjoint_paths when fewer than k paths exist.

    Carries a vertex separator of size < k witnessing the failure.
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


def distance(G, s, t, forbidden=()):
    """Steps on a shortest s-t path avoiding `forbidden`, or len(G) when
    there is none; s and t are never forbidden.  It equals
    len(shortest_path(...)) - 1 but only counts, level by level."""
    if s == t:
        return 0
    forbidden = set(forbidden) - {s, t}
    seen = {s} | forbidden
    level, steps = [s], 0
    while level:
        steps += 1
        nxt = []
        for u in level:
            for w in G[u]:
                if w == t:
                    return steps
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        level = nxt
    return len(G)


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


def _menger_flow(G, A, B, need, forbidden, acap=1, bcap=1):
    """Unit-capacity vertex-splitting max-flow for vertex-disjoint A-B paths.

    Nodes are (v, 0) = in-copy and (v, 1) = out-copy plus source/sink
    sentinels.  Vertex arcs (v,0)->(v,1) and terminal arcs have capacity 1;
    edge arcs (v,1)->(w,0) are uncuttable (capacity 2 suffices at unit vertex
    capacity).  Deterministic: arcs scanned in sorted vertex order.

    Returns (flow_value, flowed_arc_set, residual_reachable_or_None).
    """
    A, B = set(A), set(B)
    forbidden = set(forbidden)
    fwd = {_SRC: [(a, 0) for a in sorted(A) if a not in forbidden], _SNK: []}
    cap = {}
    for a in fwd[_SRC]:
        cap[(_SRC, a)] = acap
    for v in G:
        if v in forbidden:
            continue
        vin, vout = (v, 0), (v, 1)
        fwd[vin] = [vout]
        cap[(vin, vout)] = acap if v in A else (bcap if v in B else 1)
        if v in B:
            # a path stops at its first B-vertex
            fwd[vout] = [_SNK]
            cap[(vout, _SNK)] = bcap
            continue
        # A-vertices are sources only: no arcs back into them
        outs = [(w, 0) for w in sorted(G[v]) if w not in forbidden and w not in A]
        for w in outs:
            cap[(vout, w)] = 2
        fwd[vout] = outs
    rev = {n: [] for n in fwd}
    for u in fwd:
        for w in fwd[u]:
            rev[w].append(u)
    flow = {arc: 0 for arc in cap}

    value = 0
    while value < need:
        prev = {_SRC: None}
        q = deque([_SRC])
        while q and _SNK not in prev:
            u = q.popleft()
            for w in fwd[u]:
                if w not in prev and flow[(u, w)] < cap[(u, w)]:
                    prev[w] = u
                    if w == _SNK:
                        break
                    q.append(w)
            else:
                for w in rev[u]:
                    if w not in prev and flow[(w, u)] > 0:
                        prev[w] = (u, "back")
                        q.append(w)
        if _SNK not in prev:
            return value, flow, set(prev)
        node = _SNK
        while node is not None:
            p = prev[node]
            if isinstance(p, tuple) and len(p) == 2 and p[1] == "back":
                flow[(node, p[0])] -= 1
                node = p[0]
            else:
                if p is not None:
                    flow[(p, node)] += 1
                node = p
        value += 1
    return value, flow, None


def disjoint_paths(G, A, B, k, forbidden=()):
    """k vertex-disjoint A-B paths avoiding `forbidden` (Menger routing).

    Each path meets A only at its first vertex and B only at its last.
    Vertices in both A and B become length-0 paths first.  When |A| < k or
    |B| < k the scarce side is treated as a fan hub: paths may share that
    endpoint but are otherwise disjoint.  Raises Cut with a separator witness
    when no k such paths exist.  Returns a list of paths; k = 0 returns [].
    """
    A, B = set(A), set(B)
    forbidden = set(forbidden)
    if forbidden & (A | B):
        raise ValueError("forbidden overlaps terminals")
    shared = sorted(A & B)
    paths = [[v] for v in shared[:k]]
    need = k - len(paths)
    if need <= 0:
        return paths
    A2 = A - set(shared)
    B2 = B - set(shared)
    blocked = forbidden | set(shared)
    acap = k if len(A2) < need else 1
    bcap = k if len(B2) < need else 1
    value, flow, reached = _menger_flow(G, A2, B2, need, blocked, acap, bcap)
    if value < need:
        # min cut across the residual boundary, one vertex per saturated arc
        cut = {v for v in G if v not in blocked
               and (v, 0) in reached and (v, 1) not in reached}
        cut |= {a for a in A2 if (a, 0) not in reached}
        cut |= {b for b in B2 if (b, 1) in reached}
        cut |= set(shared)
        raise Cut(cut)
    # decompose flow into paths, consuming one unit per step
    left = {arc: f for arc, f in flow.items() if f > 0}

    def step(node):
        for w in sorted(left_keys.get(node, ()), key=str):
            if left.get((node, w), 0) > 0:
                left[(node, w)] -= 1
                return w
        raise AssertionError("flow decomposition stuck")

    left_keys = {}
    for (u, w) in left:
        left_keys.setdefault(u, []).append(w)
    paths2 = []
    for _ in range(value):
        node = step(_SRC)
        p = []
        while node != _SNK:
            if node[1] == 0:
                p.append(node[0])
            node = step(node)
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
