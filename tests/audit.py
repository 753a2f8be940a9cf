"""Brute-force auditors, called only by the tests, for the structure the
solvers rely on: a graph that counts its row reads; distances,
connectivity, internally disjoint paths, the tuple-node Menger router,
separators, complexes with the star, antistar and link algebra of the
paper's lemmas, the facets' closure under intersection, cube faces
and their per-bit maps onto smaller cubes, the per-face cube certificate,
the cube symmetry key and the unpruned oracle; the paper's vertex-link
facets; the ridge-by-ridge star injection; capped polytopes and
zonotopes, cubical hosts that are not cubes; and the square grids on a
torus or a Klein bottle, which are no polytopes."""

import itertools
import time
from collections import Counter, deque
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property

from cubelink import complexes
from cubelink.complexes import (Polytope, _check_incidence, _vertex_bits,
                                build_cube_polytope, build_from_incidence)
from cubelink.errors import (CaseNotCovered, InconsistentIncidence, NoPath,
                             NotCubical, OracleTimeout)
from cubelink.hypercube import CubeFace, _check_dim, cube_graph, vertex_to_str
from cubelink.linkage.star import far_ridge
from cubelink.paths import Cut, _menger_flow, reachable, shortest_path


class CountingGraph(Mapping):
    """A graph that counts how often each row G[v] is read."""

    def __init__(self, G):
        self.G = G
        self.reads = Counter()

    def __getitem__(self, v):
        self.reads[v] += 1
        return self.G[v]

    def __iter__(self):
        return iter(self.G)

    def __len__(self):
        return len(self.G)


def is_path(G, p) -> bool:
    if len(set(p)) != len(p):
        return False
    return all(p[i + 1] in G[p[i]] for i in range(len(p) - 1))


def x_valid_path(G, s, t, X):
    """Shortest s-t path with no inner vertex in the terminal set X."""
    return shortest_path(G, s, t, set(X) - {s, t})


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


def internally_disjoint_count(G, s, t):
    """Number of internally disjoint s-t paths, s != t: N(s) - t routed into
    N(t) - s past s and t, plus the s-t edge counted once."""
    value, _, _ = _menger_flow(G, set(G[s]) - {t}, set(G[t]) - {s}, len(G),
                               {s, t})
    return value + (t in G[s])


def min_vertex_cut_value(G, s, t):
    """Size of a minimum vertex cut between non-adjacent s and t, which is
    the number of internally disjoint s-t paths (Menger)."""
    if t in G[s]:
        raise ValueError("adjacent vertices have no separating cut")
    return internally_disjoint_count(G, s, t)


def vertex_connectivity(G) -> int:
    """Exact vertex connectivity via max-flow over non-adjacent pairs.

    Test-only auditor; desk-scale graphs only.
    """
    verts = sorted(G)
    n = len(verts)
    if n <= 1:
        return 0
    best = n - 1
    # fix one vertex, pair against all non-neighbours; then pairs among N(v0)
    v0 = verts[0]
    others = [v for v in verts[1:] if v not in G[v0]]
    if not others and all(set(G[v]) >= set(verts) - {v} for v in verts):
        return n - 1  # complete graph
    for t in others:
        best = min(best, min_vertex_cut_value(G, v0, t))
    for s in sorted(G[v0]):
        for t in verts:
            if t != s and t != v0 and t not in G[s] and s < t:
                best = min(best, min_vertex_cut_value(G, s, t))
    return best


_SRC, _SNK = ("#src",), ("#snk",)


def menger_flow_reference(G, A, B, need, forbidden):
    """Reference for paths._menger_flow: the same search over tuple nodes
    and a flow dict keyed by arc, whose flows the router must find.

    Unit-capacity vertex-splitting max-flow for vertex-disjoint A-B paths.

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


def disjoint_paths_reference(G, A, B, forbidden=()):
    """Reference for paths.disjoint_paths, over menger_flow_reference and
    its flow decomposition: the paths and separator the router must give.

    One path from every vertex of A into B, pairwise vertex-disjoint and
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
    value, flow, reached = menger_flow_reference(G, A2, B2, len(A2),
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


def evaluate_affine(coeffs, const, v):
    return sum(c for i, c in enumerate(coeffs) if (v >> i) & 1) + const


def linear_function_path(d, coeffs, const, u, v):
    """A u-v path in Q_d whose inner vertices x all satisfy f(x) > 0.

    f is the affine functional with the given coefficients and constant.
    Requires f(u) >= 0, f(v) >= 0, and f > 0 somewhere.  The contract is
    verified on the result; if the greedy construction fails, falls back to
    exhaustive search over {f > 0} plus the endpoints.
    """
    f = lambda x: evaluate_affine(coeffs, const, x)
    if f(u) < 0 or f(v) < 0:
        raise ValueError("endpoints must have f >= 0")
    G = cube_graph(d)
    if not any(f(x) > 0 for x in G):
        raise ValueError("f must be positive somewhere")
    if u == v:
        return [u]

    def climb(start):
        # strictly f-increasing walk until f > 0
        p = [start]
        while f(p[-1]) <= 0:
            nxt = max(sorted(G[p[-1]]), key=f)
            if f(nxt) <= f(p[-1]):
                return None
            p.append(nxt)
        return p

    pu, pv = climb(u), climb(v)
    if pu is not None and pv is not None:
        positive = {x for x in G if f(x) > 0} | {pu[-1], pv[-1]}
        try:
            mid = shortest_path(G, pu[-1], pv[-1],
                                set(G) - positive - set(pu) - set(pv))
            cand = pu + mid[1:]
            rest = pv[::-1]
            if cand[-1] == rest[0]:
                cand = cand + rest[1:]
            if _inner_positive(cand, f) and is_path(G, cand):
                return cand
        except NoPath:
            pass
    # exhaustive fallback over the positive region plus endpoints
    allowed = {x for x in G if f(x) > 0} | {u, v}
    sub = {x: [w for w in G[x] if w in allowed] for x in allowed}
    path = shortest_path(sub, u, v)
    if not _inner_positive(path, f):  # kept under python -O
        raise AssertionError(f"path {path} leaves the positive region")
    return path


def _inner_positive(path, f):
    return all(f(x) > 0 for x in path[1:-1])


def separator_census(d):
    """Exhaustively verify the structure of minimum separators of Q_d.

    Every size-d separator must be the neighbourhood N(v) of some vertex, be
    an independent set, and leave exactly two components, one of them {v}.
    Returns a dict report; d <= 4.
    """
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


def _host_graph(D, v, vo):
    """The graph of the link of v in Q_D: Q_D without v and vo."""
    G = cube_graph(D)
    return {u: tuple(w for w in G[u] if w not in (v, vo))
            for u in G if u not in (v, vo)}


def _vertices(x):
    """A vertex or a face, as a set of vertices."""
    return frozenset(x) if isinstance(x, (set, frozenset)) else {x}


class Complex(complexes.Complex):
    """The runtime Complex with the algebra of the paper's lemmas: boundary,
    dimension, purity, star, antistar, link, restriction to a vertex set,
    and strong connectivity through the dual graph.  Complexes with the
    same host and faces are equal."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    @classmethod
    def boundary(cls, host):
        return cls(host, frozenset(host.proper_faces))

    def _keep(self, keep):
        """The faces that pass the filter `keep`, as a complex."""
        return type(self)(self.host, frozenset(filter(keep, self.faces)))

    @property
    def dim(self):
        return max(map(self.host.face_dim.__getitem__, self.faces), default=-1)

    def maximal_faces(self):
        return sorted((f for f in self.faces
                       if not any(f < g for g in self.faces)), key=sorted)

    def is_pure(self):
        d = self.dim
        return all(self.host.face_dim[f] == d for f in self.maximal_faces())

    def star(self, x):
        """Faces containing x, plus their subfaces.  x is a vertex or face."""
        xs = _vertices(x)
        gens = [f for f in self.faces if xs <= f]
        return self._keep(lambda g: any(g <= f for f in gens))

    def antistar(self, X):
        """The faces disjoint from X, a vertex or a vertex set."""
        X = _vertices(X)
        return self._keep(lambda f: not f & X)

    def link(self, x):
        return self.star(x).antistar(x)

    def restrict_to_vertices(self, V):
        V = set(V)
        return self._keep(lambda f: f <= V)

    def dual_graph(self):
        """Facet adjacency: two maximal faces joined iff their intersection
        is a ridge (a (dim-1)-face) of this complex."""
        facets, dim = self.maximal_faces(), self.host.face_dim
        want = self.dim - 1
        return {f: [g for g in facets if g != f and f & g in self.faces
                    and dim[f & g] == want] for f in facets}

    def is_strongly_connected(self):
        if not self.faces or not self.is_pure():
            return False
        adj = self.dual_graph()
        return len(reachable(adj, list(adj)[:1])) == len(adj)


def star_complex(P: Polytope, v) -> Complex:
    """complexes.star_complex, as an audit Complex."""
    return Complex.generated_by(P, P.facets_containing((v,)))


def antistar_complex(P: Polytope, X) -> Complex:
    return Complex.boundary(P).antistar(X)


def link_complex(P: Polytope, v) -> Complex:
    return Complex.boundary(P).link(v)


def technical_decomposition(P: Polytope, s1, s2, F1, F12):
    """The star-of-two-vertices decomposition with its spanning subcomplex.

    Given adjacent-star data (s2 in star(s1); facet F1 containing s1 but not
    s2; facet F12 containing both), returns a dict with:
      S12: star of s2 inside star(s1)        (strongly connected, dim d-1)
      A1:  antistar of F1 in star(s1)        (strongly connected, dim d-1)
      A12: S12 induced away from F1 and F12  (dim d-2)
      C:   spanning strongly connected (d-3)-subcomplex of A12, built
           facet-by-facet: for each facet F != F12 of S12, the antistar of
           F∩F1 in F is a union of ridges R_i of F avoiding F1; each
           contributes its boundary stripped of F12's vertices.
    C is None when S12 has a single facet (the decomposition degenerates).
    """
    F1, F12 = frozenset(F1), frozenset(F12)
    if s1 not in F1 or s2 in F1:
        raise ValueError("F1 must contain s1 and avoid s2")
    if not {s1, s2} <= F12:
        raise ValueError("F12 must contain s1 and s2")
    S1 = star_complex(P, s1)
    S12_facets = P.facets_containing((s1, s2))
    S12 = Complex.generated_by(P, S12_facets)
    A1 = S1.antistar(F1)
    A12 = S12.restrict_to_vertices(S12.vertex_set() - F1 - F12)
    if len(S12_facets) <= 1:
        return {"S12": S12, "A1": A1, "A12": A12, "C": None}
    C_faces = set()
    for F in S12_facets:
        if F == F12:
            continue
        for R in P.ridges_of_facet(F):
            if R & F1:
                continue
            # boundary of R minus the vertices of F12
            C_faces.update(g for g in P.proper_faces
                           if g < R and not (g & F12))
    C = Complex(P, frozenset(C_faces))
    return {"S12": S12, "A1": A1, "A12": A12, "C": C}


def projections_star_injection_reference(P, s, F, trace=()):
    """The standard injection V(F) minus the antipode of s into the antistar.

    Built ridge by ridge: each ridge of F through s is pushed through the
    neighbouring facet onto its opposite ridge, first-come first-served in
    lexicographic ridge order.  Every image is a neighbour of its preimage
    outside F.  A map that is not such an injection raises CaseNotCovered.
    """
    F = frozenset(F)
    so = P.opposite_in_face(F, s)
    ridges = [R for R in P.ridges_of_facet(F) if s in R]
    f = {}
    for R in ridges:
        J, Ro = far_ridge(P, R, F)
        for v in sorted(R):
            if v not in f:
                f[v] = P.project_in_face(J, Ro, v)
    images = set(f.values())
    if set(f) != F - {so} or len(images) != len(f) or images & F:
        raise CaseNotCovered("projections do not inject the facet into the "
                             "antistar", trace=list(trace))
    return f


def all_faces(d: int, dim: int) -> list[CubeFace]:
    """All faces of Q_d of a given dimension, in canonical order."""
    _check_dim(d)
    if not 0 <= dim <= d:
        raise ValueError("face dimension out of range")
    out = []
    for fixed in itertools.combinations(range(d), d - dim):
        mask = sum(1 << i for i in fixed)
        for bits in range(1 << len(fixed)):
            values = 0
            for j, i in enumerate(fixed):
                if (bits >> j) & 1:
                    values |= 1 << i
            out.append(CubeFace(d, mask, values))
    return sorted(out)


def face_maps_reference(K: CubeFace):
    """(compress, expand) between V(K) and the dim(K)-cube for any face K,
    one free axis at a time: free axis number j becomes bit j."""
    free = [i for i in range(K.d) if (K.free_mask >> i) & 1]

    def compress(v):
        out = 0
        for j, i in enumerate(free):
            if (v >> i) & 1:
                out |= 1 << j
        return out

    def expand(w):
        v = K.fixed_values
        for j, i in enumerate(free):
            if (w >> j) & 1:
                v |= 1 << i
        return v

    return compress, expand


def _apply_perm(v, perm):
    out = 0
    for i, p in enumerate(perm):
        if (v >> i) & 1:
            out |= 1 << p
    return out


def apply_cube_map(v, d, tmap):
    """Apply the (translate, permute) map returned by cube_instance_key;
    invert_cube_map undoes it."""
    t, perm = tmap
    return _apply_perm(v ^ t, perm)


def invert_cube_map(v, d, tmap):
    """Undo apply_cube_map: the vertex that the map sends to v, by the
    inverse permutation, then the translation."""
    t, perm = tmap
    return _apply_perm(v, sorted(range(d), key=perm.__getitem__)) ^ t


def brute_cube_instance_key(d, pairs, x=None):
    """Reference for oracle.cube_instance_key: the least key over every
    anchor and every axis permutation, by bit loops, first minimum kept."""
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


def link_reference(D: int, v: int) -> Polytope:
    """Reference for complexes.link_polytope: the vertex link of v in Q_D
    from the paper's facets, built alone.  They are the cube's ridges that
    fix two coordinates, exactly one of which agrees with v (each lies in
    one star facet of v and one antistar facet)."""
    vo = v ^ ((1 << D) - 1)
    verts = [x for x in range(1 << D) if x not in (v, vo)]
    facets = []
    for i in range(D):
        for j in range(i + 1, D):
            for ai, aj in (((v >> i) & 1, 1 - ((v >> j) & 1)),
                           (1 - ((v >> i) & 1), (v >> j) & 1)):
                facets.append({x for x in verts
                               if (x >> i) & 1 == ai and (x >> j) & 1 == aj})
    labels = {x: vertex_to_str(x, D) for x in verts}
    return Polytope(D - 1, verts, facets, labels=labels)


def cap(P: Polytope, F) -> Polytope:
    """P with a cube pasted onto its facet F: F's vertices are copied, the
    copy replaces F, and each ridge R of F gives the facet R u R' (Bui,
    Pineda-Villavicencio and Ugon, Connectivity of cubical polytopes)."""
    F = frozenset(F)
    start = max(P.vertices) + 1
    twin = {v: start + i for i, v in enumerate(sorted(F))}
    facets = [f for f in P.facets if f != F] + [frozenset(twin.values())]
    facets += [R | {twin[v] for v in R} for R in P.ridges_of_facet(F)]
    return Polytope(P.dim, P.vertices + sorted(twin.values()), facets)


def _det(rows):
    """The exact determinant of a square matrix, by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def zonotope(d, n) -> Polytope:
    """The cubical zonotope Z(d, n), the sum of n segments whose generators
    lie on the moment curve, (1, t, ..., t^(d-1)) for t = 1..n (Ziegler,
    Lectures on Polytopes, Lecture 7).  Each (d-1)-subset S of generators
    spans a hyperplane with cofactor normal c, which gives two facets: the
    signs off S are fixed to +-sign(c . g), the signs on S are free.  Vertex
    ids index the sign vectors in sorted order."""
    gens = [[t ** k for k in range(d)] for t in range(1, n + 1)]
    facets = []
    for S in itertools.combinations(range(n), d - 1):
        rows = [gens[j] for j in S]
        c = [(-1) ** k * _det([r[:k] + r[k + 1:] for r in rows])
             for k in range(d)]
        side = {j: 1 if sum(a * b for a, b in zip(c, gens[j])) > 0 else -1
                for j in range(n) if j not in S}
        for sign in (1, -1):
            face = []
            for free in itertools.product((-1, 1), repeat=d - 1):
                v = dict(zip(S, free))
                v.update((j, sign * e) for j, e in side.items())
                face.append(tuple(v[j] for j in range(n)))
            facets.append(face)
    verts = sorted({v for f in facets for v in f})
    index = {v: i for i, v in enumerate(verts)}
    return build_from_incidence(d, len(verts),
                                [[index[v] for v in f] for f in facets])


def glued_along_a_facet(d):
    """(vertex count, facets) of two boundaries of Q_d that share their
    first facet F, vertices and all.  Every facet is a cube and every
    intersection of two a subcube, yet each ridge of F lies on three
    facets: F and its neighbour across the ridge in each copy."""
    facets = build_cube_polytope(d).to_json()["facets"]
    rest = iter(range(1 << d, 2 << d))
    twin = {v: v if v in facets[0] else next(rest) for v in range(1 << d)}
    return 3 << d - 1, facets + [[twin[v] for v in f] for f in facets]


def grid_surface(m, n, twist=False):
    """The facets of the m x n grid of squares with opposite sides glued,
    vertex (r, c) as n * r + c: the torus T(m, n), or with `twist` a Klein
    bottle, whose columns wrap with the rows reversed.  For m, n >= 4 both
    pass the cubical facet certificate, yet neither is a 2-sphere."""
    def v(r, c):
        if twist and c >= n:
            r = -r
        return n * (r % m) + c % n
    return [[v(r, c), v(r, c + 1), v(r + 1, c), v(r + 1, c + 1)]
            for r in range(m) for c in range(n)]


def embed_by_bfs(graph, f):
    """Certify the face graph is Q_j and embed it: canonical BFS
    relabeling from the least vertex, axes assigned to its neighbours in
    sorted order, every deeper vertex labelled by OR-ing its
    predecessors; then adjacency must match Hamming distance 1.  Raises
    NotCubical otherwise."""
    verts = sorted(f)
    adj = {v: [w for w in graph[v] if w in f] for v in verts}
    root = verts[0]
    j = len(adj[root])
    if len(f) != 1 << j:
        raise NotCubical(f"face size {len(f)} but degree {j}")
    coords = {root: 0}
    for i, w in enumerate(adj[root]):  # graph rows are sorted
        coords[w] = 1 << i
    dist = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    if len(dist) != len(f):
        raise NotCubical("face graph disconnected")
    for v in sorted(verts, key=dist.__getitem__):  # by (dist, v)
        if v in coords:
            continue
        preds = [coords[w] for w in adj[v] if w in coords]
        if len(preds) < 2:
            raise NotCubical("vertex with single predecessor")
        code = 0
        for p in preds:
            code |= p
        coords[v] = code
    if len(set(coords.values())) != len(f):
        raise NotCubical("coordinate collision")
    # codes are distinct, so the neighbour codes are exactly the j
    # Hamming-1 flips when there are j of them and each differs in one bit
    for v, nbrs in adj.items():
        c = coords[v]
        if len(nbrs) != j:
            raise NotCubical("adjacency not Hamming-1")
        for w in nbrs:
            x = coords[w] ^ c
            if x & (x - 1):
                raise NotCubical("adjacency not Hamming-1")
    return coords, j


def closure_by_intersection(P):
    """The face set as the facets' closure under pairwise intersection of
    the faces themselves, as a set: no order is promised."""
    faces = set(P.facets)
    frontier = set(P.facets)
    while frontier:
        new = set()
        for f in frontier:
            for g in P.facets:
                h = f & g
                if h and h not in faces:
                    new.add(h)
        faces |= new
        frontier = new
    return faces


class ReferencePolytope(Polytope):
    """Reference for Polytope's facet certificate: the facets' closed face
    lattice, whose 2-vertex faces are the edges, with every face embedded
    by its own BFS, every vertex a face and every facet as large as the
    largest.  It keeps Polytope's incidence checks (`_check_incidence`),
    index and face queries, not its certificate, ridge rule or faces, read
    off the facet embeddings: it closes the facets under intersection
    itself.  It is always built from an
    incidence alone."""

    @cached_property
    def face_facets(self):
        faces = sorted(closure_by_intersection(self),
                       key=lambda f: (len(f), sorted(f)))
        return {f: sum(1 << i for i, g in enumerate(self.facets) if f <= g)
                for f in faces}

    def __init__(self, dim, vertices, facets, labels=None):
        self._set_incidence(
            dim, vertices, _check_incidence(_vertex_bits(vertices), facets),
            labels)
        # the edges come in face order, each as (a, b) with a < b, so every
        # vertex meets its neighbours in sorted order
        graph = {v: [] for v in self.vertices}
        for f in self.proper_faces:
            if len(f) == 2:
                a, b = sorted(f)
                graph[a].append(b)
                graph[b].append(a)
        self.graph = {v: tuple(n) for v, n in graph.items()}
        for f in self.proper_faces:  # raises NotCubical on failure
            self._embed_cache[f] = embed_by_bfs(self.graph, f)
        n = len(max(self.facets, key=len))
        if any(len(F) != n for F in self.facets):
            raise NotCubical("facets are not cubes of one dimension")
        # a polygon's edges are cubes whatever their ends, so ask that each
        # vertex be a face, as the edges of a cube of dimension 2 or more
        # make it
        if any(frozenset((v,)) not in self._embed_cache
               for v in self.vertices):
            raise NotCubical("a vertex is no intersection of facets")
        if n.bit_length() - 1 != dim - 1:
            raise InconsistentIncidence(
                f"facets have dimension {n.bit_length() - 1}, "
                f"expected {dim - 1}")


def oracle_linkage_reference(G, pairs, avoid=(), deadline=None):
    """Reference for oracle.oracle_linkage: the set-based search without
    dead-branch pruning, whose verdict the oracle's must equal (the two may
    return different valid linkages).

    Exhaustive backtracking search for a vertex-disjoint Y-linkage.

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
