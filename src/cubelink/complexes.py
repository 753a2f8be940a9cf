"""Abstract polytopal complexes from vertex-facet incidence.

A Polytope stores its full face lattice (faces as frozensets of vertex ids,
obtained by closing the facet list under pairwise intersection) plus the
graph.  Cubicality is certified by embedding every face as a combinatorial
cube (canonical BFS coordinate assignment); the embeddings double as the
bridge to the bit-level solvers in `hypercube`.

A Complex is a downward-closed set of faces of a host polytope, supporting
star / antistar / link, strong connectivity via the dual graph, and
facet-ridge paths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import InconsistentIncidence, NoPath, NotCubical
from .hypercube import cube_graph, vertex_to_str
from .paths import shortest_path, vertex_connectivity  # noqa: F401  (re-exported auditor)


class Polytope:
    """A cubical polytope given abstractly by its vertex-facet incidence."""

    def __init__(self, dim, vertices, facets, labels=None):
        self.dim = dim
        self.vertices = sorted(vertices)
        self.facets = sorted({frozenset(f) for f in facets}, key=sorted)
        self.labels = labels or {v: str(v) for v in self.vertices}
        self._embed_cache = {}
        self._build_lattice()
        self.cubical = False
        self._validate_cubical()

    # -- lattice -----------------------------------------------------------

    def _build_lattice(self):
        verts = set(self.vertices)
        if not self.facets or any(not f for f in self.facets):
            raise InconsistentIncidence("empty facet")
        cover = set().union(*self.facets)
        if cover != verts:
            raise InconsistentIncidence("facets do not cover the vertex set")
        for i, f in enumerate(self.facets):
            for g in self.facets[i + 1:]:
                if f <= g or g <= f:
                    raise InconsistentIncidence("facet contained in another facet")
        faces = set(self.facets)
        frontier = set(self.facets)
        while frontier:
            new = set()
            for f in frontier:
                for g in self.facets:
                    h = f & g
                    if h and h not in faces and h != f:
                        new.add(h)
            faces |= new
            frontier = new
        self.proper_faces = faces
        self.graph = {v: set() for v in self.vertices}
        for f in faces:
            if len(f) == 2:
                a, b = sorted(f)
                self.graph[a].add(b)
                self.graph[b].add(a)
        self.graph = {v: tuple(sorted(n)) for v, n in self.graph.items()}

    def _validate_cubical(self):
        self.face_dim = {}
        by_dim = {}
        for f in self.proper_faces:
            n = len(f)
            j = n.bit_length() - 1
            if n != 1 << j:
                raise NotCubical(f"face with {n} vertices", face=sorted(f))
            if j > 0:
                self.embed_face(f)  # raises NotCubical on failure
            self.face_dim[f] = j
            by_dim.setdefault(j, set()).add(f)
        if max(by_dim) != self.dim - 1:
            raise InconsistentIncidence(
                f"facets have dimension {max(by_dim)}, expected {self.dim - 1}")
        self.faces_by_dim = by_dim
        self.cubical = True

    def face_of(self, f) -> bool:
        return frozenset(f) in self.proper_faces

    def dim_of(self, f) -> int:
        return self.face_dim[frozenset(f)]

    def faces_of_dim(self, j):
        return sorted(self.faces_by_dim.get(j, ()), key=sorted)

    def facets_containing(self, S):
        S = set(S)
        return [f for f in self.facets if S <= f]

    def smallest_face(self, S):
        """Inclusion-minimal proper face containing S, or None (only the
        improper whole polytope contains S)."""
        S = set(S)
        best = None
        for f in self.proper_faces:
            if S <= f and (best is None or len(f) < len(best)):
                best = f
        return best

    def subfaces(self, f):
        f = frozenset(f)
        return [g for g in self.proper_faces if g <= f]

    def ridges_of_facet(self, f):
        """(dim-2)-faces of the polytope contained in the facet f."""
        f = frozenset(f)
        want = self.face_dim[f] - 1
        return sorted((g for g in self.proper_faces
                       if g <= f and self.face_dim[g] == want), key=sorted)

    # -- cube structure of faces ------------------------------------------

    def embed_face(self, f):
        """Map a face's vertices to cube coordinates {0,1}^j.

        Returns (coords: vertex -> int bitmask, j).  Certifies the face graph
        is Q_j: canonical BFS relabeling from the least vertex, axes assigned
        to its neighbours in sorted order, every deeper vertex labelled by
        OR-ing its predecessors; then adjacency must match Hamming distance 1.
        Raises NotCubical otherwise.
        """
        f = frozenset(f)
        if f in self._embed_cache:
            return self._embed_cache[f]
        verts = sorted(f)
        adj = {v: [w for w in self.graph[v] if w in f] for v in verts}
        root = verts[0]
        j = len(adj[root])
        if len(f) != 1 << j:
            raise NotCubical(f"face size {len(f)} but degree {j}", face=verts)
        coords = {root: 0}
        for i, w in enumerate(sorted(adj[root])):
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
            raise NotCubical("face graph disconnected", face=verts)
        order = sorted(f, key=lambda v: (dist[v], v))
        for v in order:
            if v in coords:
                continue
            preds = [coords[w] for w in adj[v] if w in coords]
            if len(preds) < 2:
                raise NotCubical("vertex with single predecessor", face=verts)
            code = 0
            for p in preds:
                code |= p
            coords[v] = code
        if len(set(coords.values())) != len(f):
            raise NotCubical("coordinate collision", face=verts)
        inv = {c: v for v, c in coords.items()}
        for v in verts:
            nbr_codes = {coords[w] for w in adj[v]}
            want = {coords[v] ^ (1 << i) for i in range(j)}
            if nbr_codes != want:
                raise NotCubical("adjacency not Hamming-1", face=verts)
        self._embed_cache[f] = (coords, j)
        return coords, j

    def opposite_in_face(self, f, v):
        """The vertex of face f at maximal cube distance from v."""
        coords, j = self.embed_face(f)
        target = coords[v] ^ ((1 << j) - 1)
        return next(w for w, c in coords.items() if c == target)

    def opposite_subface(self, f, g):
        """The subface of f antipodal to g (flip g's fixed coordinates)."""
        coords, j = self.embed_face(f)
        g = frozenset(g)
        gcodes = {coords[v] for v in g}
        ones = zeros = None
        for c in gcodes:
            ones = c if ones is None else ones & c
            zeros = ~c if zeros is None else zeros & ~c
        full = (1 << j) - 1
        mask = (ones | zeros) & full
        vals = (ones & mask) ^ mask
        inv = {c: v for v, c in coords.items()}
        return frozenset(inv[c] for c in coords.values() if (c & mask) == vals)

    def project_in_face(self, f, sub_target, v):
        """Projection within the cube face f onto the subface opposite v's.

        For v in the subface opposite `sub_target`, returns v's unique
        neighbour (in f) lying in sub_target; identity if v is already there.
        """
        tgt = frozenset(sub_target)
        if v in tgt:
            return v
        nbrs = [w for w in self.graph[v] if w in tgt and w in f]
        if len(nbrs) != 1:
            raise ValueError(f"projection of {v} onto subface not unique: {nbrs}")
        return nbrs[0]

    def to_json(self):
        """The incidence as build_from_incidence reads it: facets as indices
        into the sorted vertex list."""
        index = {v: i for i, v in enumerate(self.vertices)}
        return {
            "dim": self.dim,
            "vertices": len(self.vertices),
            "facets": [sorted(index[v] for v in f) for f in self.facets],
            "labels": [self.labels[v] for v in self.vertices],
        }


@lru_cache(maxsize=None)
def build_cube_polytope(d: int) -> Polytope:
    """The d-cube as a Polytope with 2d facets; vertices are bitmask ints."""
    if not 1 <= d <= 8:
        raise ValueError("lattice materialization supports 1 <= d <= 8")
    verts = range(1 << d)
    if d == 1:
        facets = [{0}, {1}]
    else:
        facets = []
        for axis in range(d):
            for val in (0, 1):
                facets.append({v for v in verts if (v >> axis) & 1 == val})
    labels = {v: vertex_to_str(v, d) for v in verts}
    return Polytope(d, verts, facets, labels=labels)


def build_from_incidence(dim, vertex_count, facets, labels=None) -> Polytope:
    """Polytope from raw incidence; validates cubicality."""
    return Polytope(dim, range(vertex_count), facets,
                    labels=dict(enumerate(labels)) if labels else None)


@lru_cache(maxsize=None)
def link_polytope(cube_dim: int, v: int) -> Polytope:
    """The vertex link in Q_{cube_dim} as a cubical (cube_dim-1)-polytope.

    Facets are the ridges of the cube lying in one star facet and one
    antistar facet of v: ridges fixing two coordinates of which exactly one
    agrees with v.  Vertex ids are the cube's own bitmasks (v, v^o removed).
    """
    d = cube_dim
    if d < 2:
        raise ValueError("need cube_dim >= 2")
    full = (1 << d) - 1
    vo = v ^ full
    verts = [x for x in range(1 << d) if x not in (v, vo)]
    facets = []
    for i in range(d):
        for j in range(i + 1, d):
            for (ai, aj) in (((v >> i) & 1, 1 - ((v >> j) & 1)),
                             (1 - ((v >> i) & 1), (v >> j) & 1)):
                facets.append({x for x in verts
                               if (x >> i) & 1 == ai and (x >> j) & 1 == aj})
    labels = {x: vertex_to_str(x, d) for x in verts}
    return Polytope(d - 1, verts, facets, labels=labels)


@dataclass
class Complex:
    """A downward-closed set of faces of a host polytope."""

    host: Polytope
    faces: frozenset = field(default_factory=frozenset)

    @classmethod
    def generated_by(cls, host, generators):
        gens = [frozenset(g) for g in generators]
        faces = {f for f in host.proper_faces if any(f <= g for g in gens)}
        return cls(host, frozenset(faces))

    @classmethod
    def boundary(cls, host):
        return cls(host, frozenset(host.proper_faces))

    def vertex_set(self):
        out = set()
        for f in self.faces:
            out |= f
        return out

    @property
    def dim(self):
        if not self.faces:
            return -1
        return max(self.host.face_dim[f] for f in self.faces)

    def maximal_faces(self):
        return sorted((f for f in self.faces
                       if not any(f < g for g in self.faces)), key=sorted)

    def is_pure(self):
        d = self.dim
        return all(self.host.face_dim[f] == d for f in self.maximal_faces())

    def graph(self):
        verts = self.vertex_set()
        adj = {v: set() for v in sorted(verts)}
        for f in self.faces:
            if len(f) == 2:
                a, b = sorted(f)
                adj[a].add(b)
                adj[b].add(a)
        return {v: tuple(sorted(n)) for v, n in adj.items()}

    def star(self, x):
        """Faces containing x, plus their subfaces.  x is a vertex or face."""
        xs = {x} if not isinstance(x, (set, frozenset)) else frozenset(x)
        gens = [f for f in self.faces if xs <= f]
        return Complex(self.host,
                       frozenset(g for g in self.faces
                                 if any(g <= f for f in gens)))

    def antistar(self, X):
        """The induced subcomplex on faces disjoint from the vertex set X."""
        X = {X} if not isinstance(X, (set, frozenset)) else set(X)
        return Complex(self.host,
                       frozenset(f for f in self.faces if not (f & X)))

    def link(self, x):
        st = self.star(x)
        xs = {x} if not isinstance(x, (set, frozenset)) else set(x)
        return Complex(self.host,
                       frozenset(f for f in st.faces if not (f & xs)))

    def restrict_to_vertices(self, V):
        V = set(V)
        return Complex(self.host,
                       frozenset(f for f in self.faces if f <= V))

    def dual_graph(self):
        """Facet adjacency: two maximal faces joined iff their intersection
        is a ridge (a (dim-1)-face) of this complex."""
        facets = self.maximal_faces()
        want = self.dim - 1
        adj = {f: [] for f in facets}
        for i, f in enumerate(facets):
            for g in facets[i + 1:]:
                h = f & g
                if h in self.faces and self.host.face_dim[h] == want:
                    adj[f].append(g)
                    adj[g].append(f)
        return adj

    def is_strongly_connected(self):
        if not self.faces:
            return False
        if not self.is_pure():
            return False
        adj = self.dual_graph()
        facets = list(adj)
        seen = {facets[0]}
        stack = [facets[0]]
        while stack:
            for g in adj[stack.pop()]:
                if g not in seen:
                    seen.add(g)
                    stack.append(g)
        return len(seen) == len(facets)

    def facet_ridge_path(self, f_start, f_end, forbidden=()):
        """Shortest dual-graph path between two facets avoiding `forbidden`.

        Raises NoPath when the forbidden set separates them.
        """
        f_start, f_end = frozenset(f_start), frozenset(f_end)
        forbidden = {frozenset(f) for f in forbidden}
        adj = self.dual_graph()
        adj = {f: sorted((g for g in n if g not in forbidden), key=sorted)
               for f, n in adj.items() if f not in forbidden}
        if f_start not in adj or f_end not in adj:
            raise NoPath("endpoint facet forbidden or absent")
        key = {f: i for i, f in enumerate(sorted(adj, key=sorted))}
        G = {key[f]: [key[g] for g in adj[f]] for f in adj}
        idx = shortest_path(G, key[f_start], key[f_end])
        back = {i: f for f, i in key.items()}
        return [back[i] for i in idx]


def star_complex(P: Polytope, v) -> Complex:
    """The star of a vertex in the boundary complex of P."""
    return Complex.generated_by(P, [f for f in P.facets if v in f])


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
    S12_facets = [f for f in P.facets if {s1, s2} <= f]
    S12 = Complex.generated_by(P, S12_facets)
    A1 = S1.antistar(F1)
    A12 = S12.restrict_to_vertices(S12.vertex_set() - F1 - F12)
    if len(S12_facets) <= 1:
        return {"S12": S12, "A1": A1, "A12": A12, "C": None}
    want_ridge = P.dim - 2
    C_faces = set()
    for F in S12_facets:
        if F == F12:
            continue
        ridges = [R for R in P.proper_faces
                  if R <= F and P.face_dim[R] == want_ridge and not (R & F1)]
        for R in ridges:
            # boundary of R minus the vertices of F12
            for g in P.proper_faces:
                if g < R and not (g & F12):
                    C_faces.add(g)
    C = Complex(P, frozenset(C_faces))
    return {"S12": S12, "A1": A1, "A12": A12, "C": C}
