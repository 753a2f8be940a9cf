"""Abstract polytopal complexes from vertex-facet incidence.

A Polytope stores its facets, the facet mask of each vertex, the graph and
each facet's cube embedding.  One certificate, run on outside input only,
reads all four off the facets and their pairwise intersections: each
facet's cube coordinates come from its ridges, every other intersection of
two facets must be a subcube, and no ridge may lie on a third facet; in
dimension 3 the squares must also make a 2-sphere.  Q_d
(`build_cube_polytope`) and vertex links are written down, unchecked: Q_d's
facets, graph and facet embeddings are known in closed form, and a link's
are its host's ridges, rows and embeddings (see vertex_link).
`vertex_link` is the one way a link is built, on demand and with no cache:
a strong solve builds the link of its avoided vertex, and a link host
(`link_polytope`, which keeps the last few in a bounded cache) is the
vertex link of its cube.
A lower face's embedding, the bridge to the bit-level solvers in
`hypercube`, is read off its first facet's when first asked for.  The face
lattice (faces as frozensets of vertex ids, by size, then by sorted vertex
list), the subcubes of the facets, is read off the facet embeddings only
on demand, which no solver makes.

The lattice is indexed by facet incidence: facet i of the sorted facet list
is the bit 1 << i, and every vertex and every proper face carries the mask
of the facets containing it (a face's mask is the AND of its vertices').  A
face lies in the complex generated by a set of facets exactly when its mask
meets theirs, so stars, ridges and facet queries need no subset tests.

A Complex is the downward-closed set of faces that some faces of a host
polytope generate, with its vertices and graph; the tests' audit module
extends it with the stars, antistars, links and strong connectivity of the
paper's lemmas.  The solvers build none: the graph of a star is
`Polytope.generated_graph`, a view that reads each row off the masks only
when a row is asked for.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property, lru_cache, reduce
from itertools import combinations
from operator import and_

from .errors import InconsistentIncidence, NotCubical, NotSphere
from .hypercube import face_to_cube, facet, smallest_face, vertex_to_str
from .paths import reachable


class Polytope:
    """A cubical polytope given abstractly by its vertex-facet incidence."""

    def __init__(self, dim, vertices, facets, labels=None):
        """The one place an incidence, read from outside, is checked: an
        empty facet, facets that miss a vertex and nested facets raise
        InconsistentIncidence (_check_incidence), and then the facets
        certify themselves (_certify_facets), reading off the graph and
        facet embeddings.  In dimension 3 the squares must also make a
        2-sphere (_check_sphere), or NotSphere is raised.

        The polytope keeps only its facets, masks, graph and facet
        embeddings; its lower faces are read off the embeddings when first
        asked for, which no solver does."""
        bit = _vertex_bits(vertices)
        self._set_incidence(dim, vertices, _check_incidence(bit, facets),
                            labels)
        self._certify_facets(bit)
        j = len(max(self.facets, key=len)).bit_length() - 1
        if j != self.dim - 1:
            raise InconsistentIncidence(
                f"facets have dimension {j}, expected {self.dim - 1}")
        if dim == 3:
            self._check_sphere()

    # -- lattice -----------------------------------------------------------

    def _set_incidence(self, dim, vertices, facet_bits, labels):
        """Keep and index the incidence (facet_bits, its _index), unchecked."""
        self.dim = dim
        self.vertices = sorted(vertices)
        self.facets = list(facet_bits)
        self.labels = labels or {v: str(v) for v in self.vertices}
        self._embed_cache = {}
        self._facet_bits = facet_bits
        # the incidence index: bit i stands for self.facets[i]
        vmask = dict.fromkeys(self.vertices, 0)
        for i, f in enumerate(self.facets):
            b = 1 << i
            for v in f:
                vmask[v] |= b
        self.vertex_facets = vmask

    def _certify_facets(self, bit):
        """Certify the facets from their pairwise intersections alone, and
        read the graph and facet embeddings off them; `bit` is the vertex
        bits (_vertex_bits) that index them.

        Every facet must have as many vertices as the largest, a power of 2,
        2^j.  A facet F's ridges are its intersections with the facets that
        share half of its vertices, and there must be 2j of them.  The axes
        are the ridges smaller, as bitsets, than their complements in F; a
        vertex's code records which axes hold it, and the codes must be
        distinct, so they make F a cube.  Every nonempty F & G other than F
        must be a subcube in those codes: a ridge then fixes one axis, so
        the ridges are j complementary pairs, and a third facet through one
        meets F in it alone, which raises InconsistentIncidence (at d = 3,
        _check_sphere refuses the edge on three squares).  Every subcube of
        F is then an intersection of ridges, so of facets, and two subcubes
        of F meet in one: the facets' closure is exactly the subcubes of the
        facets, each face is a cube, and the edges are the Hamming-1 pairs
        inside facets.  Each row is sorted, and each facet's embedding is
        its codes in the canonical labelling (see _canonical)."""
        sizes = sorted({len(F) for F in self.facets})
        n = sizes[-1]
        if len(sizes) > 1 or n & (n - 1):
            raise NotCubical(f"facets have {' and '.join(map(str, sizes))} "
                             f"vertices: they are not cubes of one dimension")
        j = n.bit_length() - 1
        nbrs = {v: set() for v in self.vertices}
        bits = self._facet_bits
        for F, a in bits.items():
            cuts = [a & b for b in bits.values()]
            ridges = {r for r in cuts if r and r.bit_count() == n >> 1}
            axes = [r for r in ridges if r < a ^ r]
            coords = {v: sum(1 << i for i, r in enumerate(axes) if r & bit[v])
                      for v in F}
            at = {c: v for v, c in coords.items()}
            if len(ridges) != 2 * j or len(at) != n:
                raise NotCubical(f"facet {sorted(F)} is not a {j}-cube on "
                                 f"its ridges")
            if self.dim != 3 and sum(r in ridges for r in cuts) > 2 * j:
                raise InconsistentIncidence(f"a ridge of facet {sorted(F)} "
                                            f"lies on a third facet")
            for s in set(cuts) - {0, a}:
                free = sum(1 for r in axes if s & r and s & (a ^ r))
                if s.bit_count() != 1 << free:
                    face = sorted(v for v in F if bit[v] & s)
                    raise NotCubical(f"face {face} is no subcube of facet "
                                     f"{sorted(F)}")
            for v, c in coords.items():
                nbrs[v].update(at[c ^ 1 << i] for i in range(j))
            root = min(F)
            self._embed_cache[F] = (_canonical(F, coords, sorted(
                at[coords[root] ^ 1 << i] for i in range(j))), j)
        self.graph = {v: tuple(sorted(ws)) for v, ws in nbrs.items()}

    def _check_sphere(self):
        """Refuse certified squares that do not make a 2-sphere: the graph
        must be connected, every edge lie on exactly two squares, the
        squares around each vertex form one cycle, and V - E + F be 2.
        Such a surface is a 2-sphere, so its graph is planar with every
        square bounding a face, and two pairs that alternate around a
        square cannot be linked (Jordan curve theorem): config-3F is then
        a true obstruction.  A quadrangulated torus passes all but the
        last check."""
        vf, graph, name = self.vertex_facets, self.graph, self.labels
        if len(reachable(graph, self.vertices[:1])) != len(graph):
            raise NotSphere("the squares make no 2-sphere: the graph is not "
                            "connected")
        for v, ws in graph.items():
            m = vf[v]
            for w in ws:
                if (vf[w] & m).bit_count() != 2:
                    raise NotSphere(f"the squares make no 2-sphere: edge "
                                    f"{name[v]}-{name[w]} lies on "
                                    f"{(vf[w] & m).bit_count()} squares, "
                                    f"not 2")
            # grow one cycle of squares at v across its edges
            ring, grown = m & -m, True
            while grown:
                grown = False
                for w in ws:
                    e = vf[w] & m
                    if e & ring and e & ~ring:
                        ring |= e
                        grown = True
            if ring != m:
                raise NotSphere(f"the squares make no 2-sphere: those at "
                                f"vertex {name[v]} form more than one cycle")
        edges = sum(map(len, graph.values())) // 2
        euler = len(graph) - edges + len(self.facets)
        if euler != 2:
            raise NotSphere(f"the squares make no 2-sphere: V - E + F is "
                            f"{euler}, not 2")

    @cached_property
    def face_facets(self):
        """Each proper face with the mask of the facets containing it, by
        size, then by sorted vertex list: read off the facet embeddings on
        first use, which no solver makes."""
        return self._read_faces()

    def _read_faces(self):
        # the certificate (or, on Q_d and a vertex link, the construction)
        # makes the faces exactly the subcubes of the facets
        vf = self.vertex_facets
        faces = {f for F in self.facets
                 for f in _subcubes(*self._embed_cache[F])}
        return {f: reduce(and_, map(vf.__getitem__, f))
                for f in sorted(faces, key=lambda f: (len(f), sorted(f)))}

    @cached_property
    def proper_faces(self):
        """A set-like view of the faces, in face order: faces_by_dim
        concatenated."""
        return self.face_facets.keys()

    @cached_property
    def face_dim(self):
        return {f: len(f).bit_length() - 1 for f in self.face_facets}

    @cached_property
    def faces_by_dim(self):
        by_dim = {}
        for f, j in self.face_dim.items():
            by_dim.setdefault(j, []).append(f)
        return {j: tuple(fs) for j, fs in by_dim.items()}

    def facets_containing(self, S):
        """The facets containing every vertex of S, in facet order."""
        bits = (1 << len(self.facets)) - 1
        for v in S:
            bits &= self.vertex_facets.get(v, 0)
        out = []
        while bits:
            low = bits & -bits
            out.append(self.facets[low.bit_length() - 1])
            bits ^= low
        return out

    def ridges_of_facet(self, F):
        """The ridges in the facet F, sorted by their sorted vertex lists:
        its intersections with the facets that share half its vertices."""
        F = frozenset(F)
        bits = self._facet_bits
        fb = bits[F]
        half = len(F) // 2
        if not half:
            return []
        return sorted({F & G for G, gb in bits.items()
                       if (fb & gb).bit_count() == half}, key=sorted)

    def generated_graph(self, bits):
        """The graph of the complex generated by the facets in the mask
        `bits`, a read-only view that computes each row when it is read:
        its keys are the complex's vertices, in vertex order, and an edge is
        in it when the edge's facet mask meets `bits`."""
        return GeneratedGraph(self, bits)

    # -- cube structure of faces ------------------------------------------

    def embed_face(self, f):
        """Map a face's vertices to cube coordinates {0,1}^j.

        Returns (coords: vertex -> int bitmask, j): the canonical labelling
        from the least vertex, with axes assigned to its neighbours in
        sorted order.  Facets are embedded when the polytope is built (read
        off their codes, or written down on Q_d and on a vertex link); any
        other face is read off its first facet's embedding on its first
        call, then cached.  A vertex set that is no face, as one that lies
        in no facet or is no subcube of its first, raises ValueError.
        """
        f = frozenset(f)
        if f in self._embed_cache:
            return self._embed_cache[f]
        # the first facet containing f, if any: an empty f lies in none,
        # and every facet is embedded already
        vf = self.vertex_facets
        m = reduce(and_, [vf.get(v, 0) for v in f]) if f else 0
        if m:
            F = self.facets[(m & -m).bit_length() - 1]
            coords = self._embed_cache[F][0]
            root = min(f)
            r = coords[root]
            span = 0
            for v in f:
                span |= coords[v] ^ r
            j = span.bit_count()
            if len(f) == 1 << j:
                # F's codes are distinct, so f is the whole subcube on
                # `span`, and the root's neighbours in f flip one bit of it
                # each
                self._embed_cache[f] = embedding = (_canonical(
                    f, coords, [w for w in self.graph[root] if w in f]), j)
                return embedding
        raise ValueError(f"{sorted(f)} is not a face")

    def opposite_in_face(self, f, v):
        """The vertex of face f at maximal cube distance from v."""
        coords, j = self.embed_face(f)
        target = coords[v] ^ ((1 << j) - 1)
        return next(w for w, c in coords.items() if c == target)

    def opposite_subface(self, f, g):
        """The subface of f antipodal to g (flip g's fixed coordinates)."""
        coords, j = self.embed_face(f)
        K = smallest_face(j, [coords[v] for v in g])
        vals = K.fixed_values ^ K.fixed_mask
        return frozenset(v for v, c in coords.items()
                         if c & K.fixed_mask == vals)

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


class GeneratedGraph(Mapping):
    """The graph of the complex generated by the facets in a mask, computed
    on access from the polytope's masks and graph; it holds nothing else.

    A vertex is a key when its mask meets the facets', and ``G[v]`` is the
    row of v kept to the neighbours w that share one of those facets with
    it, in ``P.graph[v]`` order.  Keys iterate in vertex order; any other
    key raises KeyError.
    """

    def __init__(self, P: Polytope, bits: int):
        self._vf, self._graph, self._bits = P.vertex_facets, P.graph, bits

    def __getitem__(self, v):
        vf = self._vf
        m = vf.get(v, 0) & self._bits
        if not m:
            raise KeyError(v)
        return tuple([w for w in self._graph[v] if vf[w] & m])

    def __contains__(self, v):
        return bool(self._vf.get(v, 0) & self._bits)

    def __iter__(self):
        bits = self._bits
        return iter([v for v, m in self._vf.items() if m & bits])

    def __len__(self):
        return sum(1 for _ in self)


def _vertex_bits(vertices):
    """Each vertex's bit in the incidence index: bit i stands for the i-th
    least vertex."""
    return {v: 1 << i for i, v in enumerate(sorted(vertices))}


def _index(bit, facets):
    """The distinct facets, sorted, each mapped to its vertex bitset under
    `bit`, the vertex bits (_vertex_bits)."""
    return {f: sum(map(bit.__getitem__, f))
            for f in sorted(set(map(frozenset, facets)), key=sorted)}


def _check_incidence(bit, facets):
    """Refuse an empty facet, facets that miss a vertex, and nested facets,
    as the tests' reference lattice does too; return the facets' _index.
    `bit` is the vertex bits (_vertex_bits), keyed by the vertex set."""
    facets = {frozenset(f) for f in facets}
    if not facets or not all(facets):
        raise InconsistentIncidence("empty facet")
    if set().union(*facets) != bit.keys():
        raise InconsistentIncidence("facets do not cover the vertex set")
    index = _index(bit, facets)
    if any((a & b) in (a, b) for a, b in combinations(index.values(), 2)):
        raise InconsistentIncidence("facet contained in another facet")
    return index


def _subcubes(coords, j):
    """The subcubes of a j-cube whose vertices have the codes `coords`: one
    for each set of fixed axes and each choice of their values."""
    for fixed in range(1 << j):
        parts = {}
        for v, c in coords.items():
            parts.setdefault(c & fixed, []).append(v)
        yield from map(frozenset, parts.values())


def _canonical(f, coords, nbrs):
    """f's canonical embedding, given codes `coords` that fill a subcube on
    f and `nbrs`, the least vertex's neighbours in f in sorted order: each
    code XOR the least vertex's, with the axis of the i-th neighbour
    renumbered to bit i, the labelling a BFS from the least vertex gives."""
    r = coords[min(f)]
    remap = {0: 0}
    for i, w in enumerate(nbrs):
        b, c = coords[w] ^ r, 1 << i
        remap.update({x | b: y | c for x, y in remap.items()})
    return {v: remap[coords[v] ^ r] for v in f}


@lru_cache(maxsize=None)
def build_cube_polytope(d: int) -> Polytope:
    """The d-cube as a Polytope with 2d facets; vertices are bitmask ints.

    It is written down: every face of Q_d fixes some of its coordinates, so
    the facets, masks, graph and facet embeddings that certifying the
    facets would give are known."""
    if not 1 <= d <= 10:
        raise ValueError("lattice materialization supports 1 <= d <= 10")
    verts = range(1 << d)
    embeddings = {}
    for i in range(d):
        for val in (0, 1):
            F = frozenset(v for v in verts if (v >> i) & 1 == val)
            # v less its bit i is the BFS labelling from min(F) = val << i
            vs = list(F)
            embeddings[F] = (dict(zip(vs, face_to_cube(facet(d, i, val), vs))),
                             d - 1)
    P = Polytope.__new__(Polytope)
    P._set_incidence(d, verts, _index(_vertex_bits(verts), embeddings),
                     {v: vertex_to_str(v, d) for v in verts})
    # Q1's facets are its two vertices, and no edge is a face
    P.graph = {v: tuple(sorted(v ^ (1 << i) for i in range(d)))
               if d > 1 else () for v in verts}
    P._embed_cache = {F: embeddings[F] for F in P.facets}
    return P


def build_from_incidence(dim, vertex_count, facets, labels=None) -> Polytope:
    """Polytope from raw incidence; validates cubicality, and that labels,
    when given, name each vertex by its own string.  The facets' distinct
    indices are counted against vertex_count before any vertex is listed,
    so a huge vertex_count fails at once."""
    if labels is not None and (
            not all(isinstance(x, str) for x in labels)
            or len(set(labels)) != len(labels) or len(labels) != vertex_count):
        raise ValueError(f"labels must be {vertex_count} distinct strings")
    if len(set().union(*facets)) != vertex_count:
        raise InconsistentIncidence("facets do not cover the vertex set")
    return Polytope(dim, range(vertex_count), facets,
                    labels=dict(enumerate(labels)) if labels else None)


# below Q3 a vertex link is two vertices with no edge, or nothing
LINK_DIM_ERROR = "vertex links need a cube of dimension 3 or more, not {d}"
LINK_VERTEX_ERROR = "vertex {v} is not in Q{d}"


def vertex_link(P: Polytope, x) -> Polytope:
    """The link of a vertex as a cubical (dim-1)-polytope, built on demand
    each time it is asked for; nothing keeps it.

    It is written down from P, as Q_d is: its facets are the ridges of the
    star facets that miss x, its rows are P's kept to the neighbours that
    share a link facet, and its facets' embeddings are P's.  Vertex ids and
    labels are P's, so its paths are paths of P avoiding x.

    Nothing needs checking: P's certificate makes every subcube of a facet
    of P an intersection of facets.  So each link facet is a face of P;
    each ridge of a link facet R in F is R's intersection with another
    link facet, a ridge of F, or of G where F & G is the ridge through x
    that holds it; and the link facets through a vertex v meet in {v}, as
    in each star facet through v they meet in the face through v
    complementary to the least face holding x and v.  The link's faces,
    the faces of the star that miss x, are then its facets' closure, with
    P's edges and embeddings.  A link ridge, in a star facet F, lies on
    two link facets: the halves of F through it that miss x, or one per
    facet of P through the least face holding it and x, a ridge of P.
    """
    if x not in P.vertex_facets:
        raise ValueError(f"vertex {x} is not in cubical {P.dim}-polytope "
                         f"({len(P.vertices)}v)")
    star_facets = P.facets_containing((x,))
    facets = {R for F in star_facets for R in P.ridges_of_facet(F)
              if x not in R}
    verts = set().union(*star_facets) - {x}
    L = Polytope.__new__(Polytope)
    L._set_incidence(P.dim - 1, verts, _index(_vertex_bits(verts), facets),
                     {v: P.labels[v] for v in verts})
    vf = L.vertex_facets
    L.graph = {v: tuple([w for w in P.graph[v] if vf.get(w, 0) & m])
               for v, m in vf.items()}
    L._embed_cache = {R: P.embed_face(R) for R in L.facets}
    return L


# holds the 16 links of Q4 that link solves at D = 4 read, with room to
# spare; a link of Q10 takes about 2 MB
LINK_CACHE_SIZE = 32


@lru_cache(maxsize=LINK_CACHE_SIZE)
def link_polytope(cube_dim: int, v: int) -> Polytope:
    """The vertex link of v in Q_{cube_dim} as a cubical
    (cube_dim-1)-polytope: vertex_link of the cube's lattice, so cube_dim
    is at most 10.  Its facets are the cube's ridges that fix two
    coordinates, exactly one of which agrees with v; vertex ids are the
    cube's own bitmasks (v, v^o removed).  The last LINK_CACHE_SIZE links
    asked for are kept."""
    if cube_dim < 3:
        raise ValueError(LINK_DIM_ERROR.format(d=cube_dim))
    cube = build_cube_polytope(cube_dim)  # refuses cube_dim > 10 first
    if not 0 <= v < 1 << cube_dim:
        raise ValueError(LINK_VERTEX_ERROR.format(v=v, d=cube_dim))
    return vertex_link(cube, v)


class Complex:
    """A downward-closed set of faces of a host polytope: the faces that
    some faces generate, with its vertices and graph."""

    def __init__(self, host, faces=frozenset()):
        self.host = host
        self.faces = faces

    @classmethod
    def generated_by(cls, host, generators):
        gens = [frozenset(g) for g in generators]
        faces = {f for f in host.proper_faces if any(f <= g for g in gens)}
        return cls(host, frozenset(faces))

    def vertex_set(self):
        return {v for f in self.faces if len(f) == 1 for v in f}

    def graph(self):
        """The 1-skeleton: the host's edges that are faces of the complex."""
        host, faces = self.host, self.faces
        return {v: tuple(w for w in host.graph[v] if frozenset((v, w)) in faces)
                for v in sorted(self.vertex_set())}


def star_complex(P: Polytope, v) -> Complex:
    """The star of a vertex in the boundary complex of P."""
    return Complex.generated_by(P, P.facets_containing((v,)))
