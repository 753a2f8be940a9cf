import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from cubelink import complexes
from cubelink.complexes import (LINK_CACHE_SIZE, Polytope,
                                build_cube_polytope, build_from_incidence,
                                link_polytope)
from cubelink.errors import InconsistentIncidence, NotCubical, NotSphere
from cubelink.hypercube import cube_graph, vertex_to_str, whole_cube
from cubelink.linkage.cubical import solve_cubical_strong, vertex_link
from cubelink.paths import validate_linkage

from audit import (Complex, ReferencePolytope, antistar_complex, cap,
                   closure_by_intersection, embed_by_bfs, glued_along_a_facet,
                   grid_surface, link_complex, link_reference, star_complex,
                   technical_decomposition, zonotope)


def comb(n, k):
    import math

    return math.comb(n, k)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_cube_polytope_face_counts(d):
    P = build_cube_polytope(d)
    assert len(P.vertices) == 1 << d
    assert len(P.facets) == 2 * d
    for j in range(d):
        assert len(P.faces_by_dim[j]) == comb(d, j) * (1 << (d - j))
    assert P.graph == cube_graph(d)


def test_cube_polytope_face_queries():
    P = build_cube_polytope(3)
    F = frozenset({0, 1, 2, 3})
    assert len(P.ridges_of_facet(F)) == 4
    assert P.opposite_in_face(F, 0) == 3
    assert P.opposite_subface(F, {0, 1}) == frozenset({2, 3})
    assert P.project_in_face(F, frozenset({2, 3}), 0) == 2
    assert P.project_in_face(F, frozenset({2, 3}), 3) == 3
    with pytest.raises(ValueError, match="not unique"):
        P.project_in_face(F, frozenset({3}), 0)
    assert build_cube_polytope(1).ridges_of_facet({0}) == []


def test_opposite_in_face_matches_bitmask_cube():
    P = build_cube_polytope(4)
    for f in P.facets:
        for v in sorted(f)[:4]:
            axis_face = whole_cube(4)
            del axis_face  # whole-cube opposite checked elsewhere
            w = P.opposite_in_face(f, v)
            assert w in f and w != v
            assert P.opposite_in_face(f, w) == v


def test_simplex_is_rejected():
    with pytest.raises(NotCubical):
        Polytope(3, range(4), [{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}])


def _rebuilt(P):
    j = P.to_json()
    return build_from_incidence(j["dim"], j["vertices"], j["facets"])


def test_3_polytopes_rebuilt_from_their_incidence_are_2_spheres():
    Q3 = build_cube_polytope(3)
    for P in [Q3, cap(Q3, Q3.facets[0])] + [link_polytope(4, v)
                                            for v in range(16)]:
        assert _rebuilt(P).to_json()["facets"] == P.to_json()["facets"]
    for n in range(4, 9):
        assert zonotope(3, n).dim == 3


def _glued_cubes(shared):
    """Two copies of Q3's squares that share the vertices `shared`."""
    squares = build_cube_polytope(3).to_json()["facets"]
    rest = iter(range(8, 16))
    twin = {v: v if v in shared else next(rest) for v in range(8)}
    return 16 - len(shared), squares + [[twin[v] for v in f] for f in squares]


# each passes the cubical facet certificate; the message names the first of
# the sphere's conditions that it fails
NO_SPHERES = {
    "torus": ((16, grid_surface(4, 4)), "V - E + F is 0, not 2"),
    "klein-bottle": ((16, grid_surface(4, 4, twist=True)),
                     "V - E + F is 0, not 2"),
    "spheres-at-a-vertex": (_glued_cubes({0}),
                            "those at vertex 0 form more than one cycle"),
    # V - E + F = 14 - 24 + 12 = 2: only the cycle of squares tells
    "spheres-at-two-vertices": (_glued_cubes({0, 7}),
                                "those at vertex 0 form more than one cycle"),
    "spheres-along-an-edge": (_glued_cubes({0, 1}), "edge 0-1 lies on 4"),
    # V - E + F = 2, every edge on two squares, every vertex on one cycle
    "sphere-and-torus": ((24, build_cube_polytope(3).to_json()["facets"]
                          + [[8 + v for v in f] for f in grid_surface(4, 4)]),
                         "the graph is not connected"),
}


@pytest.mark.parametrize("name", sorted(NO_SPHERES))
def test_a_3_lattice_that_is_no_2_sphere_is_refused(name):
    (n, facets), why = NO_SPHERES[name]
    with pytest.raises(NotSphere, match=re.escape(
            f"the squares make no 2-sphere: {why}")):
        build_from_incidence(3, n, facets)


@pytest.mark.parametrize("build", [lambda: build_cube_polytope(5),
                                   lambda: link_polytope(5, 3),
                                   lambda: zonotope(3, 8)],
                         ids=["Q5", "link(Q5,3)", "Z(3,8)"])
def test_facets_keep_sorted_vertex_list_order(build):
    # the solvers break ties between facets by this order alone
    P = build()
    assert P.facets == sorted(P.facets, key=sorted)
    for v in P.vertices:
        for S in [{v}] + [{v, w} for w in P.graph[v]]:
            assert P.facets_containing(S) == [F for F in P.facets if S <= F]


def test_link_cache_is_bounded():
    link_polytope.cache_clear()
    for _ in range(2):
        for v in range(16):
            link_polytope(4, v)
    assert link_polytope.cache_info().hits == 16
    for _ in range(2):
        for v in range(64):
            link_polytope(6, v)
    assert link_polytope.cache_info().currsize <= LINK_CACHE_SIZE


@pytest.mark.parametrize("d", [4, 5])
def test_boundaries_glued_along_a_facet_are_refused(d):
    # every facet is a cube and every intersection a subcube, so the
    # per-face reference, which has no ridge rule, takes it; the ridges of
    # the shared facet lie on three facets, which Polytope refuses
    n, facets = glued_along_a_facet(d)
    assert len(ReferencePolytope(d, range(n), facets).facets) == 4 * d - 1
    with pytest.raises(InconsistentIncidence, match=re.escape(
            f"a ridge of facet {facets[0]} lies on a third facet")):
        build_from_incidence(d, n, facets)


def test_written_down_hosts_run_no_incidence_check(monkeypatch):
    # Q_d and vertex links are written down from checked hosts, so neither
    # they, nor links of links, nor the links strong solves take, are checked
    def refuse(*args):
        raise RuntimeError("incidence checked")
    monkeypatch.setattr(complexes, "_check_incidence", refuse)
    for name in ("_certify_facets", "_check_sphere"):
        monkeypatch.setattr(Polytope, name, refuse)
    rng = random.Random("written-down")
    for d in range(5, 9):
        Q = build_cube_polytope.__wrapped__(d)
        for x in rng.sample(Q.vertices, 2):
            L = vertex_link(Q, x)
            assert vertex_link(L, rng.choice(L.vertices)).dim == d - 2
        for _ in range(10 if d % 2 == 0 else 0):
            X = rng.sample(Q.vertices, d + 1)
            pairs = [(X[2 * i], X[2 * i + 1]) for i in range(d // 2)]
            cert = solve_cubical_strong(Q, pairs, X[d])
            assert validate_linkage(Q.graph, pairs, cert.paths, [X[d]])[0]


def test_inconsistent_incidence_rejected():
    with pytest.raises(InconsistentIncidence):
        Polytope(2, range(4), [{0, 1}, {1, 2}])  # does not cover
    with pytest.raises(InconsistentIncidence):
        Polytope(2, range(4), [{0, 1, 2, 3}, {0, 1}])  # nested facets


def test_facet_of_lower_dimension_is_rejected():
    # Q3's squares plus an edge facet: every face of the closure is a cube,
    # but a cubical 3-polytope has only squares for facets
    facets = build_cube_polytope(3).to_json()["facets"] + [[7, 8]]
    with pytest.raises(NotCubical, match="facets have 2 and 4 vertices"):
        build_from_incidence(3, 9, facets)
    with pytest.raises(NotCubical, match="not cubes of one dimension"):
        ReferencePolytope(3, range(9), facets)


def test_build_from_incidence_square():
    P = build_from_incidence(2, 4, [{0, 1}, {1, 3}, {2, 3}, {0, 2}],
                             labels=["00", "01", "10", "11"])
    assert P.dim == 2
    assert P.labels[3] == "11"


@pytest.mark.parametrize("d", [3, 4, 5])
def test_link_polytope_shape(d):
    L = link_polytope(d, 0)
    assert L.dim == d - 1
    assert len(L.vertices) == (1 << d) - 2
    assert len(L.facets) == 2 * comb(d, 2)


def test_link_polytope_of_cube3_is_hexagon():
    L = link_polytope(3, 0)
    assert len(L.vertices) == 6
    assert all(len(n) == 2 for n in L.graph.values())
    # a single 6-cycle
    start = L.vertices[0]
    seen, cur, prev = {start}, L.graph[start][0], start
    while cur != start:
        seen.add(cur)
        nxt = [w for w in L.graph[cur] if w != prev]
        prev, cur = cur, nxt[0]
    assert len(seen) == 6


def test_link_polytope_vertex_ids_are_cube_bitmasks():
    L = link_polytope(4, 0b0101)
    assert 0b0101 not in L.vertices and 0b1010 not in L.vertices
    assert len(L.vertices) == 14


LINK_REFERENCE_CASES = (
    [(D, v) for D in (3, 4) for v in range(1 << D)]
    + [(D, v) for D in range(5, 9)
       for v in random.Random(f"link-{D}").sample(range(1 << D), 3)])


@pytest.mark.parametrize("D,v", LINK_REFERENCE_CASES)
def test_link_polytope_has_the_papers_facets(D, v):
    # link_polytope reads the link off the cube's lattice; the paper's
    # two-coordinate facets, built alone, must give the same polytope
    L, ref = link_polytope(D, v), link_reference(D, v)
    assert L.facets == ref.facets and L.vertices == ref.vertices
    assert L.labels == ref.labels
    assert L.graph == ref.graph and list(L.graph) == list(ref.graph)
    assert L.vertex_facets == ref.vertex_facets


def test_star_antistar_link_vertex_sets():
    P = build_cube_polytope(4)
    S = star_complex(P, 0)
    # star of a vertex covers everything except the antipode
    assert S.vertex_set() == set(range(16)) - {15}
    A = antistar_complex(P, {0})
    assert A.vertex_set() == set(range(16)) - {0}
    L = link_complex(P, 0)
    assert L.vertex_set() == {v for v in range(16) if bin(v).count("1") in (1, 2, 3)} - {15}
    assert 0 not in L.vertex_set()


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_strong_connectivity_of_star_antistar_link(d):
    P = build_cube_polytope(d)
    assert Complex.boundary(P).is_strongly_connected()
    assert star_complex(P, 0).is_strongly_connected()
    if d >= 3:
        assert antistar_complex(P, {0}).is_strongly_connected()
        assert link_complex(P, 0).is_strongly_connected()


def test_complex_restrict_and_purity():
    P = build_cube_polytope(3)
    B = Complex.boundary(P)
    sq = B.restrict_to_vertices({0, 1, 2, 3})
    assert sq.dim == 2 and sq.is_pure()
    mixed = Complex.generated_by(P, [{0, 1, 2, 3}, {5, 7}])
    assert not mixed.is_pure()
    assert not mixed.is_strongly_connected()
    empty = Complex(P)
    assert empty.dim == -1 and not empty.is_strongly_connected()


def test_complexes_with_the_same_faces_are_equal():
    P = build_cube_polytope(3)
    B = Complex.boundary(P)
    assert B == Complex.generated_by(P, P.facets)
    assert B != B.restrict_to_vertices({0, 1, 2, 3})
    assert B != B.faces


def _decomposition_inputs(P, rng):
    s1 = rng.choice(P.vertices)
    s2 = rng.choice(P.graph[s1])
    F1 = rng.choice([f for f in P.facets if s1 in f and s2 not in f])
    F12 = rng.choice([f for f in P.facets if s1 in f and s2 in f])
    return s1, s2, F1, F12


@pytest.mark.parametrize("host", ["Q5", "Q6", "linkQ6"])
def test_technical_decomposition_properties(host):
    P = {"Q5": lambda: build_cube_polytope(5),
         "Q6": lambda: build_cube_polytope(6),
         "linkQ6": lambda: link_polytope(6, 0)}[host]()
    rng = random.Random(hash(host) & 0xFFFF)
    for _ in range(8):
        s1, s2, F1, F12 = _decomposition_inputs(P, rng)
        dec = technical_decomposition(P, s1, s2, F1, F12)
        S12, A1, C = dec["S12"], dec["A1"], dec["C"]
        assert S12.is_strongly_connected()
        assert S12.dim == P.dim - 1
        assert A1.is_strongly_connected()
        assert A1.dim == P.dim - 2
        if C is not None:
            assert C.is_strongly_connected()
            assert C.vertex_set() == dec["A12"].vertex_set()


def test_technical_decomposition_rejects_bad_facets():
    P = build_cube_polytope(4)
    with pytest.raises(ValueError):
        # F1 contains s2, which the decomposition forbids
        technical_decomposition(P, 0, 2, frozenset({v for v in range(16) if v & 1 == 0}),
                                next(f for f in P.facets if {0, 2} <= f))


def test_polytope_to_json_roundtrip():
    P = build_cube_polytope(3)
    j = P.to_json()
    Q = build_from_incidence(j["dim"], j["vertices"],
                             [set(f) for f in j["facets"]], labels=j["labels"])
    assert Q.facets == P.facets
    assert Q.graph == P.graph


def test_polytope_to_json_roundtrip_link():
    # a vertex link keeps the cube's bitmasks as vertex ids, not 0..n-1
    P = link_polytope(5, 0)
    j = P.to_json()
    Q = build_from_incidence(j["dim"], j["vertices"], j["facets"],
                             labels=j["labels"])

    def facet_labels(R):
        return {frozenset(R.labels[v] for v in f) for f in R.facets}
    assert facet_labels(Q) == facet_labels(P)


# -- the facet-incidence index against brute-force definitions --------------


def _reloaded():
    j = link_polytope(6, 17).to_json()
    return build_from_incidence(j["dim"], j["vertices"], j["facets"],
                                labels=j["labels"])


INDEX_HOSTS = {
    "Q4": lambda: build_cube_polytope(4),
    "Q5": lambda: build_cube_polytope(5),
    "link(Q5,3)": lambda: link_polytope(5, 3),
    "link(Q6,17)": lambda: link_polytope(6, 17),
    "reloaded": _reloaded,
}


def _brute_generated(P, gens):
    gens = [frozenset(g) for g in gens]
    return frozenset(f for f in P.proper_faces if any(f <= g for g in gens))


def _brute_vertices(faces):
    return set().union(*faces) if faces else set()


def _brute_graph(faces):
    adj = {v: set() for v in sorted(_brute_vertices(faces))}
    for f in faces:
        if len(f) == 2:
            a, b = sorted(f)
            adj[a].add(b)
            adj[b].add(a)
    return {v: tuple(sorted(n)) for v, n in adj.items()}


def _assert_complex(C, faces):
    assert C.faces == faces
    assert C.vertex_set() == _brute_vertices(faces)
    G = C.graph()
    want = _brute_graph(faces)
    assert G == want and list(G) == list(want)


@pytest.mark.parametrize("build", [lambda: build_cube_polytope(6),
                                   lambda: link_polytope(7, 0), _reloaded],
                         ids=["Q6", "link(Q7,0)", "reloaded"])
def test_generated_graph_matches_its_definition(build):
    # keys: the vertices of a facet in the mask, in P.vertices order; rows:
    # the graph row kept to neighbours sharing a mask facet, in row order
    P = build()
    rng = random.Random(21)
    masks = [P.vertex_facets[v] for v in rng.sample(P.vertices, 5)]
    masks += [rng.getrandbits(len(P.facets)) for _ in range(10)]
    masks += [1 << rng.randrange(len(P.facets)), 0]
    for bits in masks:
        chosen = [f for i, f in enumerate(P.facets) if bits >> i & 1]
        want = [(v, tuple(w for w in P.graph[v]
                          if any(v in f and w in f for f in chosen)))
                for v in P.vertices if any(v in f for f in chosen)]
        assert list(P.generated_graph(bits).items()) == want
    with pytest.raises(KeyError):
        P.generated_graph(0)[P.vertices[0]]


@pytest.mark.parametrize("host", sorted(INDEX_HOSTS))
def test_index_masks(host):
    P = INDEX_HOSTS[host]()
    bit = {f: 1 << i for i, f in enumerate(P.facets)}
    for v in P.vertices:
        assert P.vertex_facets[v] == sum(bit[f] for f in P.facets if v in f)
    for f in P.proper_faces:
        assert P.face_facets[f] == sum(bit[g] for g in P.facets if f <= g)
    for j in range(P.dim):
        want = sorted((f for f in P.proper_faces if P.face_dim[f] == j),
                      key=sorted)
        assert list(P.faces_by_dim[j]) == want


@pytest.mark.parametrize("host", sorted(INDEX_HOSTS))
def test_index_complexes_match_brute_force(host):
    P = INDEX_HOSTS[host]()
    rng = random.Random(5)
    for v in P.vertices:
        star = [f for f in P.facets if v in f]
        _assert_complex(star_complex(P, v), _brute_generated(P, star))
        _assert_complex(Complex.generated_by(P, star), _brute_generated(P, star))
        G = P.generated_graph(P.vertex_facets[v])
        want = star_complex(P, v).graph()
        assert G == want and list(G) == list(want)
    for _ in range(10):
        gens = rng.sample(P.facets, rng.randint(1, len(P.facets)))
        _assert_complex(Complex.generated_by(P, gens), _brute_generated(P, gens))
        G = P.generated_graph(sum(1 << P.facets.index(g) for g in gens))
        want = _brute_graph(_brute_generated(P, gens))
        assert G == want and list(G) == list(want)
        # generators that are not all facets keep the subset test
        mixed = gens[:1] + rng.sample(sorted(P.faces_by_dim[1], key=sorted), 3)
        _assert_complex(Complex.generated_by(P, mixed),
                        _brute_generated(P, mixed))
    assert Complex.generated_by(P, []).faces == frozenset()
    B = Complex.boundary(P)
    _assert_complex(B, frozenset(P.proper_faces))
    X = set(rng.sample(P.vertices, 3))
    A = B.antistar(X)
    _assert_complex(A, frozenset(f for f in P.proper_faces if not f & X))
    S = star_complex(P, P.vertices[0]).restrict_to_vertices(P.vertices[::2])
    _assert_complex(S, S.faces)


@pytest.mark.parametrize("host", sorted(INDEX_HOSTS))
def test_index_face_queries_match_brute_force(host):
    P = INDEX_HOSTS[host]()
    rng = random.Random(9)
    for f in P.facets:
        want = sorted((g for g in P.proper_faces
                       if g <= f and P.face_dim[g] == P.face_dim[f] - 1),
                      key=sorted)
        assert P.ridges_of_facet(f) == want
    for f in P.proper_faces:
        assert P.facets_containing(f) == [g for g in P.facets if f <= g]
    for _ in range(200):
        S = set(rng.sample(P.vertices, rng.randint(1, 3)))
        assert P.facets_containing(S) == [g for g in P.facets if S <= g]
    assert P.facets_containing(set()) == P.facets
    assert P.facets_containing({-1}) == []


@pytest.mark.parametrize("host", sorted(INDEX_HOSTS))
def test_closure_matches_intersecting_faces(host):
    P = INDEX_HOSTS[host]()
    # the same faces, iterating by size, then by sorted vertex list: the one
    # order the face queries and complexes inherit
    assert list(P.proper_faces) == sorted(closure_by_intersection(P),
                                          key=lambda f: (len(f), sorted(f)))


@pytest.mark.parametrize("host", ["Q6", "linkQ7"])
def test_vertex_links_read_their_faces_instead_of_closing(host, monkeypatch):
    P = _fresh({"Q6": lambda: build_cube_polytope(6),
                "linkQ7": lambda: link_polytope(7, 0)}[host]())
    closures = []
    read = Polytope._read_faces

    def counted(self):
        closures.append(len(self.facets))
        return read(self)

    monkeypatch.setattr(Polytope, "_read_faces", counted)
    links = [vertex_link(P, x) for x in P.vertices[::11]]
    assert closures == []
    # nor does a build from the incidence alone: the facets certify
    # themselves
    L = links[-1]
    Polytope(L.dim, L.vertices, L.facets, labels=L.labels)
    assert closures == []


def test_vertex_links_leave_the_host_lattice_unbuilt():
    # a fresh linkQ7, built from Q7, has no lattice of its own until asked;
    # its vertex links take their facets' embeddings from its own instead
    P = vertex_link(build_cube_polytope(7), 0)
    links = [vertex_link(P, x) for x in P.vertices[::9]]
    assert all(L.dim == 5 for L in links)
    assert "face_facets" not in P.__dict__


@pytest.mark.parametrize("d", range(1, 8))
def test_cube_built_by_construction_matches_its_closed_lattice(d):
    # the cube's facet, graph-row and embedding orders feed every polytope
    # certificate, so the written-down Q_d must be the closed one, in order
    P = build_cube_polytope.__wrapped__(d)  # uncached
    verts = range(1 << d)
    closed = Polytope(d, verts, [{v for v in verts if (v >> i) & 1 == b}
                                 for i in range(d) for b in (0, 1)],
                      labels={v: vertex_to_str(v, d) for v in verts})
    assert P.facets == closed.facets
    assert list(P.vertex_facets.items()) == list(closed.vertex_facets.items())
    assert P.labels == closed.labels
    assert list(P.graph.items()) == list(closed.graph.items())
    assert list(P._embed_cache.items()) == list(closed._embed_cache.items())
    assert "face_facets" not in P.__dict__
    assert list(P.face_facets.items()) == list(closed.face_facets.items())
    assert P.faces_by_dim == closed.faces_by_dim


def test_cube_and_link_hosts_close_nothing_until_asked(monkeypatch):
    closures = []
    read = Polytope._read_faces

    def counted(self):
        closures.append(len(self.facets))
        return read(self)

    monkeypatch.setattr(Polytope, "_read_faces", counted)
    P = build_cube_polytope.__wrapped__(8)  # uncached
    L = link_polytope.__wrapped__(8, 0)
    assert L.dim == 7 and closures == []
    assert len(P.face_facets) == 3 ** 8 - 1
    assert closures == [16]


LINK_HOSTS = {
    **{f"Q{d}": (lambda d=d: build_cube_polytope(d)) for d in (4, 5, 6)},
    **{f"linkQ{d}": (lambda d=d: link_polytope(d, 0)) for d in (5, 6)},
    "link(Q6,17)": lambda: link_polytope(6, 17),
    # capped hosts: cubical polytopes that are neither cubes nor cube links
    "cap(Q4)": lambda: _capped(1, 4),
    "cap(Q5)": lambda: _capped(1, 5),
    "cap(linkQ5)": lambda: _capped(1, P=link_polytope(5, 0)),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(LINK_HOSTS)), st.booleans(), st.data())
def test_link_read_off_the_host_matches_lattice_built_alone(host, twice,
                                                            data):
    # the link is written down from its host unchecked: it must be the
    # polytope its facets certify alone, also when the host is a link
    P = LINK_HOSTS[host]()
    if twice:
        P = vertex_link(P, data.draw(st.sampled_from(P.vertices)))
    x = data.draw(st.sampled_from(P.vertices))
    L = vertex_link(P, x)
    alone = Polytope(L.dim, L.vertices, L.facets, labels=L.labels)
    assert L.facets == alone.facets
    assert L.vertex_facets == alone.vertex_facets
    assert L.graph == alone.graph and list(L.graph) == list(alone.graph)
    ridges = alone.faces_by_dim[alone.dim - 2]
    for F in L.facets:
        assert L.ridges_of_facet(F) == [R for R in ridges if R <= F]
    assert list(L._embed_cache.items()) == list(alone._embed_cache.items())
    # a lower face, read off its first facet's embedding, against its own
    # BFS embedding, on a second link of x, so none is cached yet: it is
    # kept there, not on the host
    f = data.draw(st.sampled_from(list(alone.proper_faces)))
    M = vertex_link(P, x)
    host_cache = dict(P._embed_cache)
    assert M.embed_face(f) == embed_by_bfs(alone.graph, f)
    assert f in M._embed_cache and P._embed_cache == host_cache


@pytest.mark.parametrize("build,err", [
    (lambda: vertex_link(build_cube_polytope(4), 99),
     r"vertex 99 is not in cubical 4-polytope \(16v\)"),
    (lambda: link_polytope(4, 99), "vertex 99 is not in Q4"),
    (lambda: link_polytope(4, -1), "vertex -1 is not in Q4"),
], ids=["vertex_link-99", "link_polytope-99", "link_polytope-minus-1"])
def test_link_builders_reject_a_vertex_outside_the_host(build, err):
    # these used to raise a bare KeyError and InconsistentIncidence
    with pytest.raises(ValueError, match=err):
        build()


# -- the facet-based certificate against the per-face reference -------------


def _fresh(P):
    return Polytope(P.dim, P.vertices, P.facets, labels=P.labels)


def _capped(times, d=3, P=None):
    P = P or build_cube_polytope(d)
    for _ in range(times):
        P = cap(P, P.facets[-1])
    return P


def _vertex_links(P, step):
    P = _fresh(P)
    return [vertex_link(P, x) for x in P.vertices[::step]]


CERT_HOSTS = {
    **{f"Q{d}": (lambda d=d: [build_cube_polytope(d)]) for d in range(2, 8)},
    **{f"linkQ{d}": (lambda d=d: [link_polytope(d, 0)]) for d in (4, 5, 6, 7)},
    "link(Q6,17)": lambda: [link_polytope(6, 17)],
    "cap(Q3)": lambda: [_capped(1)],
    "cap(cap(Q3))": lambda: [_capped(2)],
    "cap(cap(cap(Q3)))": lambda: [_capped(3)],
    "cap(Q5)": lambda: [_capped(1, 5)],
    "vertex links of Q5": lambda: _vertex_links(build_cube_polytope(5), 5),
    "vertex links of linkQ6": lambda: _vertex_links(link_polytope(6, 0), 7),
}


@pytest.mark.parametrize("host", sorted(CERT_HOSTS))
def test_embeddings_match_per_face_reference(host):
    # each host as built (written down, as Q_d and vertex links are, or
    # certified from its facets) and rebuilt from its incidence, against
    # the closed lattice with a BFS embedding per face
    for P in CERT_HOSTS[host]():
        R = ReferencePolytope(P.dim, P.vertices, P.facets, labels=P.labels)
        for Q in (P, _fresh(P)):
            assert list(Q.graph.items()) == list(R.graph.items())
            assert list(Q.proper_faces) == list(R.proper_faces)
            assert Q.face_dim == R.face_dim
            assert Q.faces_by_dim == R.faces_by_dim
            for f in Q.proper_faces:
                assert Q.embed_face(f) == R.embed_face(f), sorted(f)


ORDER_HOSTS = {**{f"index {h}": INDEX_HOSTS[h] for h in INDEX_HOSTS},
               **{f"cert {h}": CERT_HOSTS[h] for h in CERT_HOSTS}}


@pytest.mark.parametrize("host", sorted(ORDER_HOSTS))
def test_faces_iterate_in_one_canonical_order(host):
    made = ORDER_HOSTS[host]()
    for P in made if isinstance(made, list) else [made]:
        faces = list(P.proper_faces)
        assert faces == [f for j in sorted(P.faces_by_dim)
                         for f in P.faces_by_dim[j]]
        assert faces == sorted(faces, key=lambda f: (len(f), sorted(f)))


def _mutated(facets, rng):
    """The facets after one seeded mutation: a vertex moved from one facet
    to another (or swapped with one coming back), a vertex dropped from a
    facet, or two facets merged."""
    facets = [set(f) for f in facets]
    a, b = rng.sample(range(len(facets)), 2)
    A, B = facets[a], facets[b]
    kind = rng.choice(["move", "swap", "drop", "merge"])
    if kind == "merge":
        A |= B
        del facets[b]
    elif kind == "drop":
        A.discard(rng.choice(sorted(A)))
    elif A - B:
        v = rng.choice(sorted(A - B))
        A.discard(v)
        B.add(v)
        if kind == "swap" and B - A - {v}:
            w = rng.choice(sorted(B - A - {v}))
            B.discard(w)
            A.add(w)
    return facets


def _certify(cls, P, facets):
    try:
        return cls(P.dim, P.vertices, facets)
    except Exception as e:
        return type(e)


MUTATION_HOSTS = {
    "Q2": lambda: build_cube_polytope(2),
    "Q3": lambda: build_cube_polytope(3),
    "Q4": lambda: build_cube_polytope(4),
    "Q5": lambda: build_cube_polytope(5),
    "linkQ4": lambda: link_polytope(4, 0),
    "linkQ5": lambda: link_polytope(5, 0),
    "cap(Q3)": lambda: _capped(1),
}


@pytest.mark.parametrize("host", sorted(MUTATION_HOSTS))
def test_mutated_incidences_match_per_face_reference(host):
    P = MUTATION_HOSTS[host]()
    rng = random.Random(f"mutate-{host}")
    rejected = 0
    for _ in range(150):
        facets = _mutated(P.facets, rng)
        if rng.random() < 0.3:
            facets = _mutated(facets, rng)
        got = _certify(Polytope, P, facets)
        want = _certify(ReferencePolytope, P, facets)
        if isinstance(want, type):
            rejected += 1
            assert got is want, facets
            continue
        assert isinstance(got, Polytope), (got, facets)
        assert list(got.graph.items()) == list(want.graph.items())
        # got reads its faces off its facet embeddings, want closes its
        # facets under intersection: check got against that closure
        closure = closure_by_intersection(got)
        assert set(got.proper_faces) == closure
        assert got.face_facets == {
            f: sum(1 << i for i, g in enumerate(got.facets) if f <= g)
            for f in closure}
        assert got.faces_by_dim == want.faces_by_dim
        for f in got.proper_faces:
            assert got.embed_face(f) == want.embed_face(f)
    assert rejected


@pytest.mark.parametrize("cls,err", [
    (Polytope,
     r"face \[0, 3\] is no subcube of facet \[0, 1, 2, 3, 4, 5, 6, 7\]"),
    (ReferencePolytope, "face size 4 but degree 3"),
], ids=["Polytope", "ReferencePolytope"])
def test_lower_face_off_the_subcubes_of_its_facet_is_rejected(cls, err):
    # Q4 with a facet G on six new vertices and two of the facet F = [0..7]
    # at distance 2 in it: F & G is the right size for a face but no
    # subcube of F.  The facet certificate refuses it as such; the closure
    # takes it as an edge, so F's squares fail their own embeddings.
    P = build_cube_polytope(4)
    G = {0, 3, *range(16, 22)}
    with pytest.raises(NotCubical, match=err):
        cls(P.dim, range(22), P.facets + [G])


@pytest.mark.parametrize("f", [set(), {0, 3}, {0, 9}])
def test_embed_face_refuses_a_non_face(f):
    # the empty set, a diagonal and a set leaving the polytope are no faces
    with pytest.raises(ValueError, match=r" is not a face$"):
        build_cube_polytope(2).embed_face(f)


def test_embed_face_refuses_a_capped_facet():
    # capping Q3 on a facet keeps that facet's 4-cycle in the graph but not
    # as a face
    Q3 = build_cube_polytope(3)
    F = Q3.facets[0]
    with pytest.raises(ValueError, match=r"^\[0, 1, 2, 3\] is not a face$"):
        cap(Q3, F).embed_face(F)


@pytest.mark.parametrize("host", ["Q5", "linkQ6"])
def test_lower_faces_are_embedded_on_first_use(host):
    P = _fresh({"Q5": lambda: build_cube_polytope(5),
                "linkQ6": lambda: link_polytope(6, 0)}[host]())
    facets = [f for f in P.facets if len(f) > 1]
    assert list(P._embed_cache) == facets
    f = P.faces_by_dim[1][0]
    embedding = P.embed_face(f)
    assert list(P._embed_cache) == facets + [f]
    assert P._embed_cache[f] == embedding == P.embed_face(f)
    for x in P.vertices[::9]:
        L = vertex_link(P, x)
        assert list(L._embed_cache) == [f for f in L.facets if len(f) > 1]
        for f, embedding in L._embed_cache.items():
            assert embedding == P.embed_face(f)
