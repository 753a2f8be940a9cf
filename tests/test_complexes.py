import random

import pytest

from cubelink.complexes import (
    Complex,
    Polytope,
    antistar_complex,
    build_cube_polytope,
    build_from_incidence,
    link_complex,
    link_polytope,
    star_complex,
    technical_decomposition,
)
from cubelink.errors import InconsistentIncidence, NoPath, NotCubical
from cubelink.hypercube import cube_graph, opposite_vertex, whole_cube


def comb(n, k):
    import math

    return math.comb(n, k)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_cube_polytope_face_counts(d):
    P = build_cube_polytope(d)
    assert P.cubical
    assert len(P.vertices) == 1 << d
    assert len(P.facets) == 2 * d
    for j in range(d):
        assert len(P.faces_of_dim(j)) == comb(d, j) * (1 << (d - j))
    assert P.graph == cube_graph(d)


def test_cube_polytope_face_queries():
    P = build_cube_polytope(3)
    F = frozenset({0, 1, 2, 3})
    assert P.face_of(F) and P.dim_of(F) == 2
    assert P.smallest_face({0, 3}) == F
    assert P.smallest_face({0, 7}) is None
    assert len(P.ridges_of_facet(F)) == 4
    assert P.opposite_in_face(F, 0) == 3
    assert P.opposite_subface(F, {0, 1}) == frozenset({2, 3})
    assert P.project_in_face(F, frozenset({2, 3}), 0) == 2
    assert P.project_in_face(F, frozenset({2, 3}), 3) == 3


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


def test_inconsistent_incidence_rejected():
    with pytest.raises(InconsistentIncidence):
        Polytope(2, range(4), [{0, 1}, {1, 2}])  # does not cover
    with pytest.raises(InconsistentIncidence):
        Polytope(2, range(4), [{0, 1, 2, 3}, {0, 1}])  # nested facets


def test_build_from_incidence_square():
    P = build_from_incidence(2, 4, [{0, 1}, {1, 3}, {2, 3}, {0, 2}],
                             labels=["00", "01", "10", "11"])
    assert P.cubical and P.dim == 2
    assert P.labels[3] == "11"


@pytest.mark.parametrize("d", [3, 4, 5])
def test_link_polytope_shape(d):
    L = link_polytope(d, 0)
    assert L.dim == d - 1
    assert len(L.vertices) == (1 << d) - 2
    assert len(L.facets) == 2 * comb(d, 2)
    assert L.cubical


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


def test_facet_ridge_path():
    P = build_cube_polytope(3)
    B = Complex.boundary(P)
    f = frozenset({0, 1, 2, 3})
    g = frozenset({4, 5, 6, 7})
    path = B.facet_ridge_path(f, g)
    assert path[0] == f and path[-1] == g
    for a, b in zip(path, path[1:]):
        assert P.face_dim[a & b] == 1
    with pytest.raises(NoPath):
        others = [h for h in P.facets if h not in (f, g)]
        B.facet_ridge_path(f, g, forbidden=others)


def test_complex_restrict_and_purity():
    P = build_cube_polytope(3)
    B = Complex.boundary(P)
    sq = B.restrict_to_vertices({0, 1, 2, 3})
    assert sq.dim == 2 and sq.is_pure()
    mixed = Complex.generated_by(P, [{0, 1, 2, 3}, {5, 7}])
    assert not mixed.is_pure()


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
