import itertools
import random
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from cubelink import hypercube
from cubelink.errors import NoPath
from cubelink.hypercube import (
    CubeAdjacency,
    CubeFace,
    associated_pairs,
    cube_graph,
    dist,
    face_graph,
    face_path,
    facet,
    find_unassociated_pair,
    opposite_facet,
    project,
    smallest_face,
    vertex_from_str,
    vertex_to_str,
    whole_cube,
)
from cubelink.paths import shortest_path

from audit import all_faces


def test_dist_basics():
    assert dist(0b000, 0b111) == 3
    assert dist(0b0101, 0b0101) == 0
    assert dist(0b01, 0b10) == 2


@given(st.integers(1, 12), st.data())
def test_vertex_str_roundtrip(d, data):
    v = data.draw(st.integers(0, (1 << d) - 1))
    s = vertex_to_str(v, d)
    assert len(s) == d
    assert vertex_from_str(s) == v


def test_vertex_to_str_matches_the_bit_join():
    # one character per coordinate, coordinate 0 first; bits at d and
    # above are dropped
    def join(v, d):
        return "".join(str((v >> i) & 1) for i in range(d))

    rng = random.Random(5)
    cases = [(d, v) for d in range(1, 11) for v in range(1 << d)]
    cases += [(30, rng.randrange(1 << 30)) for _ in range(1000)]
    cases += [(d, rng.randrange(1 << (d + 8))) for d in range(1, 31)]
    for d, v in cases:
        s = vertex_to_str(v, d)
        assert s == join(v, d)
        assert vertex_from_str(s) == v & ((1 << d) - 1)


def test_vertex_from_str_rejects_garbage():
    with pytest.raises(ValueError):
        vertex_from_str("01x")
    with pytest.raises(ValueError):
        vertex_from_str("")


def test_opposite_facet():
    F = facet(4, 0, 0)
    Fo = opposite_facet(F)
    assert Fo == facet(4, 0, 1)
    assert opposite_facet(Fo) == F
    assert not set(F.vertices()) & set(Fo.vertices())
    assert len(F.vertices()) == 8
    with pytest.raises(ValueError):
        opposite_facet(CubeFace(4, 0b11, 0b00))


@pytest.mark.parametrize("call,err", [
    (lambda: facet(3, 3, 0), "axis 3 out of range"),
    (lambda: project(0, CubeFace(3, 0b011, 0)), "target must be a facet"),
    (lambda: smallest_face(3, []), "empty vertex set"),
    (lambda: associated_pairs(3, []), "empty vertex set"),
    (lambda: find_unassociated_pair(2, range(4)), "all 2 directions"),
], ids=["facet", "project", "smallest_face", "associated_pairs",
        "find_unassociated_pair"])
def test_face_helpers_refuse_what_they_cannot_answer(call, err):
    with pytest.raises(ValueError, match=err):
        call()


def test_cube_face_is_a_value():
    K = CubeFace(4, 0b0101, 0b1111)
    assert K.fixed_values == 0b0101  # masked to fixed_mask
    assert K == CubeFace(4, 0b0101, 0b0101)
    assert hash(K) == hash((4, 0b0101, 0b0101))
    faces = [CubeFace(4, 0b0011, 0b0001), CubeFace(3, 0b100, 0),
             CubeFace(4, 0b0001, 0b0001), CubeFace(4, 0b0001, 0)]
    assert [tuple(F) for F in sorted(faces)] == sorted(
        (F.d, F.fixed_mask, F.fixed_values) for F in faces)
    with pytest.raises(AttributeError):
        K.fixed_mask = 0
    with pytest.raises(AttributeError):
        K.label = "K"


@pytest.mark.parametrize("d,mask", [(0, 0), (3, 0b1000)])
def test_cube_face_refuses_a_mask_outside_its_cube(d, mask):
    with pytest.raises(ValueError):
        CubeFace(d, mask, 0)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_project_is_adjacency_preserving_bijection(d):
    for axis in range(d):
        F = facet(d, axis, 0)
        Fo = opposite_facet(F)
        img = {project(v, Fo) for v in F.vertices()}
        assert img == set(Fo.vertices())
        for v in F.vertices():
            assert dist(v, project(v, Fo)) == 1
            assert project(project(v, Fo), F) == v
            assert project(v, F) == v  # identity clause
        G = cube_graph(d)
        for u, v in itertools.combinations(F.vertices(), 2):
            assert (v in G[u]) == (project(v, Fo) in G[project(u, Fo)])


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_smallest_face_dimension_is_distance(d):
    rng = random.Random(d)
    for _ in range(200):
        u = rng.randrange(1 << d)
        v = rng.randrange(1 << d)
        K = smallest_face(d, [u, v])
        assert K.dim == dist(u, v)
        assert K.contains(u) and K.contains(v)


def test_smallest_face_of_vertex_and_opposite():
    for d in (3, 4):
        for K in all_faces(d, d - 1):
            for v in K.vertices():
                assert smallest_face(d, [v, v ^ K.free_mask]) == K


def test_associated_pairs_examples():
    assert associated_pairs(3, [0b000, 0b111]) == set()
    assert associated_pairs(3, [0b000, 0b001, 0b011]) == {0, 1}
    assert associated_pairs(5, [7]) == set()


def test_association_bound_exhaustive_small():
    for d in (2, 3):
        verts = range(1 << d)
        for n in range(1, 1 << d):
            for Z in itertools.combinations(verts, n):
                assert len(associated_pairs(d, Z)) <= len(Z) - 1


@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_association_bound_sampled(d):
    rng = random.Random(d)
    for _ in range(2000):
        n = rng.randint(1, min(2 * d, 1 << d))
        Z = rng.sample(range(1 << d), n)
        assert len(associated_pairs(d, Z)) <= len(Z) - 1


def test_find_unassociated_pair_defines_unassociated_split():
    rng = random.Random(0)
    for d in (3, 4, 5, 6):
        for _ in range(300):
            Z = rng.sample(range(1 << d), rng.randint(1, d))
            axis = find_unassociated_pair(d, Z)
            assert axis == min(set(range(d)) - associated_pairs(d, Z))
            F1 = facet(d, axis, 1)
            for z in Z:
                assert (z ^ (1 << axis)) not in Z
                _ = F1  # split exists for every returned axis


def test_cube_graph_is_read_only():
    G = cube_graph(3)
    with pytest.raises(TypeError):
        G[0] = ()
    assert G[0] == (1, 2, 4) and cube_graph(3) is G


def test_cube_graph_degrees_and_order():
    for d in (1, 2, 3, 5):
        G = cube_graph(d)
        assert len(G) == 1 << d
        for v, nbrs in G.items():
            assert len(nbrs) == d
            assert list(nbrs) == sorted(nbrs)
            assert all(dist(v, w) == 1 for w in nbrs)


def test_face_graph_is_sub_cube():
    K = CubeFace(5, 0b00101, 0b00100)
    G = face_graph(K)
    assert len(G) == 8
    assert all(len(n) == 3 for n in G.values())


def test_face_path_matches_bfs_on_face_graph():
    # the path is the one BFS over the materialised face graph returns, so
    # it is shortest, lies in K and avoids `forbidden`; NoPath exactly when
    # BFS finds none
    rng = random.Random(11)
    refuted = 0
    for _ in range(1500):
        d = rng.randint(1, 8)
        K = CubeFace(d, rng.randrange(1 << d) & ~(1 << rng.randrange(d)),
                     rng.randrange(1 << d))
        V = K.vertices()
        s, t = rng.choice(V), rng.choice(V)
        forbidden = set(rng.sample(V, rng.randint(0, len(V) // 2)))
        try:
            want = shortest_path(face_graph(K), s, t, forbidden)
        except NoPath:
            with pytest.raises(NoPath):
                face_path(K, s, t, forbidden)
            refuted += 1
            continue
        got = face_path(K, s, t, forbidden)
        assert got == want
        assert all(K.contains(v) for v in got)
        assert not forbidden & set(got) - {s, t}
    assert refuted > 10


def test_face_path_in_a_clear_interval_matches_bfs(monkeypatch):
    # every shortest s-t path lies in the subcube where s and t agree; the
    # path is written down when no forbidden vertex lies there and its
    # shortest paths are counted when one does, and either way it is the one
    # BFS returns
    ran = {"walk": 0, "geodesics": 0}

    def counted(name):
        inner = getattr(hypercube, name)

        def call(*args):
            ran[name.strip("_")] += 1
            return inner(*args)
        return call

    monkeypatch.setattr(hypercube, "_walk", counted("_walk"))
    monkeypatch.setattr(hypercube, "_geodesics", counted("_geodesics"))
    rng = random.Random(23)
    for n in range(800):
        d = rng.randint(1, 10)
        K = CubeFace(d, rng.randrange(1 << d), rng.randrange(1 << d))
        V = K.vertices()
        s, t = rng.choice(V), rng.choice(V)
        agree = ~(s ^ t)
        inside = [v for v in V if not (v ^ t) & agree and v not in (s, t)]
        off = [v for v in V if (v ^ t) & agree]
        outside = [v for v in range(1 << d) if not K.contains(v)]
        kind = n % 4
        forbidden = set()
        if kind == 1:
            forbidden = set(rng.sample(outside, min(len(outside), 6)))
        elif kind >= 2:
            forbidden = set(rng.sample(off, rng.randint(0, len(off) // 2)))
        if kind == 3 and inside:
            forbidden.add(rng.choice(inside))
        want = shortest_path(face_graph(K), s, t, forbidden)
        assert face_path(K, s, t, forbidden) == want
    assert ran["walk"] > 50 and ran["geodesics"] > 50


def test_face_path_in_a_blocked_interval_matches_bfs(monkeypatch):
    # forbidden vertices crowd the interval between s and t: the path is
    # still the one BFS returns, whether a shortest path gets through, only
    # a longer one does or none does; a search runs only in the latter two
    search, searched = hypercube._search, []

    def counted(*args):
        searched.append(args)
        return search(*args)

    monkeypatch.setattr(hypercube, "_search", counted)
    rng = random.Random(29)
    seen = {"geodesic": 0, "detour": 0, "none": 0}
    for _ in range(600):
        d = rng.randint(2, 9)
        free = rng.sample(range(d), rng.randint(2, d))
        K = CubeFace(d, ((1 << d) - 1) & ~sum(1 << i for i in free),
                     rng.randrange(1 << d))
        V = K.vertices()
        s, t = rng.sample(V, 2)
        agree = ~(s ^ t)
        between = [v for v in V if not (v ^ t) & agree and v not in (s, t)]
        off = [v for v in V if (v ^ t) & agree]
        p = rng.random()
        q = rng.random() * p
        forbidden = {v for v in between if rng.random() < p}
        if not forbidden:
            continue
        forbidden |= {v for v in off if rng.random() < q}
        del searched[:]
        try:
            want = shortest_path(face_graph(K), s, t, forbidden)
        except NoPath:
            with pytest.raises(NoPath):
                face_path(K, s, t, forbidden)
            seen["none"] += 1
            assert searched
            continue
        assert face_path(K, s, t, forbidden) == want
        if len(want) - 1 == (s ^ t).bit_count():
            seen["geodesic"] += 1
            assert not searched
        else:
            seen["detour"] += 1
            assert searched
    assert min(seen.values()) >= 20, seen


def test_geodesic_count_matches_flip_orders():
    # the shortest w-t paths are the orders in which w ^ t's bits flip;
    # count those that meet no forbidden vertex, ends included, and compare
    rng = random.Random(31)
    partial = 0
    for _ in range(300):
        d = rng.randint(1, 8)
        w = rng.randrange(1 << d)
        flips = rng.sample(range(d), rng.randint(0, min(d, 6)))
        t = w ^ sum(1 << i for i in flips)
        between = [v for v in range(1 << d) if not (v ^ w) & ~(w ^ t)]
        forbidden = set(rng.sample(between, rng.randint(0, len(between) // 3)))
        forbidden |= set(rng.sample(range(1 << d), min(1 << d, 3)))
        if rng.random() < 0.8:
            forbidden -= {w, t}
        clear = 0
        for order in itertools.permutations(flips):
            v = w
            walk = [v]
            for i in order:
                v ^= 1 << i
                walk.append(v)
            clear += not forbidden & set(walk)
        assert hypercube._geodesics(w, t, forbidden) == clear
        partial += 0 < clear < factorial(len(flips))
    assert partial > 50


def test_clear_face_paths_run_no_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("a clear interval was searched")

    monkeypatch.setattr(hypercube, "_search", no_search)
    d = 30
    ones = (1 << d) - 1
    # clear s's ones from the highest axis down
    assert face_path(whole_cube(d), ones, 0) == [
        (1 << i) - 1 for i in range(d, -1, -1)]
    # set t's ones from the lowest axis up; the forbidden vertices are in
    # the facet or out of it, never between the ends
    F = facet(d, d - 1, 0)
    forbidden = {1 << 20, (1 << 29) | 1, (1 << 15) | 3, ones}
    assert face_path(F, 0, (1 << 10) - 1, forbidden) == [
        (1 << i) - 1 for i in range(11)]


def test_face_path_walled_in_end_fails_fast():
    # every face neighbour of t is forbidden: the search from t stops at once
    d = 24
    F = facet(d, d - 1, 0)
    walls = {1 << i for i in range(d - 1)}
    for s, t in (((1 << (d - 1)) - 1, 0), (0, (1 << (d - 1)) - 1)):
        blocked = walls if t == 0 else {t ^ w for w in walls}
        with pytest.raises(NoPath):
            face_path(F, s, t, blocked)
    with pytest.raises(ValueError):
        face_path(F, 0, 1 << (d - 1))


def test_cube_adjacency_edge_test_matches_its_rows():
    # has_edge(a, b) answers `b in A[a]`, KeyError for a outside Q_d included
    def agree(A, a, b):
        if a in A:
            assert A.has_edge(a, b) == (b in A[a]), (A.d, a, b)
        else:
            for test in (lambda: b in A[a], lambda: A.has_edge(a, b)):
                with pytest.raises(KeyError):
                    test()

    for d in range(1, 7):
        A = CubeAdjacency(d)
        for a in range(-1, (1 << d) + 1):
            for b in range(-1, (1 << d) + 1):
                agree(A, a, b)
    A = CubeAdjacency(30)
    rng = random.Random(31)
    for _ in range(1000):
        a = rng.randrange(-1, (1 << 30) + 1)
        # a random vertex is almost never adjacent: flip one bit half the
        # time, bit 30 leaving Q_30
        b = rng.choice((rng.randrange(-1, (1 << 30) + 1),
                        a ^ 1 << rng.randrange(31)))
        agree(A, a, b)


def test_has_edge_answers_row_membership():
    # one range test and a popcount must give `b in A[a]` for every vertex
    # a and every b in or just outside Q_d, KeyError for an a that is no
    # vertex, and False for a b that is none
    for d in range(1, 9):
        A = CubeAdjacency(d)
        n = 1 << d
        for a in range(n):
            row = A[a]
            assert [A.has_edge(a, b) for b in range(-1, n + 1)] == [
                b in row for b in range(-1, n + 1)], (d, a)
            for b in ("0", 1.0, None, -2, -n, 2 * n, a ^ n):
                assert A.has_edge(a, b) is False, (d, a, b)
        for a in (-1, -n, n, 2 * n, "0", 1.0, None):
            with pytest.raises(KeyError):
                A.has_edge(a, 0)


@settings(deadline=None)
@given(st.integers(1, 12), st.data())
def test_derived_faces_equal_checked_faces(d, data):
    # the faces the solver derives skip CubeFace's checks, so each must be
    # the checked face, fixed_values masked, and a CubeFace
    def same(F, mask, values):
        want = CubeFace(d, mask, values)
        assert type(F) is CubeFace and F == want
        assert (F.d, F.fixed_mask, F.fixed_values) == (d, mask, values & mask)

    axis = data.draw(st.integers(0, d - 1))
    value = data.draw(st.integers(-2, 3))
    F = facet(d, axis, value)
    same(F, 1 << axis, value << axis)
    same(opposite_facet(F), 1 << axis, (value << axis) ^ (1 << axis))
    same(whole_cube(d), 0, 0)
    S = data.draw(st.lists(st.integers(0, (1 << d) - 1), min_size=1,
                           max_size=6))
    fixed = sum(1 << i for i in range(d) if len({v >> i & 1 for v in S}) == 1)
    same(smallest_face(d, S), fixed, S[0])
    mask = data.draw(st.integers(0, (1 << d) - 1))
    values = data.draw(st.integers(-(1 << d), 1 << d))
    same(hypercube._face(d, mask, values), mask, values)


def test_cube_adjacency_matches_cube_graph():
    for d in range(1, 11):
        A, G = CubeAdjacency(d), cube_graph(d)
        assert len(A) == len(G) and list(A) == sorted(G)
        assert all(A[v] == G[v] for v in G)
    A = CubeAdjacency(30)
    assert A[0] == tuple(1 << i for i in range(30))
    rng = random.Random(30)
    for v in (rng.randrange(1 << 30) for _ in range(1000)):
        assert A[v] == tuple(sorted(v ^ (1 << i) for i in range(30)))
    assert (1 << 30) - 1 in A and 1 << 30 not in A
    for bad in (-1, 1 << 30, "0"):
        with pytest.raises(KeyError):
            A[bad]
