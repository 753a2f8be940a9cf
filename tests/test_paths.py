import itertools
import random
from collections.abc import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from cubelink.complexes import build_cube_polytope, link_polytope
from cubelink.errors import NoPath
from cubelink.hypercube import CubeAdjacency, cube_graph
from cubelink.oracle import oracle_linkage
from cubelink.paths import (Cut, disjoint_paths, reachable, shortest_path,
                            validate_linkage)

from audit import (CountingGraph, disjoint_paths_reference, distance,
                   internally_disjoint_count, is_path, linear_function_path,
                   min_vertex_cut_value, vertex_connectivity, x_valid_path)


def bfs_dist(G, s, t):
    from collections import deque

    seen = {s: 0}
    q = deque([s])
    while q:
        u = q.popleft()
        if u == t:
            return seen[u]
        for w in G[u]:
            if w not in seen:
                seen[w] = seen[u] + 1
                q.append(w)
    return None


def test_shortest_path_is_shortest_and_deterministic():
    G = cube_graph(4)
    rng = random.Random(1)
    for _ in range(100):
        s, t = rng.sample(range(16), 2)
        p = shortest_path(G, s, t)
        assert is_path(G, p)
        assert len(p) - 1 == bfs_dist(G, s, t)
        assert p == shortest_path(G, s, t)


def test_shortest_path_respects_forbidden():
    G = cube_graph(3)
    p = shortest_path(G, 0, 3, forbidden={1})
    assert 1 not in p
    with pytest.raises(NoPath):
        shortest_path(G, 0, 7, forbidden=set(range(1, 7)))


def test_distance_matches_shortest_path_length():
    # sparse random graphs are mostly disconnected: unreachable pairs give
    # len(G), as the oracle's pair order expects
    rng = random.Random(11)
    unreachable = 0
    for _ in range(300):
        n = rng.randint(1, 12)
        G = {v: set() for v in range(n)}
        for _ in range(rng.randint(0, 2 * n)):
            a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if a != b:
                G[a].add(b)
                G[b].add(a)
        s, t = rng.randrange(n), rng.randrange(n)
        forbidden = set(rng.sample(range(n), rng.randint(0, n // 2)))
        try:
            want = len(shortest_path(G, s, t, forbidden)) - 1
        except NoPath:
            want = len(G)
            unreachable += 1
        assert distance(G, s, t, forbidden) == want, (G, s, t, forbidden)
    assert unreachable > 30


def test_x_valid_path_endpoints_never_forbidden():
    G = cube_graph(3)
    p = x_valid_path(G, 0, 1, X={0, 1, 7})
    assert p == [0, 1]


def test_disjoint_paths_fan_in_cube():
    # the fan from 0 to 7: N(0) routed into N(7) past both ends
    G = cube_graph(3)
    fans = [[0] + p + [7]
            for p in disjoint_paths(G, G[0], G[7], forbidden={0, 7})]
    assert len(fans) == 3 == internally_disjoint_count(G, 0, 7)
    assert all(is_path(G, p) for p in fans)
    for a, b in itertools.combinations(fans, 2):
        assert not set(a[1:-1]) & set(b[1:-1])
    with pytest.raises(ValueError, match="forbidden overlaps terminals"):
        disjoint_paths(G, G[0], G[7], forbidden={1})


@pytest.mark.parametrize("d", [3, 4, 5])
def test_internally_disjoint_count_is_d_in_the_cube(d):
    # adjacent or not: an s-t edge counts once, however its ends are routed
    G = cube_graph(d)
    for s, t in itertools.combinations(sorted(G), 2):
        assert internally_disjoint_count(G, s, t) == d, (s, t)


def test_disjoint_paths_cut_witness_is_neighbourhood():
    # 0 is walled in by the rest of A, so |A| = |B| = d + 1 paths fail at
    # N(0), the least cut on the A side
    for d in (3, 4, 5):
        G = cube_graph(d)
        top = (1 << d) - 1
        with pytest.raises(Cut) as exc:
            disjoint_paths(G, {0, *G[0]}, {top, *G[top]})
        assert exc.value.separator == sorted(G[0])


def test_disjoint_paths_two_sources_into_one_vertex_are_cut_there():
    with pytest.raises(Cut) as exc:
        disjoint_paths(cube_graph(3), {0, 1}, {7})
    assert exc.value.separator == [7]


def test_disjoint_paths_shared_terminals_become_trivial():
    G = cube_graph(3)
    sys = disjoint_paths(G, {0, 1, 2}, {2, 5, 6})
    paths = sorted(p for p in sys)
    assert [2] in paths
    ok, msg = _check_ab_system(G, {0, 1, 2}, {2, 5, 6}, list(sys))
    assert ok, msg


def _route_lines():
    """Seeded Menger routings, one JSON line per call: the sorted paths, or
    the sorted separator of the Cut.  Terminals go into a facet, into a
    vertex star or into a few vertices, past 0-2 forbidden vertices, on
    the graphs of Q7, link(Q8, 0) and link(Q6, 17)."""
    import json

    hosts =(build_cube_polytope(7), link_polytope(8, 0),
             link_polytope(6, 17))
    rng = random.Random(20180309)
    lines = []

    def call(G, A, B, forbidden):
        try:
            out = sorted(disjoint_paths(G, A, B, forbidden))
        except Cut as e:
            S, A = set(e.separator), set(A)
            assert len(S) < len(A)
            assert not reachable(G, A - S, S | set(forbidden)) & (B - S)
            out = {"cut": e.separator}
        lines.append(json.dumps(out))

    for P in hosts:
        k = (P.dim + 1) // 2
        for mode in ("facet", "star", "few"):
            for _ in range(15):
                if mode == "facet":
                    B = set(rng.choice(P.facets))
                elif mode == "star":
                    B = set(P.generated_graph(
                        P.vertex_facets[rng.choice(P.vertices)]))
                else:
                    B = set(rng.sample(P.vertices, rng.randint(1, 4)))
                X = rng.sample(P.vertices, rng.randint(1, 2 * k))
                rest = sorted(set(P.vertices) - B - set(X))
                call(P.graph, X, B,
                     rng.sample(rest, min(len(rest), rng.randint(0, 2))))
    return lines


# Every route and separator must stay byte-identical.  The cut lines are
# the calls whose B is smaller than A.
ROUTES_SHA256 = (
    "fef56f551a5be3af78cff5c2979dd632368830b4a14dc483d7c127a31a93afd9")


def test_routes_match_golden_digest():
    import hashlib

    lines = _route_lines()
    assert len(lines) == 135
    assert sum(line.startswith('{"cut"') for line in lines) == 29
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ROUTES_SHA256


class _Unwalkable(Mapping):
    """A graph that answers G[v] but fails if anything walks it whole."""

    def __init__(self, G):
        self.G = G

    def __getitem__(self, v):
        return self.G[v]

    def __iter__(self):
        raise AssertionError("iterated the whole graph")

    def __len__(self):
        raise AssertionError("took the size of the whole graph")


def test_routing_reads_only_what_it_reaches():
    G = _Unwalkable(CubeAdjacency(24))
    X = [0, 1 << 20, (1 << 23) | (1 << 7)]
    B = {x ^ 0b11 for x in X} | {1 << 12}
    paths = disjoint_paths(G, set(X), B, forbidden={1 << 1})
    assert sorted(p[0] for p in paths) == sorted(X)
    assert all(len(p) <= 3 for p in paths)
    ok, msg = _check_ab_system(G, set(X), B, paths)
    assert ok, msg
    with pytest.raises(Cut) as exc:
        disjoint_paths(_Unwalkable(cube_graph(3)), {0, 1, 2, 4}, {3, 5, 6, 7})
    assert exc.value.separator == [1, 2, 4]


def test_routing_reads_each_row_at_most_once():
    # on Q7 both calls augment seven times; the first then ends in a cut
    Q = cube_graph(7)
    for A, B, forbidden in (({0, *Q[0]}, {127, *Q[127]}, ()),
                            (Q[0], Q[127], {0, 127})):
        G = CountingGraph(Q)
        try:
            assert len(disjoint_paths(G, A, B, forbidden)) == 7
        except Cut as e:
            assert e.separator == sorted(Q[0])
        assert G.reads and max(G.reads.values()) == 1
    # into a vertex star, far fewer rows than the host has
    P = link_polytope(8, 0)
    rng = random.Random(3)
    B = set(P.generated_graph(P.vertex_facets[rng.choice(P.vertices)]))
    X = rng.sample(sorted(set(P.vertices) - B), 4)
    G = CountingGraph(P.graph)
    assert len(disjoint_paths(G, X, B)) == 4
    assert max(G.reads.values()) == 1
    assert sum(G.reads.values()) < len(P.graph)


def test_routing_stops_at_the_first_free_entry():
    # each search stops when it queues an unused vertex of B, so it reads
    # no row past the last step of its path; run on to the sink, the same
    # searches read 8 and 32 rows
    G = CountingGraph(cube_graph(7))
    assert disjoint_paths(G, {0}, {3}) == [[0, 1, 3]]
    assert sum(G.reads.values()) == 2
    G = CountingGraph(cube_graph(7))
    assert disjoint_paths(G, {0, 64}, {3, 99}) == [[0, 1, 3],
                                                   [64, 65, 67, 99]]
    assert sum(G.reads.values()) == 10


def test_routing_cancels_flow_through_a_vertex():
    # the first search routes 0 along 0-2-3-4; the second, from 1, can
    # only reach 3, so it walks that path back to 0, undoing its edges
    # 2-3 and 0-2 and freeing 2, and leaves 0 along 0-6-8-9-7
    edges = [(0, 2), (2, 3), (3, 4), (1, 5), (5, 3), (0, 6), (6, 8), (8, 9),
             (9, 7)]
    G = {v: [] for v in range(10)}
    for a, b in edges:
        G[a].append(b)
        G[b].append(a)
    G = {v: tuple(sorted(ws)) for v, ws in G.items()}
    want = [[0, 6, 8, 9, 7], [1, 5, 3, 4]]
    assert disjoint_paths(G, {0, 1}, {4, 7}) == want
    assert disjoint_paths_reference(G, {0, 1}, {4, 7}) == want


ROUTING_HOSTS = {"Q5": cube_graph(5), "link(Q6,0)": link_polytope(6, 0).graph}


@st.composite
def routing_instances(draw):
    """An induced subgraph of Q5 or link(Q6, 0), with A, B and a forbidden
    set in it; A and B may meet, and B is sometimes smaller than A."""
    G = ROUTING_HOSTS[draw(st.sampled_from(sorted(ROUTING_HOSTS)))]
    verts = sorted(G)
    drop = draw(st.sets(st.sampled_from(verts), max_size=len(verts) // 3))
    H = {v: tuple(w for w in G[v] if w not in drop)
         for v in verts if v not in drop}
    keep = sorted(H)
    A = draw(st.sets(st.sampled_from(keep), min_size=1, max_size=6))
    B = draw(st.sets(st.sampled_from(keep), min_size=1, max_size=6))
    rest = [v for v in keep if v not in A | B]
    forbidden = draw(st.sets(st.sampled_from(rest), max_size=4)) if rest \
        else set()
    return H, A, B, forbidden


@settings(max_examples=300, deadline=None)
@given(routing_instances())
def test_router_matches_reference_on_drawn_subgraphs(instance):
    H, A, B, forbidden = instance
    try:
        want = disjoint_paths_reference(H, A, B, forbidden)
    except Cut as e:
        with pytest.raises(Cut) as got:
            disjoint_paths(H, A, B, forbidden)
        assert got.value.separator == e.separator
    else:
        assert disjoint_paths(H, A, B, forbidden) == want


def test_router_matches_reference_routes_and_cuts():
    # seeded calls into a facet, a vertex star or a few vertices, past 0-3
    # forbidden vertices; B is sometimes smaller than A, so cuts occur
    hosts = [(cube_graph(5), build_cube_polytope(5))]
    hosts += [(P.graph, P) for P in (build_cube_polytope(7),
                                     link_polytope(8, 0),
                                     link_polytope(6, 17))]
    rng = random.Random(22)
    cuts = routes = 0
    for G, P in hosts:
        for mode in ("facet", "star", "few"):
            for _ in range(12):
                if mode == "facet":
                    B = set(rng.choice(P.facets))
                elif mode == "star":
                    B = set(P.generated_graph(
                        P.vertex_facets[rng.choice(P.vertices)]))
                else:
                    B = set(rng.sample(P.vertices, rng.randint(1, 4)))
                A = set(rng.sample(P.vertices, rng.randint(1, P.dim + 1)))
                rest = sorted(set(P.vertices) - A - B)
                forbidden = rng.sample(rest, min(len(rest), rng.randint(0, 3)))
                try:
                    want = disjoint_paths_reference(G, A, B, forbidden)
                except Cut as e:
                    with pytest.raises(Cut) as got:
                        disjoint_paths(G, A, B, forbidden)
                    assert got.value.separator == e.separator
                    cuts += 1
                else:
                    assert disjoint_paths(G, A, B, forbidden) == want
                    routes += 1
    assert (cuts, routes) == (34, 110)


def _check_ab_system(G, A, B, paths):
    seen = set()
    for p in paths:
        if not is_path(G, p):
            return False, f"not a path: {p}"
        if p[0] not in A or p[-1] not in B:
            return False, f"bad endpoints: {p}"
        if set(p[:-1]) & B or set(p[1:]) & A - B:
            return False, f"path re-enters terminals: {p}"
        if set(p) & seen:
            return False, f"overlap at {set(p) & seen}"
        seen |= set(p)
    return True, "ok"


def brute_separator_exists(G, A, B, below):
    """Is there a vertex set of size < below whose removal cuts A from B?"""
    verts = sorted(G)
    for n in range(below):
        for S in itertools.combinations(verts, n):
            S = set(S)
            if reachable(G, A - S, S) & (B - S):
                continue
            return True
    return False


@pytest.mark.parametrize("d,k", [(3, 2), (3, 3), (4, 3)])
def test_disjoint_paths_matches_menger_exactly(d, k):
    # |B| = k first, then a B too small to take every path, then one to spare
    G = cube_graph(d)
    rng = random.Random(10 * d + k)
    for nb in [k] * 40 + [k - 1] * 20 + [k + 1] * 20:
        A = set(rng.sample(sorted(G), k))
        B = set(rng.sample(sorted(set(G) - A), nb))
        try:
            sys = disjoint_paths(G, A, B)
            ok, msg = _check_ab_system(G, A, B, list(sys))
            assert ok, msg
            assert not brute_separator_exists(G, A, B, k)
        except Cut as e:
            assert len(e.separator) < k
            S = set(e.separator)
            assert not (reachable(G, A - S, S) & (B - S))


def test_min_vertex_cut_and_connectivity():
    assert min_vertex_cut_value(cube_graph(3), 0, 7) == 3
    for d in (2, 3, 4):
        assert vertex_connectivity(cube_graph(d)) == d
    K4 = {i: tuple(j for j in range(4) if j != i) for i in range(4)}
    assert vertex_connectivity(K4) == 3


def test_linear_function_path_contract():
    # inner vertices of the path must evaluate strictly positive
    p = linear_function_path(3, [1, 0, 0], -0.5, 0b001, 0b111)
    f = lambda v: sum(c for i, c in enumerate([1, 0, 0]) if (v >> i) & 1) - 0.5
    assert all(f(v) > 0 for v in p[1:-1])
    p = linear_function_path(3, [1, 1, 1], -1, 0b001, 0b010)
    assert p[0] == 0b001 and p[-1] == 0b010
    g = lambda v: bin(v).count("1") - 1
    assert all(g(v) > 0 for v in p[1:-1])


def test_linear_function_path_single_vertex():
    assert linear_function_path(3, [1, 0, 0], 0, 0b001, 0b001) == [0b001]


def test_x_valid_path_agrees_with_oracle():
    G = cube_graph(4)
    rng = random.Random(4)
    for _ in range(60):
        s, t = rng.sample(range(16), 2)
        X = set(rng.sample(range(16), 6)) | {s, t}
        try:
            p = x_valid_path(G, s, t, X)
            assert not (set(p[1:-1]) & X)
        except NoPath:
            assert oracle_linkage({v: tuple(w for w in G[v] if w == t or w == s
                                            or w not in X)
                                   for v in G}, [(s, t)]) is None


def test_validate_linkage_detects_violations():
    G = cube_graph(3)
    pairs = [(0, 3), (4, 6)]
    good = [[0, 1, 3], [4, 6]]
    assert validate_linkage(G, pairs, good)[0]
    assert not validate_linkage(G, pairs, [[0, 1, 3]])[0]
    assert not validate_linkage(G, pairs, [[0, 2, 3], [4, 2, 6]])[0]  # overlap
    assert not validate_linkage(G, pairs, [[0, 3], [4, 6]])[0]  # non-edge
    assert not validate_linkage(G, pairs, good, avoid={1})[0]
    # unordered pairs: a reversed path is fine, a swapped pair is not
    assert validate_linkage(G, pairs, [[0, 1, 3], [6, 4]])[0]
    assert not validate_linkage(G, pairs, [[0, 4], [2, 3]])[0]
