import hashlib
import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from cubelink.complexes import build_cube_polytope, link_polytope, star_complex
from cubelink.errors import NoPath, OracleTimeout
from cubelink.hypercube import cube_graph
from cubelink.linkage.cube import detect_config_3F
from cubelink.linkage.cubical import solve_cubical
from cubelink.oracle import (
    TIMEOUT_VAR,
    all_pairings,
    census,
    cube_instance_key,
    linkable,
    oracle_linkage,
    oracle_timeout_ms,
)
from cubelink.paths import Bits, shortest_path, validate_linkage

from audit import (apply_cube_map, brute_cube_instance_key, cap,
                   common_neighbor_check, invert_cube_map,
                   oracle_linkage_reference, separator_census, zonotope)
from test_star import star_instance


def test_oracle_simple_linkage():
    G = cube_graph(3)
    paths = oracle_linkage(G, [(0, 7), (1, 6)])
    ok, msg = validate_linkage(G, [(0, 7), (1, 6)], paths)
    assert ok, msg
    assert paths[0][0] == 0 and paths[0][-1] == 7


def test_oracle_detects_unlinkable():
    # both pairs at distance 3 inside a single square facet: config-3F
    assert oracle_linkage(cube_graph(3), [(0, 3), (1, 2)]) is None


def test_oracle_respects_avoid():
    G = cube_graph(3)
    paths = oracle_linkage(G, [(0, 7)], avoid={1, 2})
    assert paths and not ({1, 2} & set(paths[0]))
    with pytest.raises(ValueError):
        oracle_linkage(G, [(0, 7)], avoid={7})
    with pytest.raises(ValueError):
        oracle_linkage(G, [(0, 7), (1, 7)])


def test_oracle_order_independence():
    G = cube_graph(4)
    rng = random.Random(7)
    for _ in range(30):
        X = rng.sample(range(16), 4)
        pairs = [(X[0], X[1]), (X[2], X[3])]
        a = oracle_linkage(G, pairs) is None
        b = oracle_linkage(G, pairs[::-1]) is None
        assert a == b


def test_oracle_timeout_raises():
    G = cube_graph(6)
    with pytest.raises(OracleTimeout):
        oracle_linkage(G, [(0, 63), (1, 62), (2, 61)], deadline=0.0)


def test_all_pairings_count():
    assert len(list(all_pairings(range(4)))) == 3
    assert len(list(all_pairings(range(6)))) == 15
    per = list(all_pairings([3, 1, 2, 0]))
    assert [(0, 1), (2, 3)] in per


def test_census_q3_exhaustive_frozen_counts():
    P = build_cube_polytope(3)
    G = cube_graph(3)

    def detector(pairs):
        w = detect_config_3F(P, pairs)
        return w.kind if w else None

    rep = census(G, 2, host="Q3", detector=detector)
    assert rep.total == 210
    assert rep.linked == 204
    assert rep.unlinked == 6
    assert rep.timeouts == 0
    assert rep.obstructions == {"config-3F": 6}
    assert rep.detector_mismatches == []
    j = rep.to_json()
    assert list(j)[:6] == ["host", "k", "mode", "total", "linked", "unlinked"]
    assert len(j["witness_samples"]) == 6


def test_census_sample_mode_is_seeded():
    G = cube_graph(4)
    a = census(G, 2, sample=50, seed=3)
    b = census(G, 2, sample=50, seed=3)
    assert a.total == b.total == 50
    assert (a.linked, a.unlinked) == (b.linked, b.unlinked)
    assert a.linked + a.unlinked + a.timeouts == 50


def test_census_rejects_bad_modes():
    with pytest.raises(ValueError):
        census(cube_graph(5), 2)
    with pytest.raises(ValueError, match="sample must be at least 1, not 0"):
        census(cube_graph(3), 2, sample=0)


@pytest.mark.parametrize("kind,oracle,mismatches,obstructions", [
    ("config-3F", "linked", 204, {"config-3F": 6}),
    (None, "unlinked", 6, {}),
])
def test_census_cross_tabulates_a_wrong_detector(kind, oracle, mismatches,
                                                 obstructions):
    rep = census(cube_graph(3), 2, detector=lambda pairs: kind)
    assert (rep.total, rep.linked, rep.unlinked) == (210, 204, 6)
    assert len(rep.detector_mismatches) == mismatches
    assert all(m["detector"] == kind and m["oracle"] == oracle
               for m in rep.detector_mismatches)
    assert rep.obstructions == obstructions


def test_census_reports_compare_by_value():
    reports = [census(cube_graph(3), 2) for _ in range(2)]
    for rep in reports:
        rep.wall_time_s = 0.0  # the one field that differs between runs
    assert reports[0] == reports[1]
    assert reports[0] != reports[0].to_json()


def test_census_counts_searches_past_their_budget_as_timeouts(monkeypatch):
    import cubelink.oracle as oracle

    monkeypatch.setattr(oracle, "oracle_timeout_ms", lambda: -1000)
    rep = census(cube_graph(4), 2, sample=5, seed=0)
    assert rep.timeouts == rep.total == 5
    assert rep.linked == rep.unlinked == 0


def test_an_exhaustive_census_runs_under_the_budget_too(monkeypatch):
    import cubelink.oracle as oracle

    monkeypatch.setattr(oracle, "oracle_timeout_ms", lambda: -1000)
    rep = census(cube_graph(3), 2)
    assert rep.timeouts == rep.total == 210
    assert rep.linked == rep.unlinked == 0


# SHA-256 of the JSON of the exhaustive 3-pair censuses, where the DFS and
# cut_off do the most work: Q4 has 119,312 linked and 808 unlinked
# pairings, link(Q4, 0) 35,366 and 9,679.  With no detector every unlinked
# pairing is listed among the mismatches, so the digest pins each verdict.
CENSUS_K3_SHA256 = {
    "Q4": "bfe0fba2e2d80f0b42aba7f8718df14079c27c475e4fe4e1412a94dc0fbce5a7",
    "linkQ4":
        "3aa25c2aed03561d3efef3c9078f33722d4a8be60ed6cf24589b0904ccc21cbd",
}


@pytest.mark.parametrize("host", sorted(CENSUS_K3_SHA256))
def test_census_k3_digest(host):
    G = cube_graph(4) if host == "Q4" else link_polytope(4, 0).graph
    rep = census(G, 3, host=host)
    digest = hashlib.sha256(
        json.dumps(rep.to_json(), sort_keys=True).encode()).hexdigest()
    assert digest == CENSUS_K3_SHA256[host]


_GEO_HOSTS = {
    "Q3": lambda: cube_graph(3),
    "Q4": lambda: cube_graph(4),
    "Q5": lambda: cube_graph(5),
    "linkQ4": lambda: link_polytope(4, 0).graph,
    "Z(3,6)": lambda: zonotope(3, 6).graph,
    "Z(3,8)": lambda: zonotope(3, 8).graph,
}


@pytest.mark.parametrize("host", ["Q3", "Q4", "linkQ4", "Z(3,6)"])
def test_geodesics_are_the_full_routes(host):
    B = Bits(_GEO_HOSTS[host]())
    geo = B.geodesics()
    n = len(B.verts)
    assert [[geo[a][b] for b in range(n) if b != a] for a in range(n)] == [
        [B.route(a, b, B.full) for b in range(n) if b != a] for a in range(n)]


@pytest.mark.parametrize("host", ["Q4", "linkQ4", "Z(3,8)", "Q5"])
def test_route_reads_the_table_only_where_it_floods_the_same(host):
    G = _GEO_HOSTS[host]()
    flood, table = Bits(G), Bits(G)
    table.geo = table.geodesics()
    n = len(flood.verts)
    rng = random.Random(11)
    hits = 0
    for _ in range(4000):
        a, b = rng.sample(range(n), 2)
        # about three vertices in four free, so both branches are taken
        free = rng.getrandbits(n) | rng.getrandbits(n)
        assert table.route(a, b, free) == flood.route(a, b, free), (a, b)
        hits += not table.geo[a][b] & ~(free | 1 << a | 1 << b)
    assert 0 < hits < 4000


def test_only_the_exhaustive_census_builds_geodesics(monkeypatch):
    built = []
    geodesics = Bits.geodesics

    def counted(self):
        built.append(len(self.verts))
        return geodesics(self)

    monkeypatch.setattr(Bits, "geodesics", counted)
    census(cube_graph(4), 2)
    assert built == [16]
    census(cube_graph(4), 2, sample=20, seed=1)
    linkable(cube_graph(4), [(0, 3), (1, 2), (4, 5)])
    oracle_linkage(cube_graph(4), [(0, 3), (1, 2), (4, 5)])
    oracle_linkage(zonotope(3, 8).graph, [(36, 34), (7, 29)])
    assert built == [16]


@pytest.mark.parametrize("d", [3, 4])
def test_separator_census_clean(d):
    rep = separator_census(d)
    assert rep["violations"] == []
    assert rep["separators"] == 1 << d  # one neighbourhood per vertex


def test_common_neighbor_check():
    for d in (2, 3, 4, 5):
        assert common_neighbor_check(cube_graph(d))
    K23 = {0: (2, 3, 4), 1: (2, 3, 4), 2: (0, 1), 3: (0, 1), 4: (0, 1)}
    assert not common_neighbor_check(K23)


def test_cube_instance_key_orbit_invariance():
    d = 3
    rng = random.Random(5)
    for _ in range(40):
        X = rng.sample(range(8), 4)
        pairs = [(X[0], X[1]), (X[2], X[3])]
        key, _ = cube_instance_key(d, pairs)
        # translate by xor and permute axes: key must not move
        t = rng.randrange(8)
        perm = rng.sample(range(d), d)

        def mv(v):
            out = 0
            for i, p in enumerate(perm):
                if ((v ^ t) >> i) & 1:
                    out |= 1 << p
            return out

        key2, _ = cube_instance_key(d, [(mv(a), mv(b)) for a, b in pairs])
        assert key == key2


def test_cube_map_roundtrip():
    d = 4
    pairs = [(3, 12), (5, 9)]
    key, tmap = cube_instance_key(d, pairs)
    for v in range(16):
        assert invert_cube_map(apply_cube_map(v, d, tmap), d, tmap) == v


def _same_as_brute(d, pairs, x=None):
    assert cube_instance_key(d, pairs, x) == \
        brute_cube_instance_key(d, pairs, x), (d, pairs, x)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cube_instance_key_matches_brute_force_ordered(d):
    # every ordering and orientation of the terminals, with and without x:
    # the map's tie-break depends on the order the anchors are met in
    n = 1 << d
    for k in range(1, min(2, n // 2) + 1):
        for seq in itertools.permutations(range(n), 2 * k):
            pairs = [(seq[2 * i], seq[2 * i + 1]) for i in range(k)]
            _same_as_brute(d, pairs)
            for x in sorted(set(range(n)) - set(seq)):
                _same_as_brute(d, pairs, x)


def test_cube_instance_key_matches_brute_force_q3_q4():
    # every 2-pair instance of Q3 and Q4, and every Q3 instance with x
    for d in (3, 4):
        for X in itertools.combinations(range(1 << d), 4):
            for pairs in all_pairings(X):
                _same_as_brute(d, pairs)
    for k in (1, 2, 3):
        for X in itertools.combinations(range(8), 2 * k):
            for pairs in all_pairings(X):
                for x in sorted(set(range(8)) - set(X)):
                    _same_as_brute(3, pairs, x)


def test_cube_instance_key_matches_brute_force_q4_with_x():
    rng = random.Random(4)
    for _ in range(1500):
        k = rng.randint(1, 3)
        X = rng.sample(range(16), 2 * k + 1)
        _same_as_brute(4, [(X[2 * i], X[2 * i + 1]) for i in range(k)], X[-1])


def test_cube_instance_key_is_bounded_to_small_cubes():
    with pytest.raises(ValueError):
        cube_instance_key(5, [(0, 31), (1, 30)])
    with pytest.raises(ValueError):
        cube_instance_key(5, [(0, 31)], x=7)


@st.composite
def cube_instances(draw):
    """(d, pairs, x) with d <= 4 and x either None or a free vertex."""
    d = draw(st.integers(1, 4))
    n = 1 << d
    k = draw(st.integers(1, n // 2))
    with_x = draw(st.booleans()) and 2 * k < n
    X = draw(st.permutations(range(n)))[:2 * k + with_x]
    pairs = [(X[2 * i], X[2 * i + 1]) for i in range(k)]
    return d, pairs, X[-1] if with_x else None


@given(cube_instances(), st.data())
def test_cube_instance_key_is_invariant_under_cube_symmetries(inst, data):
    d, pairs, x = inst
    t = data.draw(st.integers(0, (1 << d) - 1))
    perm = data.draw(st.permutations(range(d)))

    def mv(v):
        return sum(1 << p for i, p in enumerate(perm) if ((v ^ t) >> i) & 1)

    key, _ = cube_instance_key(d, pairs, x)
    moved = cube_instance_key(d, [(mv(a), mv(b)) for a, b in pairs],
                              None if x is None else mv(x))
    assert moved[0] == key


@given(cube_instances())
def test_cube_map_inverts_on_every_vertex(inst):
    d, pairs, x = inst
    key, tmap = cube_instance_key(d, pairs, x)
    images = [apply_cube_map(v, d, tmap) for v in range(1 << d)]
    assert sorted(images) == list(range(1 << d))
    assert [invert_cube_map(w, d, tmap) for w in images] == list(range(1 << d))
    # the map takes the instance onto its key
    canon = tuple(sorted(tuple(sorted(map(images.__getitem__, p)))
                         for p in pairs))
    assert (canon, None if x is None else images[x]) == key


def test_q3_unlinked_instances_are_exactly_the_facet_configs():
    G = cube_graph(3)
    P = build_cube_polytope(3)
    bad = []
    for X in itertools.combinations(range(8), 4):
        for pairs in all_pairings(X):
            if oracle_linkage(G, pairs) is None:
                bad.append(pairs)
                assert detect_config_3F(P, pairs) is not None
    assert len(bad) == 6


def _two_pairings(G):
    for X in itertools.combinations(sorted(G), 4):
        yield from all_pairings(X)


def _random_instances(hosts, n, seed):
    """n seeded instances: 2-3 pairs and 0-1 avoided vertices on a host
    drawn from `hosts`."""
    rng = random.Random(seed)
    for _ in range(n):
        G = rng.choice(hosts)
        k, a = rng.randint(2, 3), rng.randint(0, 1)
        X = rng.sample(sorted(G), 2 * k + a)
        yield G, [(X[2 * i], X[2 * i + 1]) for i in range(k)], X[2 * k:]


def _star_instances(P, n):
    """The first n instances of test_star's seed-17 stream, with their
    star graphs."""
    rng = random.Random(17)
    for _ in range(n):
        s1, pairs = star_instance(P, rng)
        yield star_complex(P, s1).graph(), pairs


def _agrees_with_reference(G, pairs, avoid=()):
    """The oracle and the unpruned reference give the same verdict, and
    the oracle's linkage is valid, avoid included, and runs each pair from
    its first terminal."""
    sol = oracle_linkage(G, pairs, avoid)
    ref = oracle_linkage_reference(G, pairs, avoid)
    assert (sol is None) == (ref is None), (len(G), pairs, avoid)
    if sol is not None:
        assert validate_linkage(G, pairs, sol, avoid) == (True, "ok"), \
            (len(G), pairs, avoid)
        assert [p[0] for p in sol] == [s for s, _ in pairs]


@pytest.mark.parametrize("host", ["Q3", "linkQ4"])
def test_oracle_matches_unpruned_reference_on_2_censuses(host):
    G = {"Q3": lambda: cube_graph(3),
         "linkQ4": lambda: link_polytope(4, 0).graph}[host]()
    for pairs in _two_pairings(G):
        _agrees_with_reference(G, pairs)


def test_oracle_matches_unpruned_reference_on_random_instances():
    hosts = [cube_graph(4), cube_graph(5), link_polytope(5, 0).graph]
    for G, pairs, avoid in _random_instances(hosts, 300, 12):
        _agrees_with_reference(G, pairs, avoid)


@pytest.mark.parametrize("host", ["Q5", "linkQ6"])
def test_oracle_matches_unpruned_reference_on_star_graphs(host):
    # the 28th instance of the stream takes the reference about a minute
    P = {"Q5": lambda: build_cube_polytope(5),
         "linkQ6": lambda: link_polytope(6, 0)}[host]()
    for G, pairs in _star_instances(P, 25):
        _agrees_with_reference(G, pairs)


@st.composite
def small_instances(draw):
    """(G, pairs, avoid): a graph of 4-10 vertices with any edge set,
    disconnected ones too, 1-3 pairs and 0-2 avoided vertices."""
    n = draw(st.integers(4, 10))
    G = {v: [] for v in range(n)}
    for a, b in draw(st.sets(st.sampled_from(
            list(itertools.combinations(range(n), 2))))):
        G[a].append(b)
        G[b].append(a)
    k = draw(st.integers(1, min(3, n // 2)))
    a = draw(st.integers(0, min(2, n - 2 * k)))
    X = draw(st.permutations(range(n)))[:2 * k + a]
    return G, [(X[2 * i], X[2 * i + 1]) for i in range(k)], X[2 * k:]


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(small_instances())
def test_oracle_matches_unpruned_reference_on_small_graphs(inst):
    # on any graph, not only on polytopes, disconnected ones too
    _agrees_with_reference(*inst)


@pytest.mark.parametrize("d,n,verts,facets", [(3, 4, 14, 12), (3, 7, 44, 42),
                                              (4, 6, 52, 40), (3, 8, 58, 56)])
def test_zonotope_counts(d, n, verts, facets):
    P = zonotope(d, n)
    assert (P.dim, len(P.vertices), len(P.facets)) == (d, verts, facets)


@pytest.mark.parametrize("n,pairs", [(8, [(36, 35), (12, 32)]),
                                     (8, [(36, 34), (7, 29)]),
                                     (10, [(23, 38), (5, 50)]),
                                     (10, [(50, 12), (15, 30)])],
                         ids=[f"pairs{i}" for i in range(4)])
def test_oracle_links_hard_zonotope_pairings_in_time(n, pairs):
    # 2-pairings of Z(3, 8) on which a backtracking search over simple
    # paths ran for over 15 s, and of Z(3, 10) on which a walk that searched
    # again before every step ran for over 20 s; one search takes
    # milliseconds
    P = zonotope(3, n)
    sol = oracle_linkage(P.graph, pairs, deadline=time.monotonic() + 5.0)
    assert validate_linkage(P.graph, pairs, sol) == (True, "ok")
    cert = solve_cubical(P, pairs)
    assert cert.paths is not None and "cubical/d3-search" in cert.trace


@pytest.mark.parametrize("host", ["Q4", "Z8"])
def test_oracle_linkage_searches_once(monkeypatch, host):
    # on Q4 the shortest-path witness fails, so the linkage is the search's
    import cubelink.oracle as oracle

    G, pairs = {"Q4": lambda: (cube_graph(4), [(0, 3), (1, 2), (4, 5)]),
                "Z8": lambda: (zonotope(3, 8).graph,
                               [(36, 34), (7, 29)])}[host]()
    calls = []

    def counted(*args):
        calls.append(args)
        return search(*args)

    search = oracle._linkable_masks
    monkeypatch.setattr(oracle, "_linkable_masks", counted)
    sol = oracle_linkage(G, pairs)
    assert len(calls) == 1
    assert validate_linkage(G, pairs, sol) == (True, "ok")


@pytest.mark.parametrize("host", ["Q3", "Q4", "linkQ4"])
def test_linkable_agrees_with_oracle_on_2_censuses(host):
    G = {"Q3": lambda: cube_graph(3), "Q4": lambda: cube_graph(4),
         "linkQ4": lambda: link_polytope(4, 0).graph}[host]()
    for pairs in _two_pairings(G):
        assert linkable(G, pairs) == (oracle_linkage(G, pairs) is not None), \
            pairs


def test_linkable_agrees_with_oracle_on_three_pairs():
    instances = [(G, pairs, ()) for host in (build_cube_polytope(5),
                                            link_polytope(6, 0))
                 for G, pairs in _star_instances(host, 60)]
    instances += [(G, pairs, avoid) for G, pairs, avoid
                  in _random_instances([cube_graph(5)], 200, 13)]
    # a config-dF in the star of 0 in Q5, and three pairs beyond Q3's reach
    instances += [(star_complex(build_cube_polytope(5), 0).graph(),
                   [(0, 15), (14, 13), (11, 7)], ()),
                  (cube_graph(3), [(0, 7), (1, 6), (2, 5)], ())]
    verdicts = set()
    for G, pairs, avoid in instances:
        found = oracle_linkage(G, pairs, avoid) is not None
        assert linkable(G, pairs, avoid) == found, (len(G), pairs, avoid)
        verdicts.add(found)
    assert verdicts == {True, False}


def _shortest_paths_link(G, pairs):
    B = Bits(G)
    return B.shortest_linkage(*B.pair_masks(pairs, ())) is not None


def test_linkable_searches_where_shortest_paths_collide():
    # (0, 3)'s shortest path through the free vertices, 0-8-9-11-3, takes
    # every neighbour of 1 that (1, 2) could leave by, yet a linkage exists
    G, pairs = cube_graph(4), [(0, 3), (1, 2), (4, 5)]
    assert not _shortest_paths_link(G, pairs)
    assert linkable(G, pairs)
    assert oracle_linkage(G, pairs) is not None


def test_linkable_agrees_with_oracle_on_a_slice_of_q4_3_pairings():
    # 2,925 of the 120,120 3-pairings of Q4 are linked although the
    # shortest-path witness fails, so the slice reaches the search on both
    # verdicts
    G = cube_graph(4)
    pairings = [p for X in itertools.combinations(range(16), 6)
                for p in all_pairings(X)]
    seen = set()
    for pairs in random.Random(33).sample(pairings, 2000):
        found = oracle_linkage(G, pairs) is not None
        assert linkable(G, pairs) == found, pairs
        seen.add((_shortest_paths_link(G, pairs), found))
    assert seen == {(True, True), (False, True), (False, False)}


def test_linkable_searches_every_config_3F_pairing_of_q3():
    # the witness links every 2-pairing of Q3 but the six config-3F ones,
    # which the search then refutes
    G = cube_graph(3)
    failed = [pairs for pairs in _two_pairings(G)
              if not _shortest_paths_link(G, pairs)]
    assert len(failed) == 6
    assert all(detect_config_3F(build_cube_polytope(3), pairs)
               and not linkable(G, pairs) for pairs in failed)


def test_oracle_timeout_reads_its_variable(monkeypatch):
    monkeypatch.setenv(TIMEOUT_VAR, "250")
    assert oracle_timeout_ms() == 250


def test_linkable_timeout_raises():
    with pytest.raises(OracleTimeout):
        linkable(cube_graph(6), [(0, 63), (1, 62), (2, 61)], deadline=0.0)


def test_route_is_a_bfs_shortest_path_and_0_when_cut_off():
    # the oracle's one flood fill answers reachability by its mask alone
    rng = random.Random(5)
    cut = 0
    for _ in range(400):
        n = rng.randint(2, 12)
        G = {v: [] for v in range(n)}
        for a, b in itertools.combinations(range(n), 2):
            if rng.random() < 0.3:
                G[a].append(b)
                G[b].append(a)
        a, b = rng.sample(range(n), 2)
        free = rng.getrandbits(n)
        mask = Bits(G).route(a, b, free)
        try:
            path = shortest_path(G, a, b, [v for v in G if not free >> v & 1])
        except NoPath:
            assert mask == 0
            cut += 1
        else:
            assert mask.bit_count() == len(path)
            assert not mask & ~free & ~(1 << a | 1 << b)
    assert 100 < cut < 300


def test_linkable_rejects_bad_instances():
    G = cube_graph(3)
    assert linkable(G, [(0, 7)], avoid={1, 2})
    assert not linkable(G, [(0, 7)], avoid={1, 2, 4})  # 0 is cut off
    assert not linkable(G, [(0, 3), (1, 2)])
    with pytest.raises(ValueError):
        linkable(G, [(0, 7), (1, 7)])
    with pytest.raises(ValueError):
        linkable(G, [(0, 7)], avoid={7})
    with pytest.raises(ValueError, match="terminal not in the graph"):
        linkable(G, [(0, 8)])


@pytest.mark.parametrize("facets,n,total,f2", [((0,), 12, 1485, 10),
                                               ((0, 1), 16, 5460, 14)])
def test_capped_cube_census_finds_one_blocked_pairing_per_2_face(facets, n,
                                                                 total, f2):
    # a cubical 3-polytope is planar and 3-connected: two pairs are blocked
    # exactly when their terminals alternate around one 2-face
    P = build_cube_polytope(3)
    for i in facets:
        P = cap(P, P.facets[i])

    def detector(pairs):
        w = detect_config_3F(P, pairs)
        return w.kind if w else None

    assert (len(P.vertices), len(P.faces_by_dim[2])) == (n, f2)
    rep = census(P.graph, 2, detector=detector)
    assert (rep.total, rep.unlinked) == (total, f2)
    assert rep.obstructions == {"config-3F": f2}
    assert rep.detector_mismatches == [] and rep.timeouts == 0
