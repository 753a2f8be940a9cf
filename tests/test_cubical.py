import random
import sys

import pytest

from cubelink.complexes import build_cube_polytope, link_polytope
from cubelink.linkage.cube import solve_cube_strong
from cubelink.linkage.cubical import solve_cubical, solve_cubical_strong
from cubelink.oracle import linkable, oracle_linkage
from cubelink.paths import Bits, validate_linkage


def random_pairing(rng, verts, k):
    X = rng.sample(verts, 2 * k)
    return [(X[2 * i], X[2 * i + 1]) for i in range(k)]


def assert_linked(P, pairs, cert, avoid=()):
    assert cert.obstruction is None, cert.trace
    ok, msg = validate_linkage(P.graph, pairs, cert.paths, avoid)
    assert ok, msg


@pytest.mark.parametrize("host,n", [
    ("Q4", 250), ("Q5", 400), ("Q6", 150), ("Q7", 80), ("linkQ6", 250),
])
def test_full_capacity_random(host, n):
    P = {"Q4": lambda: build_cube_polytope(4),
         "Q5": lambda: build_cube_polytope(5),
         "Q6": lambda: build_cube_polytope(6),
         "Q7": lambda: build_cube_polytope(7),
         "linkQ6": lambda: link_polytope(6, 0)}[host]()
    k = (P.dim + 1) // 2
    rng = random.Random(len(host) + P.dim)
    for _ in range(n):
        pairs = random_pairing(rng, P.vertices, k)
        cert = solve_cubical(P, pairs)
        if cert.obstruction is None:
            assert_linked(P, pairs, cert)
        else:
            assert oracle_linkage(P.graph, pairs) is None


def test_partial_capacity_mixed():
    rng = random.Random(8)
    for P in (build_cube_polytope(5), build_cube_polytope(6), link_polytope(6, 0)):
        k_max = (P.dim + 1) // 2
        for k in range(1, k_max):
            for _ in range(40):
                pairs = random_pairing(rng, P.vertices, k)
                cert = solve_cubical(P, pairs)
                assert_linked(P, pairs, cert)


@pytest.mark.parametrize("host,n", [("Q4", 120), ("Q5", 120), ("linkQ5", 80)])
def test_oracle_cross_check(host, n):
    P = {"Q4": lambda: build_cube_polytope(4),
         "Q5": lambda: build_cube_polytope(5),
         "linkQ5": lambda: link_polytope(5, 0)}[host]()
    k = (P.dim + 1) // 2
    rng = random.Random(31)
    for _ in range(n):
        pairs = random_pairing(rng, P.vertices, k)
        cert = solve_cubical(P, pairs)
        truth = oracle_linkage(P.graph, pairs)
        assert (cert.obstruction is None) == (truth is not None), pairs
        if cert.paths:
            assert_linked(P, pairs, cert)


def test_config_case2_relink_through_neighbour():
    P = build_cube_polytope(5)
    pairs = [(0, 15), (14, 13), (11, 7)]
    cert = solve_cubical(P, pairs)
    assert "cubical/config-neighbour-facet" in cert.trace
    assert_linked(P, pairs, cert)
    # the same instance is obstructed inside the star but not in the polytope
    from cubelink.linkage.star import solve_star

    assert solve_star(P, 0, pairs).obstruction is not None


def test_config_case1_redirect():
    P = link_polytope(6, 0)
    seen = False
    for pairs in ([(1, 31), (23, 27), (29, 14)],
                  [(1, 31), (23, 27), (29, 30)],
                  [(1, 31), (15, 27), (29, 22)],
                  [(1, 31), (15, 27), (29, 30)]):
        cert = solve_cubical(P, pairs)
        assert_linked(P, pairs, cert)
        seen = seen or "cubical/config-redirect" in cert.trace
    assert seen


@pytest.mark.parametrize("host", ["Q5", "Q7", "linkQ6", "linkQ8",
                                  "link-of-linkQ7"])
def test_config_redirect_finds_no_route_in_good(host):
    # _redirect_path's premise: in the dF configuration (s1 and bt1
    # antipodal in F1, R a ridge of F1 through bt1, RJ the ridge opposite R
    # in the other facet J at R), no vertex of RJ outside the star of s1
    # whose projection onto R is free is next to bt1's neighbour in F1 - R
    from cubelink.linkage.cubical import vertex_link
    from cubelink.linkage.star import _other_facet

    P = {"Q5": lambda: build_cube_polytope(5),
         "Q7": lambda: build_cube_polytope(7),
         "linkQ6": lambda: link_polytope(6, 0),
         "linkQ8": lambda: link_polytope(8, 0),
         "link-of-linkQ7": lambda: vertex_link(link_polytope(7, 0), 7)}[host]()
    for s1 in P.vertices:
        star = set(P.generated_graph(P.vertex_facets[s1]))
        for F1 in P.facets_containing((s1,)):
            bt1 = P.opposite_in_face(F1, s1)
            near = {bt1} | {w for w in P.graph[bt1] if w in F1}
            for R in P.ridges_of_facet(F1):
                if bt1 not in R:
                    continue
                J = _other_facet(P, R, F1)
                RJ = P.opposite_subface(J, R)
                good = set(RJ) - {P.project_in_face(J, RJ, v)
                                  for v in near & R}
                (nb,) = near - R
                assert not set(P.graph[nb]) & good - star


def test_config_case2_q7():
    P = build_cube_polytope(7)
    pairs = [(0, 63), (62, 61), (59, 55), (47, 31)]
    cert = solve_cubical(P, pairs)
    assert "cubical/config-neighbour-facet" in cert.trace
    assert_linked(P, pairs, cert)


def _strong_d2_solvers():
    Q2 = build_cube_polytope(2)
    yield "cube/strong-base-d2", Q2, lambda ps, x: solve_cube_strong(2, ps, x)
    for P in [Q2] + [link_polytope(3, v) for v in range(8)]:
        yield ("cubical/strong-base", P,
               lambda ps, x, P=P: solve_cubical_strong(P, ps, x))


def test_strong_bases_in_dimension_2():
    # every pair and avoided vertex on Q_2 and on each hexagon link of Q_3:
    # a cycle less one vertex is a path, so each instance is linked
    solved = 0
    for tag, P, solve in _strong_d2_solvers():
        assert P.dim == 2
        for x in P.vertices:
            rest = [v for v in P.vertices if v != x]
            for i, s in enumerate(rest):
                for t in rest[i + 1:]:
                    cert = solve([(s, t)], x)
                    assert linkable(P.graph, [(s, t)], avoid=[x])
                    assert_linked(P, [(s, t)], cert, avoid=[x])
                    assert cert.trace == [tag]
                    solved += 1
    assert solved == 4 * 3 + 4 * 3 + 8 * 6 * 10


def test_dim3_obstruction_certificate():
    P = build_cube_polytope(3)
    cert = solve_cubical(P, [(0, 3), (1, 2)])
    assert cert.obstruction is not None
    assert cert.obstruction.kind == "config-3F"


def test_single_pair_any_host():
    P = link_polytope(5, 0)
    cert = solve_cubical(P, [(1, 30)])
    assert_linked(P, [(1, 30)], cert)


@pytest.mark.parametrize("host,n", [("Q4", 150), ("Q6", 100), ("linkQ5", 80)])
def test_strong_random(host, n):
    P = {"Q4": lambda: build_cube_polytope(4),
         "Q6": lambda: build_cube_polytope(6),
         "linkQ5": lambda: link_polytope(5, 0)}[host]()
    d = P.dim
    assert d % 2 == 0
    rng = random.Random(d + n)
    for _ in range(n):
        verts = rng.sample(P.vertices, d + 1)
        pairs = [(verts[2 * i], verts[2 * i + 1]) for i in range(d // 2)]
        x = verts[-1]
        cert = solve_cubical_strong(P, pairs, x)
        assert_linked(P, pairs, cert, avoid=(x,))
        assert all(x not in p for p in cert.paths)


def test_strong_oracle_cross_q4():
    P = build_cube_polytope(4)
    rng = random.Random(44)
    for _ in range(60):
        verts = rng.sample(P.vertices, 5)
        pairs = [(verts[0], verts[1]), (verts[2], verts[3])]
        x = verts[4]
        cert = solve_cubical_strong(P, pairs, x)
        truth = oracle_linkage(P.graph, pairs, avoid={x})
        assert truth is not None
        assert_linked(P, pairs, cert, avoid=(x,))


def test_strong_rejects_odd_dim_and_bad_x():
    P5 = build_cube_polytope(5)
    with pytest.raises(ValueError):
        solve_cubical_strong(P5, [(0, 31), (1, 30)], 2)
    P4 = build_cube_polytope(4)
    with pytest.raises(ValueError):
        solve_cubical_strong(P4, [(0, 15), (1, 14)], 1)  # x is a terminal


def test_cubical_solvers_refuse_a_wrong_pair_count():
    P4 = build_cube_polytope(4)
    with pytest.raises(ValueError, match="at most 2 pairs in a cubical"):
        solve_cubical(P4, [(0, 15), (1, 14), (2, 13)])
    with pytest.raises(ValueError, match="need exactly 2 pairs"):
        solve_cubical_strong(P4, [(0, 15)], 1)


def test_cubical_deterministic():
    P = link_polytope(6, 0)
    pairs = [(1, 62), (3, 60), (7, 56)]
    a = solve_cubical(P, pairs)
    b = solve_cubical(P, pairs)
    assert a.paths == b.paths and a.trace == b.trace


def _golden_certificates():
    """About 100 seeded certificates on Q6, Q7 and link(Q7, 0), as JSON lines."""
    import json

    from cubelink.complexes import star_complex
    from cubelink.linkage.star import solve_star

    hosts = {"Q6": build_cube_polytope(6), "Q7": build_cube_polytope(7),
             "linkQ7": link_polytope(7, 0)}
    rng = random.Random(20180226)
    lines = []

    def add(cert):
        lines.append(json.dumps(cert.to_json(), sort_keys=True))

    for name, n in (("Q6", 25), ("Q7", 20), ("linkQ7", 20)):
        P = hosts[name]
        k = (P.dim + 1) // 2
        for _ in range(n):
            add(solve_cubical(P, random_pairing(rng, P.vertices, k)))
    P = hosts["Q7"]
    for _ in range(20):
        s1 = rng.choice(P.vertices)
        X = rng.sample(sorted(star_complex(P, s1).vertex_set() - {s1}), 7)
        add(solve_star(P, s1, [(s1, X[0])] + random_pairing(rng, X[1:], 3)))
    for name in ("Q6", "linkQ7"):
        P = hosts[name]
        for _ in range(8):
            X = rng.sample(P.vertices, 7)
            add(solve_cubical_strong(P, random_pairing(rng, X[:6], 3), X[6]))
    return lines


# Recorded once the cube bases were routed by shortest paths, which changed
# their paths and no verdict; every certificate must stay byte-identical.
GOLDEN_SHA256 = "80dfa211c9d1af0199c830ccb77185ce2206334e41de42a83e5104767866ba8f"


def test_certificates_match_golden_digest():
    import hashlib

    lines = _golden_certificates()
    assert len(lines) == 101
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_SHA256


def test_incidence_built_hosts_keep_the_golden_digests(monkeypatch):
    # both certificate sets again, each host rebuilt from its incidence
    # alone: the facet certificate must give the graph rows and facet
    # embeddings that the written-down cube and the link read off its cube
    # give, so every certificate stays byte-identical
    import hashlib
    import json

    import test_star
    from cubelink import complexes

    hosts = []

    def rebuilt(build):
        def build_again(*args):
            P = build(*args)
            hosts.append(complexes.Polytope(P.dim, P.vertices, P.facets,
                                            labels=P.labels))
            return hosts[-1]
        return build_again

    for module in (sys.modules[__name__], test_star):
        monkeypatch.setattr(module, "build_cube_polytope",
                            rebuilt(complexes.build_cube_polytope))
        monkeypatch.setattr(module, "link_polytope",
                            rebuilt(complexes.link_polytope))
    lines = _golden_certificates()
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        GOLDEN_SHA256)
    lines = [json.dumps(c.to_json(), sort_keys=True)
             for c in test_star.star_branch_certificates()]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        test_star.STAR_BRANCHES_SHA256)
    assert len(hosts) == 6


@pytest.mark.parametrize("host", ["Q5", "linkQ6", "link(Q6,17)"])
def test_vertex_link_matches_lattice_built_alone(host):
    from cubelink.complexes import Polytope
    from cubelink.linkage.cubical import vertex_link

    P = {"Q5": lambda: build_cube_polytope(5),
         "linkQ6": lambda: link_polytope(6, 0),
         "link(Q6,17)": lambda: link_polytope(6, 17)}[host]()
    for x in P.vertices[::3]:
        L = vertex_link(P, x)
        alone = Polytope(L.dim, L.vertices, L.facets, labels=L.labels)
        assert list(L.proper_faces) == list(alone.proper_faces)
        assert L.graph == alone.graph and L.face_facets == alone.face_facets
        assert L.faces_by_dim == alone.faces_by_dim
        assert list(L._embed_cache.items()) == list(alone._embed_cache.items())


@pytest.mark.parametrize("host", ["Q4", "Q6", "linkQ7"])
def test_strong_solves_never_build_the_link_lattice(host, monkeypatch):
    from cubelink.complexes import Polytope
    from cubelink.linkage.cubical import vertex_link

    P = {"Q4": lambda: build_cube_polytope(4),
         "Q6": lambda: build_cube_polytope(6),
         "linkQ7": lambda: link_polytope(7, 0)}[host]()
    P.face_facets  # linkQ7 reads its own faces on first use
    reads = []
    read = Polytope._read_faces

    def counted(self):
        reads.append(self)
        return read(self)

    monkeypatch.setattr(Polytope, "_read_faces", counted)
    rng = random.Random(f"strong-{host}")
    d = P.dim
    for _ in range(40):
        verts = rng.sample(P.vertices, d + 1)
        pairs = [(verts[2 * i], verts[2 * i + 1]) for i in range(d // 2)]
        assert_linked(P, pairs, solve_cubical_strong(P, pairs, verts[-1]),
                      avoid=verts[-1:])
    assert reads == []
    # the lattice is still there on demand
    L = vertex_link(P, verts[-1])
    assert L.face_facets and reads == [L]


def test_plain_solves_on_q9_validate():
    P = build_cube_polytope(9)
    rng = random.Random(99)
    for _ in range(20):
        pairs = random_pairing(rng, P.vertices, 5)
        assert_linked(P, pairs, solve_cubical(P, pairs))


def test_strong_solves_on_link_q9_validate():
    P = link_polytope(9, 0)
    assert P.dim == 8
    rng = random.Random(98)
    for _ in range(20):
        verts = rng.sample(P.vertices, 9)
        pairs = [(verts[2 * i], verts[2 * i + 1]) for i in range(4)]
        assert_linked(P, pairs, solve_cubical_strong(P, pairs, verts[-1]),
                      avoid=verts[-1:])


def test_cube_lattices_stop_at_dimension_10():
    with pytest.raises(ValueError, match=r"supports 1 <= d <= 10"):
        build_cube_polytope(11)


def test_link_q8_sweep():
    from cubelink.complexes import star_complex
    from cubelink.linkage.star import solve_star

    P = link_polytope(8, 0)
    k = (P.dim + 1) // 2
    rng = random.Random(88)
    for _ in range(40):
        pairs = random_pairing(rng, P.vertices, k)
        assert_linked(P, pairs, solve_cubical(P, pairs))
    for _ in range(40):
        s1 = rng.choice(P.vertices)
        X = rng.sample(sorted(star_complex(P, s1).vertex_set() - {s1}), 2 * k - 1)
        pairs = [(s1, X[0])] + random_pairing(rng, X[1:], k - 1)
        cert = solve_star(P, s1, pairs)
        if cert.obstruction is not None:
            assert cert.obstruction.kind == "config-dF"
            continue
        ok, msg = validate_linkage(star_complex(P, s1).graph(), pairs, cert.paths)
        assert ok, msg


# Instances that seeded sweeps reach rarely or never, each with the trace tag
# it is built to reach: (solver, host, star centre or None, pairs, extra
# avoided vertex or None, tag).
CRAFTED = [
    ("cubical", "linkQ6", None, [(1, 31), (23, 27), (29, 14)], None,
     "cubical/config-redirect"),
    ("cubical", "linkQ6", None, [(39, 53), (54, 23), (4, 55)], None,
     "cubical/config-neighbour-facet"),
    ("cubical", "Q7", None, [(20, 72), (4, 91), (68, 74), (8, 86)], None,
     "star/case4-antipodal"),
    ("cubical", "Q7", None, [(36, 28), (19, 59), (26, 63), (4, 13)], None,
     "star/case4-blocked"),
    ("cubical", "Q5", None, [(16, 28), (8, 6), (24, 19)], None,
     "star/case1-far-crowded"),
    ("star", "Q5", 22, [(22, 3), (18, 7), (1, 14)], None,
     "star/case1-far-d5-flip"),
    # the F1 linkage meets t1's neighbour, so two pairs cross the antistar
    ("star", "Q7", 74, [(74, 49), (58, 123), (43, 33), (105, 17)], None,
     "star/case4-antipodal"),
    ("star", "Q7", 79, [(79, 73), (47, 93), (29, 89), (72, 56)], None,
     "star/case4-blocked"),
    ("cubical", "Q4", None, [(13, 8), (12, 9)], None,
     "cubical/facet-route-search"),
    ("strong", "Q4", None, [(13, 8), (12, 9)], 5, "cubical/strong-search"),
]


def _cube_link_and_crafted_certificates():
    """Seeded cube, avoiding, strong and link certificates, then CRAFTED."""
    import json

    from cubelink.linkage.cube import cube_linkage, solve_cube, solve_cube_strong
    from cubelink.linkage.link import solve_link
    from cubelink.linkage.star import solve_star

    rng = random.Random(1802_09230)
    lines = []

    def add(cert):
        lines.append(json.dumps(cert.to_json(), sort_keys=True))
        return cert

    for d in range(3, 13):
        k = (d + 1) // 2
        n = 8 if d <= 8 else 3
        for _ in range(n):
            X = rng.sample(range(1 << d), 2 * rng.randint(1, k))
            add(solve_cube(d, random_pairing(rng, X, len(X) // 2)))
        for _ in range(n):  # up to d + 1 terminals and avoided vertices
            kk = rng.randint(1, d // 2)
            X = rng.sample(range(1 << d), rng.randint(2 * kk + 1, d + 1))
            add(cube_linkage(d, random_pairing(rng, X[:2 * kk], kk), X[2 * kk:]))
        if d % 2 == 0:
            for _ in range(n):
                X = rng.sample(range(1 << d), d + 1)
                add(solve_cube_strong(d, random_pairing(rng, X[:d], d // 2),
                                      X[d]))
    for solve in (solve_cube, cube_linkage):  # config-3F in Q_3
        add(solve(3, [(0, 3), (1, 2)]))
    for D in range(4, 11):
        full = (1 << D) - 1
        for _ in range(8 if D <= 7 else 3):
            v = rng.randrange(1 << D)
            verts = [x for x in rng.sample(range(1 << D), D + 2)
                     if x not in (v, v ^ full)]
            add(solve_link(D, v, random_pairing(rng, verts, D // 2)))
    # reroutes whose terminal faces the far removed vertex leave by an edge
    for D, v, pairs in ((6, 44, [(63, 61), (27, 45)]),
                        (6, 36, [(56, 24), (32, 26)])):
        assert "link/one-side-reroute" in add(solve_link(D, v, pairs)).trace
    hosts = {"Q4": build_cube_polytope(4), "Q5": build_cube_polytope(5),
             "Q7": build_cube_polytope(7), "linkQ6": link_polytope(6, 0)}
    for solver, host, s1, pairs, x, tag in CRAFTED:
        P = hosts[host]
        if solver == "cubical":
            cert = add(solve_cubical(P, pairs))
        elif solver == "star":
            cert = add(solve_star(P, s1, pairs))
        else:
            cert = add(solve_cubical_strong(P, pairs, x))
        assert tag in cert.trace, (host, pairs, cert.trace)
    return lines


# Recorded once oracle_linkage returned the linkage its one search finds;
# every certificate must stay byte-identical.
CUBE_LINK_CRAFTED_SHA256 = (
    "5384177e2835765aea802b1122a8a28fbdb1016719ef47b9042fc49aa1093efd")


def test_cube_link_and_crafted_certificates_match_golden_digest():
    import hashlib

    lines = _cube_link_and_crafted_certificates()
    assert len(lines) == 205
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CUBE_LINK_CRAFTED_SHA256


def test_routing_cut_raises_with_the_separator_last():
    from cubelink.errors import CaseNotCovered
    from cubelink.linkage.star import route_into

    # both terminals must pass through vertex 2 to reach {3, 4}
    G = {0: (2,), 1: (2,), 2: (0, 1, 3, 4), 3: (2,), 4: (2,)}
    with pytest.raises(CaseNotCovered) as e:
        route_into(G, [0, 1], [3, 4], trace=["test/route"])
    assert e.value.trace == ["test/route", [2]]


@pytest.mark.parametrize("d,pairs,x,tag", [
    (3, [(0, 7), (1, 2)], None, "cubical/d3-search"),
    (4, [(13, 8), (12, 9)], None, "cubical/facet-route-search"),
    (4, [(13, 8), (12, 9)], 5, "cubical/strong-search"),
], ids=["d3", "facet-route", "strong"])
def test_empty_search_raises_with_its_tag_last(monkeypatch, d, pairs, x, tag):
    import cubelink.linkage.cube as cube
    from cubelink.errors import CaseNotCovered

    P = build_cube_polytope(d)

    def solve():
        if x is None:
            return solve_cubical(P, pairs)
        return solve_cubical_strong(P, pairs, x)

    cert = solve()
    assert cert.paths is not None and tag in cert.trace
    # the rule misses where cubical.py runs it on P's whole graph
    rule, verts = cube._shortest_base, sorted(P.graph)
    monkeypatch.setattr(cube, "_shortest_base", lambda B, *a: (
        None if B.verts == verts else rule(B, *a)))
    with pytest.raises(CaseNotCovered) as e:
        solve()
    assert e.value.trace[-1] == tag


def _two_pairings(verts):
    from itertools import combinations

    from cubelink.oracle import all_pairings

    return [pairs for X in combinations(verts, 4) for pairs in all_pairings(X)]


def test_cubical_solves_never_reach_the_oracle(monkeypatch):
    """Every 2-pairing of five small hosts and every strong Q4 instance
    avoiding 5 is settled by the base rule: an obstruction exactly when
    config-3F applies, and each verdict is `linkable`'s."""
    from cubelink import oracle
    from cubelink.linkage.cube import detect_config_3F

    from audit import cap, zonotope

    Q3 = build_cube_polytope(3)
    c1 = cap(Q3, Q3.facets[0])
    Q4 = build_cube_polytope(4)
    hosts = {"Z(3,4)": zonotope(3, 4), "Z(3,5)": zonotope(3, 5),
             "capped Q3": c1, "twice-capped Q3": cap(c1, c1.facets[1]),
             "Q4": Q4}
    x = 5
    # (host, pairs, avoided x or None, linkable), the truth computed
    # before the oracle is shut off
    runs = [(name, pairs, None, linkable(P.graph, pairs))
            for name, P in hosts.items()
            for pairs in _two_pairings(P.vertices)]
    runs += [("Q4", pairs, x, linkable(Q4.graph, pairs, (x,)))
             for pairs in _two_pairings([v for v in Q4.vertices if v != x])]

    def reached(*args):
        raise AssertionError("a solve reached the oracle")

    monkeypatch.setattr(oracle, "_linkable_masks", reached)
    tags, certs = set(), {}
    for name, pairs, avoid, truth in runs:
        P = hosts[name]
        if avoid is None:
            cert = solve_cubical(P, pairs)
            blocked = P.dim == 3 and detect_config_3F(P, pairs) is not None
        else:
            cert = solve_cubical_strong(P, pairs, avoid)
            blocked = False
        assert (cert.obstruction is not None) == blocked, (name, pairs)
        assert (cert.paths is not None) == truth, (name, pairs, avoid)
        tags.update(cert.trace)
        certs[name, tuple(pairs), avoid] = cert
    assert {"cubical/d3-search", "cubical/facet-route-search",
            "cubical/strong-search"} <= tags

    # instances the rule links only with the pairs in reversed order
    for name, pairs, avoid in (("Z(3,5)", [(1, 8), (4, 7)], None),
                               ("twice-capped Q3", [(2, 14), (8, 12)], None),
                               ("Q4", [(0, 9), (1, 8)], x)):
        B = Bits(hosts[name].graph)
        ps, frees = B.pair_masks(pairs, () if avoid is None else (avoid,))
        assert B.shortest_linkage(ps, frees) is None
        assert B.shortest_linkage(ps[::-1], frees[::-1]) is not None
        assert certs[name, tuple(pairs), avoid].paths is not None
