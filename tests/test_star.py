import itertools
import random

import pytest

from cubelink.complexes import build_cube_polytope, link_polytope, star_complex
from cubelink.errors import CaseNotCovered
from cubelink.linkage.certs import Unlinkable
from cubelink.linkage.cubical import solve_cubical
from cubelink.linkage.link import solve_link
from cubelink.linkage.star import (
    Induced,
    detect_config_dF,
    projections_star_injection,
    solve_star,
)
from cubelink.oracle import oracle_linkage
from cubelink.paths import validate_linkage

from audit import CountingGraph, cap, projections_star_injection_reference


def star_instance(P, rng):
    k = (P.dim + 1) // 2
    s1 = rng.choice(P.vertices)
    SV = sorted(star_complex(P, s1).vertex_set() - {s1})
    X = rng.sample(SV, 2 * k - 1)
    pairs = [(s1, X[0])] + [(X[2 * i + 1], X[2 * i + 2]) for i in range(k - 1)]
    return s1, pairs


def assert_star_linked(P, s1, pairs, cert):
    assert cert.obstruction is None, cert.trace
    G = star_complex(P, s1).graph()
    ok, msg = validate_linkage(G, pairs, cert.paths)
    assert ok, msg


@pytest.mark.parametrize("host,n", [("Q5", 500), ("Q7", 120), ("linkQ6", 250)])
def test_star_random_instances(host, n):
    P = {"Q5": lambda: build_cube_polytope(5),
         "Q7": lambda: build_cube_polytope(7),
         "linkQ6": lambda: link_polytope(6, 0)}[host]()
    rng = random.Random(len(host))
    for _ in range(n):
        s1, pairs = star_instance(P, rng)
        cert = solve_star(P, s1, pairs)
        if cert.obstruction is None:
            assert_star_linked(P, s1, pairs, cert)
        else:
            assert cert.obstruction.kind == "config-dF"


@pytest.mark.parametrize("host", ["Q5", "linkQ6"])
def test_star_obstruction_iff_oracle_unlinkable(host):
    P = {"Q5": lambda: build_cube_polytope(5),
         "linkQ6": lambda: link_polytope(6, 0)}[host]()
    rng = random.Random(17)
    for _ in range(60):
        s1, pairs = star_instance(P, rng)
        cert = solve_star(P, s1, pairs)
        G = star_complex(P, s1).graph()
        truth = oracle_linkage(G, pairs)
        assert (cert.obstruction is None) == (truth is not None), (s1, pairs)


def test_config_dF_constructed_instance():
    P = build_cube_polytope(5)
    pairs = [(0, 15), (14, 13), (11, 7)]
    w = detect_config_dF(P, 0, pairs)
    assert w is not None
    assert w.kind == "config-dF"
    assert w.pair == (0, 15)
    assert sorted(w.blocking) == [7, 11, 13, 14]
    cert = solve_star(P, 0, pairs)
    assert cert.obstruction is not None
    G = star_complex(P, 0).graph()
    assert oracle_linkage(G, pairs) is None


def test_config_dF_absent_on_generic_instance():
    P = build_cube_polytope(5)
    pairs = [(0, 30), (5, 9), (18, 24)]
    assert detect_config_dF(P, 0, pairs) is None
    cert = solve_star(P, 0, pairs)
    assert_star_linked(P, 0, pairs, cert)


@pytest.mark.parametrize("host", ["Q5", "Q6", "linkQ6"])
def test_projections_star_injection(host):
    P = {"Q5": lambda: build_cube_polytope(5),
         "Q6": lambda: build_cube_polytope(6),
         "linkQ6": lambda: link_polytope(6, 0)}[host]()
    rng = random.Random(3)
    for _ in range(5):
        F = rng.choice(P.facets)
        s = rng.choice(sorted(F))
        f = projections_star_injection(P, s, F)
        so = P.opposite_in_face(F, s)
        assert set(f) == set(F) - {so}
        assert len(set(f.values())) == len(f)
        for v, w in f.items():
            assert w in P.graph[v]
            assert w not in F


INJECTION_HOSTS = {
    "Q5": lambda: build_cube_polytope(5),
    "Q7": lambda: build_cube_polytope(7),
    "link(Q6,0)": lambda: link_polytope(6, 0),
    "link(Q8,0)": lambda: link_polytope(8, 0),
    "link(Q7,13)": lambda: link_polytope(7, 13),
    "cap(Q5)": lambda: cap(build_cube_polytope(5),
                           build_cube_polytope(5).facets[0]),
}


@pytest.mark.parametrize("host", sorted(INJECTION_HOSTS))
def test_star_injection_matches_reference(host):
    # read off F's coordinates, the injection is the ridge-by-ridge one: the
    # same images, inserted in the same order
    P = INJECTION_HOSTS[host]()
    for s in P.vertices:
        for F in P.facets_containing((s,)):
            f = projections_star_injection(P, s, F)
            want = projections_star_injection_reference(P, s, F)
            assert list(f.items()) == list(want.items()), (s, sorted(F))


def _seeded_star_solves():
    """Seeded solve_star calls and full-capacity solve_cubical calls (the
    star route) on Q7 and link(Q8, 0), as argument-free callables."""
    calls = []
    for host in ("Q7", "link(Q8,0)"):
        P = INJECTION_HOSTS[host]()
        k = (P.dim + 1) // 2
        rng = random.Random(28)
        for _ in range(12):
            s1 = rng.choice(P.vertices)
            star = list(P.generated_graph(P.vertex_facets[s1]))
            X = [s1] + rng.sample([v for v in star if v != s1], 2 * k - 1)
            pairs = [(X[i], X[i + 1]) for i in range(0, 2 * k, 2)]
            calls.append(lambda P=P, s1=s1, pairs=pairs:
                         solve_star(P, s1, pairs))
            X = rng.sample(P.vertices, 2 * k)
            pairs = [(X[i], X[i + 1]) for i in range(0, 2 * k, 2)]
            calls.append(lambda P=P, pairs=pairs: solve_cubical(P, pairs))
    return calls


def _counting_injection(monkeypatch, built):
    import cubelink.linkage.star as star

    build = star.projections_star_injection
    monkeypatch.setattr(star, "projections_star_injection",
                        lambda *args: built.append(1) or build(*args))


def test_star_solves_build_the_injection_only_when_they_read_it(monkeypatch):
    # the injection is built on first read, at most once a solve, and many
    # solves never read it; building it before every solve, as setup once
    # did, gives the same certificates
    import hashlib
    import json

    from cubelink.linkage.star import StarSolver

    def digest_and_builds():
        lines, builds = [], []
        for call in _seeded_star_solves():
            built = []
            with monkeypatch.context() as m:
                _counting_injection(m, built)
                lines.append(json.dumps(call().to_json(), sort_keys=True))
            builds.append(len(built))
        return hashlib.sha256("\n".join(lines).encode()).hexdigest(), builds

    lazy, builds = digest_and_builds()
    assert max(builds) == 1 and 0 in builds
    setup = StarSolver.setup
    monkeypatch.setattr(StarSolver, "setup",
                        lambda self: setup(self) or self.inj)
    eager, eager_builds = digest_and_builds()
    assert eager == lazy
    assert sum(eager_builds) > sum(builds)


def test_a_failed_injection_reaches_the_caller_with_its_case_tag(
        monkeypatch):
    # a solve that reads the injection meets its check inside a case, so
    # the CaseNotCovered carries the trace up to that case's tag
    import cubelink.linkage.star as star

    def broken(P, s, F, trace=()):
        raise CaseNotCovered("patched injection", trace=trace)

    reads = 0
    for call in _seeded_star_solves():
        built = []
        with monkeypatch.context() as m:
            _counting_injection(m, built)
            clean = call()
        if not built:
            continue
        reads += 1
        with monkeypatch.context() as m:
            m.setattr(star, "projections_star_injection", broken)
            with pytest.raises(CaseNotCovered) as e:
                call()
        got = e.value.trace
        assert got == clean.trace[:len(got)]
        assert any(tag.startswith("star/case") for tag in got), got
    assert reads


def test_a_face_path_that_finds_none_raises_case_not_covered(monkeypatch):
    # most of the cases' face paths are uncaught: a NoPath from one is a
    # fault of the solver, which certify reports with the trace so far
    import cubelink.linkage.star as star
    from cubelink.errors import NoPath

    def no_path(*args, **kwargs):
        raise NoPath("patched face path")

    monkeypatch.setattr(star, "_face_path", no_path)
    with pytest.raises(CaseNotCovered) as e:
        solve_star(build_cube_polytope(5), 7, [(7, 12), (16, 29), (8, 13)])
    assert "patched face path" in str(e.value)
    assert e.value.trace[-1] == "star/case2-far-ridge"


def test_induced_view_matches_its_definition():
    # the dict the view replaces: keys in sorted order, each row kept to
    # verts in G's row order; `in` and KeyError answer as the dict does
    P = link_polytope(6, 17)
    rng = random.Random(9)
    for G in (P.graph, P.generated_graph(P.vertex_facets[P.vertices[5]])):
        keys = list(G)
        for n in (0, 1, 7, len(keys) // 2, len(keys)):
            verts = rng.sample(keys, n)
            vs = set(verts)
            want = {v: tuple([w for w in G[v] if w in vs]) for v in sorted(vs)}
            H = Induced(G, verts)
            assert list(H) == list(want) and len(H) == len(want)
            assert list(H.items()) == list(want.items()) and H == want
            for v in [*P.vertices, -1, "0"]:
                assert (v in H) == (v in want)
                if v not in want:
                    with pytest.raises(KeyError):
                        H[v]


@pytest.mark.parametrize("host", ["Q7", "link(Q8,0)"])
def test_star_solves_read_fewer_host_rows_than_the_star_has(host,
                                                            monkeypatch):
    # the star's graph and its subgraphs compute a row when it is read, so
    # a solve and its check read only the host rows their searches reach;
    # building the star graph whole read every one of them
    P = INJECTION_HOSTS[host]()
    k = (P.dim + 1) // 2
    rng = random.Random(24)
    linked = 0
    for _ in range(8):
        s1 = rng.choice(P.vertices)
        star = list(P.generated_graph(P.vertex_facets[s1]))
        X = rng.sample([v for v in star if v != s1], 2 * k - 1)
        pairs = [(s1, X[0])] + [(X[i], X[i + 1]) for i in range(1, 2 * k - 1, 2)]
        G = CountingGraph(P.graph)
        with monkeypatch.context() as m:
            m.setattr(P, "graph", G)
            cert = solve_star(P, s1, pairs)
        linked += cert.paths is not None
        assert 0 < len(G.reads) < len(star), (s1, pairs)
    assert linked


def test_star_rejects_terminals_outside_star():
    P = build_cube_polytope(5)
    with pytest.raises(ValueError):
        solve_star(P, 0, [(0, 3), (31, 5), (9, 18)])  # 31 is the antipode


def test_star_deterministic():
    P = build_cube_polytope(5)
    pairs = [(0, 30), (3, 12), (17, 24)]
    a = solve_star(P, 0, pairs)
    b = solve_star(P, 0, pairs)
    assert a.paths == b.paths and a.trace == b.trace


def test_broken_invariants_raise_case_not_covered(monkeypatch):
    # plain checks, not asserts: they hold under python -O too
    from cubelink.errors import CaseNotCovered
    from cubelink.linkage.star import StarSolver

    P = build_cube_polytope(5)
    S1g = P.generated_graph(P.vertex_facets[0])
    solver = StarSolver(P, 0, [(0, 30), (5, 9), (18, 24)], ["star/tag"],
                         S1g)
    with pytest.raises(CaseNotCovered) as e:
        solver.record(5, 9, [5, 7])
    assert e.value.trace == ["star/tag"]
    F = P.facets[0]
    # a broken host: vertex 1's neighbour across the ridge x3 = 0 is now
    # 16, vertex 0's image there, so two vertices of F share an image
    row = tuple(16 if w == 17 else w for w in P.graph[1])
    monkeypatch.setitem(P.graph, 1, row)
    with pytest.raises(CaseNotCovered):
        projections_star_injection(P, min(F), F)


def test_star_rejects_even_dimension():
    # the construction needs d odd; an even host used to fail inside case 1
    P = build_cube_polytope(6)
    with pytest.raises(ValueError):
        solve_star(P, 61, [(61, 10), (42, 26), (58, 57)])


@pytest.mark.parametrize("host,s1,pairs", [
    ("Q3", 2, [(2, 6), (4, 0)]),
    ("linkQ4", 9, [(9, 8), (12, 13)]),
])
def test_star_rejects_dimension_below_five(host, s1, pairs):
    # the construction needs d >= 5; on these 3-polytopes it used to raise a
    # bare NoPath from case 4 although the oracle links both instances
    P = {"Q3": lambda: build_cube_polytope(3),
         "linkQ4": lambda: link_polytope(4, 0)}[host]()
    assert oracle_linkage(star_complex(P, s1).graph(), pairs) is not None
    with pytest.raises(ValueError):
        solve_star(P, s1, pairs)


@pytest.mark.parametrize("s1,pairs,err", [
    (3, [(0, 31), (1, 2), (4, 8)], "the star centre 3 is not a terminal"),
    (99, [(99, 31), (1, 2), (4, 8)],
     r"vertex 99 is not in star\(99\) in 5-polytope"),
], ids=["not-a-terminal", "outside-the-host"])
def test_star_rejects_a_centre_that_is_no_terminal_or_outside_the_host(
        s1, pairs, err):
    # these used to raise a bare StopIteration and a KeyError
    with pytest.raises(ValueError, match=err):
        solve_star(build_cube_polytope(5), s1, pairs)


Q5_STAR = lambda pairs: lambda: solve_star(build_cube_polytope(5), 0, pairs)
LINK_Q4 = lambda v: lambda: solve_link(4, v, [(1, 2), (4, 8)])


@pytest.mark.parametrize("call,err", [
    (Q5_STAR([(0, 30)]), "star linkage needs 2 to 3 pairs, not 1"),
    (Q5_STAR([(0, 30), (3, 12), (17, 24), (1, 2)]),
     "star linkage needs 2 to 3 pairs, not 4"),
    (Q5_STAR([(0, 15), (14, 13), (11, 7), (16, 17)]),
     "star linkage needs 2 to 3 pairs, not 4"),
    (Q5_STAR([(0, 30), (3, 12), (17, 31)]),
     r"vertex 31 is not in star\(00000\) in 5-polytope"),
    (LINK_Q4(-1), "vertex -1 is not in Q4"),
    (LINK_Q4(99), "vertex 99 is not in Q4"),
], ids=["one-pair", "four-pairs", "four-pairs-in-config-dF",
        "terminal-off-the-star", "link-vertex-below-0", "link-vertex-past-Q4"])
def test_bad_star_and_link_input_is_refused_before_solving(call, err,
                                                           monkeypatch):
    # each is a ValueError before the dF test runs: an instance of 4 pairs
    # in the dF-configuration must get no certificate from a star that
    # links 3, and a link host is never named around a vertex outside Q4
    import cubelink.linkage.star as star

    monkeypatch.setattr(star, "detect_config_dF",
                        lambda *args: pytest.fail("the dF test ran"))
    with pytest.raises(ValueError, match=err):
        call()


# One star instance per branch of the case analysis, found by seeded sweeps:
# (host, s1, pairs, the trace tag it reaches, which form of that branch).
STAR_BRANCHES = [
    ("Q5", 16, [(16, 25), (11, 27), (24, 28)], "star/case1-near",
     "s2's antistar neighbour is t2"),
    ("Q5", 13, [(13, 5), (24, 6), (30, 12)], "star/case1-near",
     "s2 crosses the antistar"),
    ("Q5", 11, [(11, 7), (26, 23), (5, 22)], "star/case1-far", ""),
    ("Q5", 26, [(26, 15), (3, 23), (7, 16)], "star/case1-far-crowded", ""),
    ("link(Q6,17)", 39, [(39, 41), (45, 43), (9, 54)],
     "star/case1-far-d5-flip", ""),
    ("Q5", 17, [(17, 5), (31, 29), (26, 12)], "star/case2-near-ridge", ""),
    ("Q5", 7, [(7, 12), (16, 29), (8, 13)], "star/case2-far-ridge", ""),
    ("Q5", 1, [(1, 26), (23, 20), (7, 4)], "star/case3", ""),
    ("Q7", 111, [(111, 49), (116, 44), (115, 123), (114, 117)],
     "star/case4-free", "an F1 path passes t1"),
    ("Q7", 114, [(114, 65), (80, 123), (2, 88), (83, 91)],
     "star/case4-free", "no F1 path passes t1"),
    ("Q7", 15, [(15, 48), (4, 18), (42, 17), (37, 62)],
     "star/case4-antipodal", "an F1 path passes t1's neighbour"),
    ("Q7", 120, [(120, 15), (104, 88), (123, 125), (95, 94)],
     "star/case4-antipodal", "no F1 path passes t1's neighbour"),
    ("Q7", 99, [(99, 46), (44, 60), (121, 105), (109, 43)],
     "star/case4-blocked", "s1's antipode is next to its partner"),
    ("Q7", 75, [(75, 90), (15, 23), (95, 14), (20, 69)],
     "star/case4-blocked", "no F1 path passes t1"),
    ("Q7", 70, [(70, 94), (85, 112), (67, 87), (127, 121)],
     "star/case4-blocked", "the antipode's path passes t1"),
    ("Q7", 4, [(4, 49), (71, 48), (1, 53), (115, 3)],
     "star/case4-blocked", "another path passes t1"),
    ("Q5", 1, [(1, 9), (7, 5), (3, 15)], "star/case4-d5-all-in", ""),
    ("Q5", 6, [(6, 12), (4, 28), (31, 15)], "star/case4-d5-pair-in-R",
     "the first pair stays in R"),
    ("Q5", 10, [(10, 24), (26, 14), (8, 11)], "star/case4-d5-pair-in-R",
     "the second pair stays in R"),
    ("Q5", 15, [(15, 2), (18, 26), (7, 31)], "star/case4-d5-hop",
     "the hop closes the pair"),
    ("Q5", 10, [(10, 2), (9, 14), (7, 15)], "star/case4-d5-hop",
     "the hop lands in R"),
    ("Q5", 25, [(25, 29), (5, 28), (12, 20)], "star/case4-d5-adjacent", ""),
    ("Q5", 22, [(22, 26), (11, 23), (31, 3)], "star/case4-d5-both-far", ""),
    ("Q5", 1, [(1, 25), (8, 21), (0, 5)], "star/case4-d5-split",
     "s3 hops"),
    ("Q5", 6, [(6, 18), (20, 30), (16, 22)], "star/case4-d5-split",
     "s2 hops"),
    ("Q5", 5, [(5, 23), (6, 3), (18, 7)], "star/case4-d5-split-tight", ""),
    ("Q5", 12, [(12, 3), (4, 7), (9, 0)], "star/case4-d5-anti-ridge", ""),
    ("Q5", 27, [(27, 20), (28, 26), (29, 21)], "star/case4-d5-anti-far",
     "the first far pair is open"),
    ("Q5", 25, [(25, 7), (15, 21), (31, 13)], "star/case4-d5-anti-far",
     "the second far pair is open"),
    ("Q5", 12, [(12, 27), (29, 13), (28, 10)], "star/case4-d5-anti-split", ""),
    ("Q5", 19, [(19, 14), (10, 15), (30, 6)], "star/config-dF", ""),
]


def star_branch_certificates():
    """The STAR_BRANCHES certificates, each checked to reach its tag."""
    hosts = {"Q5": build_cube_polytope(5), "Q7": build_cube_polytope(7),
             "link(Q6,17)": link_polytope(6, 17)}
    certs = []
    for host, s1, pairs, tag, _ in STAR_BRANCHES:
        cert = solve_star(hosts[host], s1, pairs)
        assert tag in cert.trace, (host, s1, pairs, cert.trace)
        certs.append(cert)
    return certs


# Recorded once the cube bases were routed by shortest paths; every
# certificate must stay byte-identical.
STAR_BRANCHES_SHA256 = (
    "2c7492758293a34374bd1512a4c892285ae5b292fdb666327b37001f48833712")


def test_star_branch_certificates_match_golden_digest():
    import hashlib
    import json

    lines = [json.dumps(c.to_json(), sort_keys=True)
             for c in star_branch_certificates()]
    assert len(lines) == len(STAR_BRANCHES)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == STAR_BRANCHES_SHA256


def test_d5_all_in_retries_past_a_blocked_selection(monkeypatch):
    # pairs 0 and 1 are the diagonals of the square {0, 1, 2, 3}, so their
    # projections into the 3-face are blocked (config-3F) and the case
    # links pairs 0 and 2 there instead
    import cubelink.linkage.star as star

    results = []
    face_link = star.StarSolver.face_link

    def recording(self, face, pairs, avoid=()):
        try:
            out = face_link(self, face, pairs, avoid)
        except Unlinkable:
            results.append("unlinkable")
            raise
        results.append("linked")
        return out

    monkeypatch.setattr(star.StarSolver, "face_link", recording)
    P, s1, pairs = build_cube_polytope(5), 0, [(0, 3), (1, 2), (8, 9)]
    cert = solve_star(P, s1, pairs)
    assert_star_linked(P, s1, pairs, cert)
    assert cert.trace == ["star/F1-terminals=6", "star/case4-d5",
                          "star/case4-d5-all-in", "cube/base-d3"]
    assert results == ["unlinkable", "linked"]


D5_CASE4_TAGS = {
    "star/case4-d5-adjacent", "star/case4-d5-all-in", "star/case4-d5-anti-far",
    "star/case4-d5-anti-ridge", "star/case4-d5-anti-split",
    "star/case4-d5-antipodal", "star/case4-d5-both-far", "star/case4-d5-hop",
    "star/case4-d5-pair-in-R", "star/case4-d5-split",
    "star/case4-d5-split-tight",
}


def test_every_case4_placement_in_a_q5_facet_is_solved():
    # every placement of three pairs inside the facet {x4 = 0} of Q5, with
    # 0 in pair 0: 15 partners of 0, C(14, 4) other terminals, 3 pairings.
    # Each is case 4 at d = 5, and none reaches a CaseNotCovered; the short
    # hops of the split branches always exist
    P = build_cube_polytope(5)
    calls = obstructed = 0
    tags = set()
    for t1 in range(1, 16):
        rest = [v for v in range(1, 16) if v != t1]
        for a, b, c, d in itertools.combinations(rest, 4):
            for p2, p3 in (((a, b), (c, d)), ((a, c), (b, d)),
                           ((a, d), (b, c))):
                cert = solve_star(P, 0, [(0, t1), p2, p3])
                calls += 1
                if cert.obstruction is not None:
                    assert cert.obstruction.kind == "config-dF"
                    obstructed += 1
                tags.update(cert.trace)
    assert (calls, obstructed) == (45045, 3)
    assert {t for t in tags if t.startswith("star/case4-d5-")} == D5_CASE4_TAGS


def test_solve_star_builds_the_star_graph_once(monkeypatch):
    from cubelink.complexes import Polytope

    built = []
    build = Polytope.generated_graph
    monkeypatch.setattr(Polytope, "generated_graph",
                        lambda self, bits: built.append(bits) or build(self, bits))
    P = build_cube_polytope(5)
    assert solve_star(P, 0, [(0, 30), (3, 12), (17, 24)]).paths is not None
    assert len(built) == 1
    built.clear()
    # a config-dF answer checks no paths, but its terminals are checked
    # against the star first: the view is made before solving, and it holds
    # no rows
    assert solve_star(P, 0, [(0, 15), (14, 13), (11, 7)]).obstruction is not None
    assert len(built) == 1
