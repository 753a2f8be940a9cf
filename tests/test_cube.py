import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cubelink import oracle
from cubelink.complexes import build_cube_polytope, link_polytope
from cubelink.errors import CaseNotCovered, CertificateInvalid
from cubelink.hypercube import (CubeAdjacency, CubeFace, cube_graph,
                                cube_to_face, face_to_cube, facet, facet_pair,
                                whole_cube)
from cubelink.linkage.certs import (LinkageCertificate, ObstructionWitness,
                                    blocking, terminals)
from cubelink.linkage.cube import (
    _shortest_base,
    cube_bits,
    cube_linkage,
    detect_config_3F,
    scenario2_escapes,
    solve_cube,
    solve_cube_strong,
)
from cubelink.linkage.cubical import solve_cubical, solve_cubical_strong
from cubelink.linkage.link import solve_link
from cubelink.linkage.star import solve_star
from cubelink.oracle import all_pairings, oracle_linkage
from cubelink.paths import Bits, validate_linkage

from audit import all_faces, cap, face_maps_reference, zonotope
from test_oracle import _two_pairings


def random_pairing(rng, d, k):
    X = rng.sample(range(1 << d), 2 * k)
    return [(X[2 * i], X[2 * i + 1]) for i in range(k)]


def assert_linked(cert, d, pairs, avoid=()):
    assert cert.obstruction is None, cert.trace
    ok, msg = validate_linkage(cube_graph(d), pairs, cert.paths, avoid)
    assert ok, msg


def test_q3_exhaustive_matches_oracle():
    G = cube_graph(3)
    for X in itertools.combinations(range(8), 4):
        for pairs in all_pairings(X):
            cert = solve_cube(3, pairs)
            expect = oracle_linkage(G, pairs)
            if expect is None:
                assert cert.obstruction is not None
                assert cert.obstruction.kind == "config-3F"
            else:
                assert_linked(cert, 3, pairs)


@pytest.mark.parametrize("d,k,n", [(4, 2, 300), (5, 3, 300), (6, 3, 200),
                                   (7, 4, 150), (8, 4, 60), (9, 5, 40)])
def test_random_instances_link(d, k, n):
    rng = random.Random(100 * d + k)
    for _ in range(n):
        pairs = random_pairing(rng, d, k)
        cert = solve_cube(d, pairs)
        assert_linked(cert, d, pairs)


def test_partial_capacity_and_single_pair():
    rng = random.Random(1)
    for d in (5, 6, 7):
        for k in range(1, (d + 1) // 2):
            pairs = random_pairing(rng, d, k)
            assert_linked(solve_cube(d, pairs), d, pairs)


def test_solve_cube_rejects_overcapacity():
    with pytest.raises(ValueError):
        solve_cube(4, [(0, 15), (1, 14), (2, 13)])
    with pytest.raises(ValueError):
        solve_cube(3, [(0, 7), (0, 6)])  # repeated terminal
    with pytest.raises(ValueError, match="need at least 4 terminals"):
        detect_config_3F(build_cube_polytope(3), [(0, 3)])


def _first_blocking_facet(P, pairs):
    """The config-3F witness of a plain scan of every facet, in order."""
    X = terminals(pairs)
    for F in P.facets:
        for s, t in pairs:
            for a, b in ((s, t), (t, s)):
                witness = blocking(P, "config-3F", F, a, b, X)
                if witness is not None:
                    return witness
    return None


def test_detect_config_3F_scans_only_facets_holding_a_pair():
    Q3 = build_cube_polytope(3)
    hosts = [Q3, link_polytope(4, 0), zonotope(3, 5), cap(Q3, Q3.facets[0])]
    found = 0
    for P in hosts:
        for pairs in _two_pairings(P.vertices):
            witness = detect_config_3F(P, pairs)
            assert witness == _first_blocking_facet(P, pairs), pairs
            found += witness is not None
    assert found == 6 + 12 + 20 + 10


def test_cube_linkage_avoid():
    rng = random.Random(2)
    for d in (5, 6, 7):
        k_max = (d + 1) // 2
        for _ in range(80):
            k = rng.randint(1, k_max - 1)
            room = 2 * k_max - 2 * k + (1 if d % 2 == 0 else 0)
            verts = rng.sample(range(1 << d), 2 * k + rng.randint(0, room))
            pairs = [(verts[2 * i], verts[2 * i + 1]) for i in range(k)]
            avoid = verts[2 * k:]
            cert = cube_linkage(d, pairs, avoid)
            assert_linked(cert, d, pairs, avoid)


def test_cube_linkage_capacity_errors():
    with pytest.raises(ValueError):
        cube_linkage(5, [(0, 31), (1, 30), (2, 29)], avoid=[3])
    with pytest.raises(ValueError):
        cube_linkage(5, [(0, 31)], avoid=[0])


@pytest.mark.parametrize("d,pairs,avoid", [
    (2, [(0, 3)], [1, 2]),
    # linkable: it used to come back as a certificate past the capacity
    (3, [(0, 1), (2, 3)], [4]),
    # unlinkable: it used to end the base-case search in CaseNotCovered
    (3, [(7, 1), (3, 5)], [6]),
    (4, [(7, 14), (15, 3)], [5, 6]),
], ids=["Q2", "Q3-linkable", "Q3-unlinkable", "Q4"])
def test_small_cubes_check_their_capacity(d, pairs, avoid):
    with pytest.raises(ValueError, match="exceed the capacity of Q_"):
        cube_linkage(d, pairs, avoid)


@pytest.mark.parametrize("d", [4, 6, 8])
def test_strong_random(d):
    rng = random.Random(d)
    for _ in range(150):
        verts = rng.sample(range(1 << d), d + 1)
        pairs = [(verts[2 * i], verts[2 * i + 1]) for i in range(d // 2)]
        x = verts[-1]
        cert = solve_cube_strong(d, pairs, x)
        assert_linked(cert, d, pairs, (x,))
        assert all(x not in p for p in cert.paths)


def test_strong_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_cube_strong(5, [(0, 1), (2, 3)], 4)  # odd d
    with pytest.raises(ValueError):
        solve_cube_strong(4, [(0, 1)], 2)  # wrong pair count
    with pytest.raises(ValueError):
        solve_cube_strong(4, [(0, 1), (2, 3)], 3)  # x is a terminal


_Q4, _Q5 = build_cube_polytope(4), build_cube_polytope(5)


@pytest.mark.parametrize("solve,outsider", [
    (lambda: solve_cube(5, [(0, 31), (1, 40), (2, 29)]), 40),
    (lambda: cube_linkage(5, [(0, 31)], [99]), 99),
    (lambda: solve_cube_strong(4, [(0, 15), (3, 12)], 99), 99),
    (lambda: solve_cubical_strong(_Q4, [(0, 15), (3, 12)], 99), 99),
    (lambda: solve_star(_Q5, 0, [(0, 99), (1, 2), (4, 8)]), 99),
    (lambda: solve_cube(3, [(0, 9)]), 9),
    (lambda: solve_link(5, 0, [(1, 99), (2, 29)]), 99),
    (lambda: solve_cubical(_Q4, [(0, 99)]), 99),
], ids=["cube", "cube-avoid", "cube-strong", "cubical-strong", "star",
        "cube-d3", "link", "cubical"])
def test_vertex_outside_the_host_is_rejected(solve, outsider):
    """Ids outside the host never reach the case analysis, where they used
    to surface as CaseNotCovered, IndexError, KeyError or NoPath."""
    with pytest.raises(ValueError, match=f"^vertex {outsider} is not in "):
        solve()


@pytest.mark.parametrize("solve,label", [
    (lambda: cube_linkage(5, [(0, 31), (1, 30)], [31]), "11111"),
    (lambda: solve_cube_strong(4, [(0, 15), (3, 12)], 15), "1111"),
    (lambda: solve_link(5, 0, [(1, 31), (2, 29)]), "11111"),
    (lambda: solve_cubical_strong(_Q4, [(0, 15), (3, 12)], 0), "0000"),
], ids=["cube-avoid", "cube-strong", "link", "cubical-strong"])
def test_an_avoided_terminal_is_rejected(solve, label):
    """certify refuses an avoided vertex that is also a terminal, for every
    solver, before it solves."""
    with pytest.raises(ValueError,
                       match=f"^avoided vertex {label} is a terminal$"):
        solve()


def test_a_repeated_avoided_vertex_is_rejected():
    """certify refuses a repeated avoided vertex, as it refuses a repeated
    terminal: deduplicated, these three would fit Q_5's capacity."""
    with pytest.raises(ValueError,
                       match="^avoided vertices must be distinct$"):
        cube_linkage(5, [(0, 31), (1, 30)], [2, 2, 2])


def test_certificates_and_witnesses_compare_by_value():
    # Q3's config-3F, certified twice
    a, b = (solve_cube(3, [(0, 3), (1, 2)]) for _ in range(2))
    assert a == b and a.obstruction == b.obstruction
    assert a != solve_cube(3, [(0, 7), (1, 6)])
    assert a != a.to_json() and a.obstruction != a.obstruction.to_json()


def test_facet_maps_match_the_per_bit_reference():
    # on a facet, face_to_cube drops the fixed axis and closes the gap;
    # cube_to_face inverts it, as the per-bit map over the free axes does
    for d in range(1, 9):
        for F in all_faces(d, d - 1):
            ref_compress, ref_expand = face_maps_reference(F)
            V = F.vertices()
            W = face_to_cube(F, V)
            assert sorted(W) == list(range(1 << (d - 1)))
            assert W == [ref_compress(v) for v in V]
            assert cube_to_face(F, W) == V
            ws = list(range(1 << (d - 1)))
            assert cube_to_face(F, ws) == [ref_expand(w) for w in ws]


def test_scenario2_partition_classes():
    d = 5
    F, Fo = facet_pair(whole_cube(d), 4, 0)
    # pair 0 in F; one adjacent pair, one projection pair, one free pair
    pairs = [(0b00000, 0b00011), (0b00100, 0b00101), (0b01000, 0b11000),
             ]
    classes, M = scenario2_escapes(F, Fo, pairs, 0, [])
    assert 0b00100 in classes[0] and 0b00101 in classes[0]
    assert 0b01000 in classes[1]
    for x, p in M.items():
        assert p[0] == x and len(p) <= 3
        assert Fo.contains(p[-1])


@st.composite
def _full_instances(draw):
    """A pairing at full capacity in Q_d, d = 5..9, with 0-2 avoided
    vertices.  About half the vertices are drawn next to an earlier one, so
    that terminals often face each other across a facet."""
    d = draw(st.integers(5, 9))
    n_avoid = draw(st.integers(0, 2))
    k = (d + 1 - n_avoid) // 2
    rng = draw(st.randoms(use_true_random=False))
    V = rng.sample(range(1 << d), 2 * k + n_avoid)
    for i in range(1, len(V)):
        w = V[rng.randrange(i)] ^ (1 << rng.randrange(d))
        if rng.random() < 0.5 and w not in V:
            V[i] = w
    return d, [(V[2 * i], V[2 * i + 1]) for i in range(k)], V[2 * k:]


def test_scenario2_escapes_end_apart_and_off_the_terminals():
    """What lets scenario 2 send every pair without an end in classes 0, 1
    or 3 to the opposite linkage: class-2 and class-4 escapes end off the
    terminals and pairwise apart, and no class-4 terminal has a free
    F-neighbour projecting onto its partner (that would make it class 3).
    Each scenario2_escapes call is checked as it returns, so a break shows as
    the drawn instance that met it."""
    import cubelink.linkage.cube as cube

    class4 = []
    build = cube.scenario2_escapes

    def checked(F, Fo, pairs, idx, trace):
        classes, M = build(F, Fo, pairs, idx, trace)
        d = F.d
        X = {v for p in pairs for v in p}
        partner = {x: y for a, b in pairs for x, y in ((a, b), (b, a))}
        ends = [M[x][-1] for x in classes[2] + classes[4]]
        assert not set(ends) & X
        assert len(set(ends)) == len(ends)
        for x in classes[4]:
            for a in range(d):
                w = x ^ (1 << a)
                if F.contains(w) and w not in X:
                    assert ((w & ~Fo.fixed_mask) | Fo.fixed_values
                            != partner[x])
        class4.extend(classes[4])
        return classes, M

    @settings(derandomize=True, deadline=None, max_examples=400,
              database=None)
    @given(_full_instances())
    def solve(instance):
        d, pairs, avoid = instance
        cert = cube_linkage(d, pairs, avoid) if avoid else solve_cube(d, pairs)
        assert_linked(cert, d, pairs, avoid)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(cube, "scenario2_escapes", checked)
        solve()
    assert len(class4) >= 20


def test_scenario2_escape_failure_keeps_the_trace():
    """Past capacity on purpose, class 4 is [1, 2] and both F-neighbours of
    1 are terminals, so 1 has no escape: the raise carries the running
    trace with its tag last."""
    F, Fo = facet_pair(whole_cube(3), 2, 0)
    trace = ["cube/scenario-2"]
    with pytest.raises(CaseNotCovered, match="no free escape neighbour at 1"
                       ) as info:
        scenario2_escapes(F, Fo, [(0, 3), (1, 6), (2, 5)], 0, trace)
    assert info.value.trace == ["cube/scenario-2", "cube/scenario-2/Mx"]
    assert trace == ["cube/scenario-2"]


def test_q3_and_q4_link_bases_read_the_cached_cube_tables(monkeypatch):
    """Once Q_3's and Q_4's tables are built, the Q_3 base and the base of
    the link of a vertex of Q_4 build no bit tables of their own."""
    cube_bits(3), cube_bits(4)
    built = []
    init = Bits.__init__

    def counted(self, G):
        built.append(len(G))
        init(self, G)

    monkeypatch.setattr(Bits, "__init__", counted)
    tags = set()
    for v in (0, 5):
        for pairs in _two_pairings([x for x in range(16)
                                    if x not in (v, 15 - v)][:6]):
            cert = solve_link(4, v, pairs)
            assert cert.valid
            tags.update(cert.trace)
    for pairs in _two_pairings(range(1, 7)):
        cert = solve_cube(3, pairs)
        assert cert.valid
        tags.update(cert.trace)
    assert {"cube/base-d3", "link/d3-search"} <= tags
    assert built == []


def test_solve_3polytope_against_oracle():
    P = build_cube_polytope(3)
    hits = {"linked": 0, "obstructed": 0}
    for X in itertools.combinations(range(8), 4):
        for pairs in all_pairings(X):
            cert = solve_cubical(P, pairs)
            truth = oracle_linkage(P.graph, pairs)
            if truth is None:
                assert cert.obstruction is not None
                hits["obstructed"] += 1
            else:
                ok, msg = validate_linkage(P.graph, pairs, cert.paths)
                assert ok, msg
                hits["linked"] += 1
    assert hits == {"linked": 204, "obstructed": 6}


def _refused_bases(d, instances):
    """The pairings the shortest-path base refuses, each checked against
    `linkable`'s search on bit tables built once for the graph; every
    linkage it returns is validated."""
    G, refused = cube_graph(d), []
    B = Bits(G)
    for pairs, avoid in instances:
        paths = _shortest_base(cube_bits(d), pairs, avoid)
        truth = oracle._linkable_masks(B, *B.pair_masks(pairs, avoid),
                                       None) is not None
        assert (paths is not None) == truth, (pairs, avoid)
        if paths is None:
            refused.append(pairs)
        else:
            ok, msg = validate_linkage(G, pairs, paths, avoid)
            assert ok, (pairs, avoid, msg)
    return refused


def test_shortest_base_links_every_linkable_base():
    # the base cases need no search: on Q3, on Q4 with 0 or 1 avoided
    # vertex, and in the link of each vertex of Q4, the rule links exactly
    # the instances that have a linkage, and refuses only config-3F ones
    q3 = [(pairs, ()) for pairs in _two_pairings(range(8))]
    refused = _refused_bases(3, q3)
    assert (len(q3), len(refused)) == (210, 6)
    P = build_cube_polytope(3)
    assert all(detect_config_3F(P, pairs) for pairs in refused)

    q4 = [(pairs, avoid) for pairs in _two_pairings(range(16))
          for avoid in [()] + [(x,) for x in range(16)
                               if all(x not in p for p in pairs)]]
    assert len(q4) == 5460 + 65520
    assert _refused_bases(4, q4) == []

    total = obstructed = 0
    for v in range(16):
        avoid = (v, v ^ 15)
        P = link_polytope(4, v)
        links = [(pairs, avoid) for pairs in
                 _two_pairings([x for x in range(16) if x not in avoid])]
        refused = _refused_bases(4, links)
        assert refused == [pairs for pairs, _ in links
                           if detect_config_3F(P, pairs) is not None], v
        total += len(links)
        obstructed += len(refused)
    assert (total, obstructed) == (48048, 192)


def test_cube_and_link_solves_never_reach_the_oracle(monkeypatch):
    def reached(*args):
        raise AssertionError("a solve reached the oracle")

    monkeypatch.setattr(oracle, "_linkable_masks", reached)
    rng = random.Random(37)
    tags = set()
    for d in range(1, 8):
        for _ in range(30):
            k = rng.randint(1, (d + 1) // 2)
            cert = solve_cube(d, random_pairing(rng, d, k))
            kk = rng.randint(1, max(1, d // 2))
            X = rng.sample(range(1 << d),
                           rng.randint(2 * kk, max(2 * kk, d + 1)))
            pairs = [(X[2 * i], X[2 * i + 1]) for i in range(kk)]
            certs = [cert, cube_linkage(d, pairs, X[2 * kk:])]
            if d % 2 == 0:
                X = rng.sample(range(1 << d), d + 1)
                pairs = [(X[2 * i], X[2 * i + 1]) for i in range(d // 2)]
                certs.append(solve_cube_strong(d, pairs, X[d]))
            for cert in certs:
                assert cert.valid
                tags.update(cert.trace)
    for D in range(4, 7):
        full = (1 << D) - 1
        for _ in range(30):
            v = rng.randrange(1 << D)
            verts = [x for x in rng.sample(range(1 << D), D + 2)
                     if x not in (v, v ^ full)]
            pairs = [(verts[2 * i], verts[2 * i + 1]) for i in range(D // 2)]
            cert = solve_link(D, v, pairs)
            assert cert.valid
            tags.update(cert.trace)
    assert {"cube/base-d3", "cube/base-d4", "cube/strong-base-d4",
            "link/d3-search"} <= tags


def test_certificates_report_instance_and_trace():
    cert = solve_cube(5, [(0, 31), (1, 30), (2, 29)])
    assert cert.instance["host"] == "Q_5"
    assert cert.instance["pairs"][0] == ["00000", "11111"]
    assert cert.trace and all(isinstance(t, str) for t in cert.trace)
    j = cert.to_json()
    assert j["valid"] and j["result"]["linkage"]


def test_a_certificate_with_no_answer_is_not_valid():
    cert = LinkageCertificate({"host": "Q_3", "pairs": [], "avoid": []})
    assert cert.valid is False and cert.to_json()["valid"] is False
    assert LinkageCertificate({}, paths=[[0, 1]]).valid is True
    witness = ObstructionWitness("config-3F", list(range(8)), (0, 7), [3, 5, 6])
    assert LinkageCertificate({}, obstruction=witness).valid is True


def test_solver_output_that_is_not_a_linkage_raises(monkeypatch):
    import cubelink.linkage.cube as cube

    monkeypatch.setattr(cube, "_solve",
                        lambda d, pairs, trace: [[s, t] for s, t in pairs])
    with pytest.raises(CertificateInvalid):
        solve_cube(5, [(0, 31), (1, 30), (2, 29)])


def test_deterministic_output():
    pairs = [(0, 63), (5, 58), (17, 46)]
    a = solve_cube(6, pairs)
    b = solve_cube(6, pairs)
    assert a.paths == b.paths and a.trace == b.trace


def test_scenario_traces_cover_all_three():
    # scenario 1: all six terminals inside one facet of Q_5
    pairs = [(0b00000, 0b01110), (0b00011, 0b01100), (0b00101, 0b01010)]
    cert = solve_cube(5, pairs)
    assert "cube/scenario-1" in cert.trace
    assert_linked(cert, 5, pairs)
    # scenario 2: pair 0 inside a facet, others leave it
    pairs = [(0b00000, 0b00111), (0b10001, 0b01110), (0b11100, 0b00011)]
    cert = solve_cube(5, pairs)
    assert "cube/scenario-2" in cert.trace
    assert_linked(cert, 5, pairs)
    # scenario 3: all pairs antipodal
    pairs = [(0, 31), (1, 30), (2, 29)]
    cert = solve_cube(5, pairs)
    assert "cube/scenario-3" in cert.trace
    assert_linked(cert, 5, pairs)


def test_enclosed_terminal_in_common_facet():
    # scenario 1 with t = 0 walled in: all terminals lie in the facet
    # x_{d-1} = 0 and every in-facet neighbour of t is a terminal, so the
    # pair (s, t) has no path in the facet and the search must say so fast
    d = 21
    walls = [1 << i for i in range(d - 1)]
    pairs = [((1 << (d - 1)) - 1, 0)] + [(walls[i], walls[i + 1])
                                         for i in range(0, d - 1, 2)]
    cert = solve_cube(d, pairs)
    assert cert.trace[0] == "cube/scenario-1"
    ok, msg = validate_linkage(CubeAdjacency(d), pairs, cert.paths)
    assert ok, msg


@pytest.mark.parametrize("d", range(20, 31))
def test_full_capacity_at_large_dimension(d):
    # beyond the oracle's reach: checked against the implicit adjacency only
    rng = random.Random(d)
    for _ in range(3):
        pairs = random_pairing(rng, d, (d + 1) // 2)
        cert = solve_cube(d, pairs)
        assert cert.valid
        ok, msg = validate_linkage(CubeAdjacency(d), pairs, cert.paths)
        assert ok, msg


def _large_cube_certificates():
    """Seeded full-capacity certificates at d = 13..16: random, clustered
    and antipodal solve_cube pairings, cube_linkage with d + 1 terminals
    and avoided vertices, and solve_cube_strong at even d."""
    import json

    rng = random.Random(1802_09230 + 13)
    lines = []

    def add(cert):
        lines.append(json.dumps(cert.to_json(), sort_keys=True))

    for d in range(13, 17):
        k = (d + 1) // 2
        full = (1 << d) - 1
        for _ in range(10):
            add(solve_cube(d, random_pairing(rng, d, k)))
        for _ in range(4):  # every terminal in one 6-face
            free = sum(1 << a for a in rng.sample(range(d), 6))
            base = rng.randrange(1 << d) & ~free
            X = rng.sample([v for v in range(1 << d) if v & ~free == base],
                           2 * k)
            add(solve_cube(d, [(X[2 * i], X[2 * i + 1]) for i in range(k)]))
        X = rng.sample(range(1 << d), k)  # every pair antipodal
        if len({min(v, v ^ full) for v in X}) == k:
            add(solve_cube(d, [(v, v ^ full) for v in X]))
        for _ in range(8):
            kk = rng.randint(1, d // 2)
            X = rng.sample(range(1 << d), d + 1)
            add(cube_linkage(d, [(X[2 * i], X[2 * i + 1]) for i in range(kk)],
                             X[2 * kk:]))
        if d % 2 == 0:
            for _ in range(6):
                X = rng.sample(range(1 << d), d + 1)
                add(solve_cube_strong(
                    d, [(X[2 * i], X[2 * i + 1]) for i in range(d // 2)],
                    X[d]))
    return lines


# Recorded before the induction steps were made cheaper; every certificate
# must stay byte-identical.
LARGE_CUBE_SHA256 = (
    "339390c391199f69fb513b7db654b5cf620c7b12ff634ad60711303bb38712c2")


def test_full_capacity_large_cube_certificates_match_golden_digest():
    import hashlib

    lines = _large_cube_certificates()
    assert len(lines) == 104
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == LARGE_CUBE_SHA256


def _deep_cube_certificates():
    """Seeded full-capacity certificates at d = 20, 24, 28 and 30, where the
    induction runs 16 to 26 levels deep: random and clustered solve_cube
    pairings (every terminal in one 6-face), cube_linkage with d + 1
    terminals and avoided vertices, and solve_cube_strong, random and
    clustered; and at each d a solve_cube and a solve_cube_strong with every
    pair antipodal, which reach scenario 3 and the d = 4 base."""
    import json

    rng = random.Random(1802_09230 + 20)
    lines = []

    def add(cert):
        lines.append(json.dumps(cert.to_json(), sort_keys=True))

    def clustered(d, n):
        free = sum(1 << a for a in rng.sample(range(d), 6))
        K = CubeFace(d, ((1 << d) - 1) & ~free, rng.randrange(1 << d))
        return rng.sample(K.vertices(), n)

    for d in (20, 24, 28, 30):
        k = (d + 1) // 2
        for _ in range(3):
            add(solve_cube(d, random_pairing(rng, d, k)))
        for _ in range(2):
            X = clustered(d, 2 * k)
            add(solve_cube(d, [(X[2 * i], X[2 * i + 1]) for i in range(k)]))
        for _ in range(2):
            kk = rng.randint(1, d // 2)
            X = rng.sample(range(1 << d), d + 1)
            add(cube_linkage(d, [(X[2 * i], X[2 * i + 1]) for i in range(kk)],
                             X[2 * kk:]))
        for X in (rng.sample(range(1 << d), d + 1), clustered(d, d + 1)):
            add(solve_cube_strong(
                d, [(X[2 * i], X[2 * i + 1]) for i in range(d // 2)], X[d]))
        # every pair antipodal: scenario 3 at every level, down to the
        # d = 4 base
        full = (1 << d) - 1
        X = rng.sample(range(1 << (d - 1)), k)
        add(solve_cube(d, [(v, v ^ full) for v in X]))
        add(solve_cube_strong(d, [(v, v ^ full) for v in X],
                              next(v for v in range(d) if v not in X)))
    return lines


# Recorded before the induction recursed on faces of Q_d; every certificate
# must stay byte-identical.
DEEP_CUBE_SHA256 = (
    "3eeb3295e586b599e6667dfe4b8f662b0fe2a71c0a0f3e16965fa0a7bc9aef35")


def test_deep_cube_certificates_match_golden_digest():
    import hashlib

    lines = _deep_cube_certificates()
    assert len(lines) == 44
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DEEP_CUBE_SHA256


def test_cube_and_link_solves_leave_no_reference_cycles():
    # facet moves once went through maps that held themselves in a cycle,
    # which left garbage that only the collector frees, and its runs then
    # fell on whichever solves were under way
    import gc

    rng = random.Random(13)
    gc.collect()
    gc.disable()
    try:
        for d in range(5, 15):
            X = rng.sample(range(1 << d), d + 1)
            k = (d + 1) // 2
            solve_cube(d, [(X[2 * i], X[2 * i + 1]) for i in range(k)])
            cube_linkage(d, [(X[0], X[1])], X[2:k + 1])
            if d % 2 == 0:
                solve_cube_strong(d, [(X[2 * i], X[2 * i + 1])
                                      for i in range(d // 2)], X[d])
            if d <= 10:  # X[d] and its antipode out of the link of X[0]
                Y = [x for x in X[1:] if x ^ X[0] != (1 << d) - 1]
                solve_link(d, X[0], [(Y[2 * i], Y[2 * i + 1])
                                     for i in range(d // 2 - 1)])
        assert gc.collect() == 0
    finally:
        gc.enable()
