import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cubelink.complexes import build_cube_polytope
from cubelink.errors import CaseNotCovered, CertificateInvalid
from cubelink.hypercube import (CubeAdjacency, CubeFace, cube_graph, facet,
                                opposite_facet, project)
from cubelink.linkage.cube import (
    build_Mx_paths,
    cube_linkage,
    facet_maps,
    scenario2_partition,
    solve_cube,
    solve_cube_strong,
)
from cubelink.linkage.cubical import solve_cubical, solve_cubical_strong
from cubelink.linkage.link import solve_link
from cubelink.linkage.star import solve_star
from cubelink.oracle import all_pairings, oracle_linkage
from cubelink.paths import validate_linkage

from audit import all_faces, face_maps_reference


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


def test_facet_maps_match_the_per_bit_reference():
    # compress drops the facet's fixed axis and closes the gap; expand
    # inverts it, as the per-bit map over the free axes does
    for d in range(1, 9):
        for F in all_faces(d, d - 1):
            compress, expand = facet_maps(F)
            ref_compress, ref_expand = face_maps_reference(F)
            V = F.vertices()
            assert sorted(compress(v) for v in V) == list(range(1 << (d - 1)))
            for v in V:
                assert compress(v) == ref_compress(v)
                assert expand(compress(v)) == v
            for w in range(1 << (d - 1)):
                assert expand(w) == ref_expand(w)
    with pytest.raises(ValueError):
        facet_maps(CubeFace(4, 0b0101, 0b0001))
    with pytest.raises(ValueError):
        facet_maps(CubeFace(4, 0, 0))


def test_scenario2_partition_classes():
    d = 5
    F = facet(d, 4, 0)
    # pair 0 in F; one adjacent pair, one projection pair, one free pair
    pairs = [(0b00000, 0b00011), (0b00100, 0b00101), (0b01000, 0b11000),
             ]
    classes = scenario2_partition(d, F, pairs)
    assert 0b00100 in classes[0] and 0b00101 in classes[0]
    assert 0b01000 in classes[1]
    M = build_Mx_paths(d, F, pairs, classes)
    for x, p in M.items():
        assert p[0] == x and len(p) <= 3
        assert opposite_facet(F).contains(p[-1])


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
    Each build_Mx_paths call is checked as it returns, so a break shows as
    the drawn instance that met it."""
    import cubelink.linkage.cube as cube

    class4 = []
    build = cube.build_Mx_paths

    def checked(d, F, pairs, classes):
        M = build(d, F, pairs, classes)
        Fo = opposite_facet(F)
        X = {v for p in pairs for v in p}
        partner = {x: y for a, b in pairs for x, y in ((a, b), (b, a))}
        ends = [M[x][-1] for x in classes[2] + classes[4]]
        assert not set(ends) & X
        assert len(set(ends)) == len(ends)
        for x in classes[4]:
            for a in range(d):
                w = x ^ (1 << a)
                if F.contains(w) and w not in X:
                    assert project(w, Fo) != partner[x]
        class4.extend(classes[4])
        return M

    @settings(derandomize=True, deadline=None, max_examples=400,
              database=None)
    @given(_full_instances())
    def solve(instance):
        d, pairs, avoid = instance
        cert = cube_linkage(d, pairs, avoid) if avoid else solve_cube(d, pairs)
        assert_linked(cert, d, pairs, avoid)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(cube, "build_Mx_paths", checked)
        solve()
    assert len(class4) >= 20


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


def test_certificates_report_instance_and_trace():
    cert = solve_cube(5, [(0, 31), (1, 30), (2, 29)])
    assert cert.instance["host"] == "Q_5"
    assert cert.instance["pairs"][0] == ["00000", "11111"]
    assert cert.trace and all(isinstance(t, str) for t in cert.trace)
    j = cert.to_json()
    assert j["valid"] and j["result"]["linkage"]


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
