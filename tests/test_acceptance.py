"""End-to-end acceptance suite.

Each test pins one headline guarantee: exact obstruction censuses at small
dimension, linkedness of cubes and vertex links at full capacity, the strong
(avoiding) variant, the structural lemmas behind the induction, and
certificate round-trip determinism through the CLI.
"""

import itertools
import json
import random
import time

import pytest

from cubelink.cli import main
from cubelink.complexes import build_cube_polytope, link_polytope
from cubelink.errors import OracleTimeout
from cubelink.hypercube import associated_pairs, cube_graph
from cubelink.linkage.cube import detect_config_3F, solve_cube, solve_cube_strong
from cubelink.linkage.cubical import solve_cubical
from cubelink.linkage.link import solve_link
from cubelink.linkage.star import projections_star_injection
from cubelink.oracle import all_pairings, census, oracle_linkage
from cubelink.paths import validate_linkage

from audit import (Complex, _host_graph, antistar_complex,
                   common_neighbor_check, link_complex, separator_census,
                   star_complex, technical_decomposition)


def random_pairing(rng, verts, k):
    X = rng.sample(verts, 2 * k)
    return [(X[2 * i], X[2 * i + 1]) for i in range(k)]


def assert_linked(G, pairs, cert, avoid=()):
    assert cert.obstruction is None, cert.trace
    ok, msg = validate_linkage(G, pairs, cert.paths, avoid)
    assert ok, msg


def test_acceptance_1_q3_obstruction_exactness():
    P = build_cube_polytope(3)

    def detector(pairs):
        w = detect_config_3F(P, pairs)
        return w.kind if w else None

    t0 = time.monotonic()
    rep = census(cube_graph(3), 2, host="Q3", detector=detector)
    elapsed = time.monotonic() - t0
    assert rep.total == 210
    assert rep.unlinked == 6
    assert rep.linked == 204
    assert rep.obstructions == {"config-3F": 6}
    assert rep.detector_mismatches == []
    assert elapsed < 1.0


def test_acceptance_2_q4_is_2_linked():
    t0 = time.monotonic()
    G = cube_graph(4)
    rep = census(G, 2, host="Q4")
    assert rep.total == 5460
    assert rep.unlinked == 0 and rep.timeouts == 0
    for X in itertools.combinations(range(16), 4):
        for pairs in all_pairings(X):
            cert = solve_cube(4, pairs)
            assert_linked(G, pairs, cert)
    assert time.monotonic() - t0 < 300


def test_acceptance_3_q5_is_3_linked():
    t0 = time.monotonic()
    G = cube_graph(5)
    rng = random.Random(5)
    crosses = 0
    for i in range(10_000):
        pairs = random_pairing(rng, range(32), 3)
        cert = solve_cube(5, pairs)
        assert_linked(G, pairs, cert)
        if i % 50 == 0:
            assert oracle_linkage(G, pairs) is not None
            crosses += 1
    assert crosses >= 200
    assert time.monotonic() - t0 < 600


@pytest.mark.parametrize("d,k", [(6, 3), (7, 4)])
def test_acceptance_4_q6_q7_smoke(d, k):
    t0 = time.monotonic()
    G = cube_graph(d)
    rng = random.Random(d)
    for _ in range(1000):
        pairs = random_pairing(rng, range(1 << d), k)
        cert = solve_cube(d, pairs)  # CaseNotCovered would propagate
        assert_linked(G, pairs, cert)
    assert time.monotonic() - t0 < 600


def test_acceptance_5_q4_strong_linkedness_exhaustive():
    t0 = time.monotonic()
    G = cube_graph(4)
    total = 0
    for X in itertools.combinations(range(16), 5):
        for x in X:
            rest = [v for v in X if v != x]
            for pairs in all_pairings(rest):
                cert = solve_cube_strong(4, pairs, x)
                assert_linked(G, pairs, cert, avoid=(x,))
                total += 1
    assert total == 65_520
    assert time.monotonic() - t0 < 1800


def test_acceptance_6_link_linkedness():
    t0 = time.monotonic()
    # link of a vertex of Q_5: 30 vertices, 2-linked, certified exhaustively
    G5 = _host_graph(5, 0, 31)
    for X in itertools.combinations(sorted(G5), 4):
        for pairs in all_pairings(X):
            cert = solve_link(5, 0, pairs)
            assert_linked(G5, pairs, cert)
    # link of a vertex of Q_4: the census has a nonempty obstruction set and
    # the detector matches the oracle on every pairing
    P = link_polytope(4, 0)

    def detector(pairs):
        w = detect_config_3F(P, pairs)
        return w.kind if w else None

    rep = census(P.graph, 2, host="linkQ4", detector=detector)
    assert rep.total == 3003
    assert rep.unlinked == 12
    assert rep.obstructions == {"config-3F": 12}
    assert rep.detector_mismatches == []
    assert time.monotonic() - t0 < 900


@pytest.mark.parametrize("host", ["Q5", "linkQ6"])
def test_acceptance_7_cubical_solver_desk_scale(host):
    t0 = time.monotonic()
    P = {"Q5": lambda: build_cube_polytope(5),
         "linkQ6": lambda: link_polytope(6, 0)}[host]()
    k = (P.dim + 1) // 2
    rng = random.Random(7)
    crosses = 0
    for i in range(1000):
        pairs = random_pairing(rng, P.vertices, k)
        cert = solve_cubical(P, pairs)
        if crosses < 60 and i % 10 == 0:
            # bound each ground-truth search; skip the rare blowups
            try:
                truth = oracle_linkage(P.graph, pairs,
                                       deadline=time.monotonic() + 5.0)
            except OracleTimeout:
                truth = "timeout"
            if truth != "timeout":
                assert (cert.obstruction is None) == (truth is not None), pairs
                crosses += 1
        if cert.obstruction is None:
            assert_linked(P.graph, pairs, cert)
    assert crosses >= 50
    assert time.monotonic() - t0 < 1800


def test_acceptance_8_structural_invariants():
    t0 = time.monotonic()
    # association bound: |associated(Z)| <= |Z| - 1
    for d in (2, 3):
        for n in range(1, 1 << d):
            for Z in itertools.combinations(range(1 << d), n):
                assert len(associated_pairs(d, Z)) <= len(Z) - 1
    rng = random.Random(8)
    for _ in range(100_000):
        d = rng.randint(4, 7)
        Z = rng.sample(range(1 << d), rng.randint(1, 2 * d))
        assert len(associated_pairs(d, Z)) <= len(Z) - 1
    # minimum separators of Q_3, Q_4 are exactly vertex neighbourhoods
    for d in (3, 4):
        rep = separator_census(d)
        assert rep["violations"] == []
        assert rep["separators"] == 1 << d
    # no two vertices share more than two neighbours, on every host
    for G in (cube_graph(3), cube_graph(4), cube_graph(5), cube_graph(6),
              link_polytope(5, 0).graph, link_polytope(6, 0).graph):
        assert common_neighbor_check(G)
    # strong connectivity of star / antistar / link / antistar of a facet
    for d in range(3, 7):
        P = build_cube_polytope(d)
        assert star_complex(P, 0).is_strongly_connected()
        assert antistar_complex(P, {0}).is_strongly_connected()
        assert link_complex(P, 0).is_strongly_connected()
        F = P.facets[0]
        ast = Complex.boundary(P).antistar(F)
        assert ast.is_strongly_connected()
    # the two-star decomposition: strong connectivity and spanning subcomplex
    hosts = [build_cube_polytope(5), build_cube_polytope(6), link_polytope(6, 0)]
    done = 0
    while done < 100:
        P = hosts[done % len(hosts)]
        s1 = rng.choice(P.vertices)
        s2 = rng.choice(P.graph[s1])
        F1 = rng.choice([f for f in P.facets if s1 in f and s2 not in f])
        F12 = rng.choice([f for f in P.facets if s1 in f and s2 in f])
        dec = technical_decomposition(P, s1, s2, F1, F12)
        assert dec["S12"].is_strongly_connected()
        assert dec["A1"].is_strongly_connected()
        if dec["C"] is not None:
            assert dec["C"].is_strongly_connected()
            assert dec["C"].vertex_set() == dec["A12"].vertex_set()
        done += 1
    # the ridge-by-ridge projection off a facet is injective on sampled stars
    for P in hosts:
        for _ in range(3):
            F = rng.choice(P.facets)
            s = rng.choice(sorted(F))
            f = projections_star_injection(P, s, F)
            assert len(set(f.values())) == len(f)
    assert time.monotonic() - t0 < 600


FIXTURES = [
    ["solve", "--cube", "3", "--pairs", "000-111,011-100"],
    ["solve", "--cube", "3", "--pairs", "000-110,010-100"],  # obstructed
    ["solve", "--cube", "5", "--pairs", "00000-11111,00001-11110,00010-11101"],
    ["solve", "--cube", "4", "--strong", "--pairs", "0000-1111,0011-1100",
     "--avoid", "0101"],
    ["solve", "--link", "5", "--pairs", "00001-11110,00010-11101"],
    ["solve", "--cube", "6", "--pairs", "000000-111111,010101-101010,"
     "001100-110011", "--method", "oracle"],
]


def test_acceptance_9_certificate_roundtrip_determinism(capsys, tmp_path):
    for i, argv in enumerate(FIXTURES):
        code1 = main(list(argv))
        out1 = capsys.readouterr().out
        code2 = main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 and out1 == out2  # byte-identical
        assert code1 in (0, 2)
        cert = tmp_path / f"cert{i}.json"
        cert.write_text(out1)
        vcode = main(["verify", str(cert)])
        vout = capsys.readouterr().out
        assert vcode == 0 and vout.startswith("PASS"), (argv, vout)
        data = json.loads(out1)
        assert list(data) == ["instance", "result", "trace", "valid"]
