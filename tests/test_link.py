import itertools
import random

import pytest

from cubelink.linkage.link import solve_link
from cubelink.oracle import all_pairings, oracle_linkage
from cubelink.paths import validate_linkage

from audit import _host_graph


def random_pairing(rng, verts, k):
    X = rng.sample(verts, 2 * k)
    return [(X[2 * i], X[2 * i + 1]) for i in range(k)]


def assert_linked(cert, D, v, pairs):
    G = _host_graph(D, v, v ^ ((1 << D) - 1))
    assert cert.obstruction is None, cert.trace
    ok, msg = validate_linkage(G, pairs, cert.paths)
    assert ok, msg


def test_link_q4_exhaustive_frozen_counts():
    G = _host_graph(4, 0, 15)
    counts = {"linked": 0, "obstructed": 0}
    for X in itertools.combinations(sorted(G), 4):
        for pairs in all_pairings(X):
            cert = solve_link(4, 0, pairs)
            truth = oracle_linkage(G, pairs)
            if cert.obstruction is not None:
                assert truth is None, pairs
                assert cert.obstruction.kind == "config-3F"
                counts["obstructed"] += 1
            else:
                assert truth is not None
                assert_linked(cert, 4, 0, pairs)
                counts["linked"] += 1
    assert counts == {"linked": 2991, "obstructed": 12}


@pytest.mark.parametrize("D,n", [(5, 400), (6, 250), (7, 150), (8, 80)])
def test_link_random_full_capacity(D, n):
    rng = random.Random(D)
    full = (1 << D) - 1
    k = D // 2
    for _ in range(n):
        v = rng.randrange(1 << D)
        verts = [x for x in range(1 << D) if x not in (v, v ^ full)]
        pairs = random_pairing(rng, verts, k)
        cert = solve_link(D, v, pairs)
        assert_linked(cert, D, v, pairs)


def test_link_partial_capacity_and_single_pair():
    rng = random.Random(99)
    for D in (5, 6, 7):
        full = (1 << D) - 1
        for k in range(1, D // 2):
            v = rng.randrange(1 << D)
            verts = [x for x in range(1 << D) if x not in (v, v ^ full)]
            pairs = random_pairing(rng, verts, k)
            cert = solve_link(D, v, pairs)
            assert_linked(cert, D, v, pairs)


def test_link_rejects_removed_terminals():
    with pytest.raises(ValueError):
        solve_link(5, 0, [(0, 31), (1, 30)])
    with pytest.raises(ValueError):
        solve_link(5, 0, [(31, 1), (2, 29)])


def test_link_certificate_shape():
    cert = solve_link(5, 0, [(1, 30), (2, 29)])
    assert cert.instance["host"] == "link(Q_5, 00000)"
    assert cert.instance["avoid"] == ["00000", "11111"]
    assert cert.valid
    j = cert.to_json()
    assert "linkage" in j["result"]


def test_link_deterministic():
    pairs = [(1, 62), (2, 61), (4, 59)]
    a = solve_link(6, 0, pairs)
    b = solve_link(6, 0, pairs)
    assert a.paths == b.paths and a.trace == b.trace


def test_link_oracle_cross_check_q5():
    G = _host_graph(5, 0, 31)
    rng = random.Random(55)
    verts = sorted(G)
    for _ in range(120):
        pairs = random_pairing(rng, verts, 2)
        cert = solve_link(5, 0, pairs)
        truth = oracle_linkage(G, pairs)
        assert (cert.obstruction is None) == (truth is not None)
        if cert.paths:
            assert_linked(cert, 5, 0, pairs)


def test_link_large_dimension_builds_no_graph(monkeypatch):
    import statistics
    import time

    import cubelink.linkage.link as link
    from cubelink.hypercube import CubeAdjacency

    def no_graph(D):
        raise AssertionError(f"built the {1 << D}-vertex graph of Q_{D}")
    monkeypatch.setattr(link, "cube_graph", no_graph, raising=False)
    D, full = 16, (1 << 16) - 1
    rng = random.Random(16)
    times = []
    for _ in range(3):
        v = rng.randrange(1 << D)
        X = rng.sample([x for x in range(1 << D) if x not in (v, v ^ full)], D)
        pairs = [(X[2 * i], X[2 * i + 1]) for i in range(D // 2)]
        t0 = time.perf_counter()
        cert = solve_link(D, v, pairs)
        times.append(time.perf_counter() - t0)
        ok, msg = validate_linkage(CubeAdjacency(D), pairs, cert.paths,
                                   avoid=(v, v ^ full))
        assert ok, msg
    assert statistics.median(times) < 0.1


def test_link_rejects_more_than_capacity():
    with pytest.raises(ValueError):  # at most floor(4/2) = 2 pairs
        solve_link(4, 0, [(1, 14), (2, 13), (4, 11)])


@pytest.mark.parametrize("D", [1, 2])
def test_links_below_q3_are_refused(D):
    from cubelink.complexes import link_polytope

    # the link of a vertex of Q2 is two vertices with no edge between them,
    # where solve_link(2, ...) would fail later with NoPath
    err = f"vertex links need a cube of dimension 3 or more, not {D}"
    with pytest.raises(ValueError, match=err):
        link_polytope(D, 0)
    with pytest.raises(ValueError, match=err):
        solve_link(D, 0, [(1, 2)])
