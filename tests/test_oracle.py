import itertools
import random

import pytest

from cubelink.complexes import build_cube_polytope
from cubelink.errors import OracleTimeout
from cubelink.hypercube import cube_graph
from cubelink.linkage.cube import detect_config_3F
from cubelink.oracle import (
    all_pairings,
    apply_cube_map,
    census,
    cube_instance_key,
    invert_cube_map,
    oracle_linkage,
)
from cubelink.paths import validate_linkage

from audit import common_neighbor_check, separator_census


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
    a = census(G, 2, mode="sample", sample=50, seed=3)
    b = census(G, 2, mode="sample", sample=50, seed=3)
    assert a.total == b.total == 50
    assert (a.linked, a.unlinked) == (b.linked, b.unlinked)
    assert a.linked + a.unlinked + a.timeouts == 50


def test_census_rejects_bad_modes():
    with pytest.raises(ValueError):
        census(cube_graph(3), 2, mode="nope")
    with pytest.raises(ValueError):
        census(cube_graph(5), 2, mode="exhaustive")


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
