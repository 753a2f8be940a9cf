import itertools
import random

import pytest
from hypothesis import given, strategies as st

from cubelink.complexes import build_cube_polytope
from cubelink.errors import OracleTimeout
from cubelink.hypercube import cube_graph
from cubelink.linkage.cube import detect_config_3F
from cubelink.oracle import (
    all_pairings,
    census,
    cube_instance_key,
    invert_cube_map,
    oracle_linkage,
)
from cubelink.paths import validate_linkage

from audit import (apply_cube_map, brute_cube_instance_key,
                   common_neighbor_check, separator_census)


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
