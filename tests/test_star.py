import random

import pytest

from cubelink.complexes import build_cube_polytope, link_polytope, star_complex
from cubelink.linkage.star import (
    detect_config_dF,
    projections_star_injection,
    solve_star,
)
from cubelink.oracle import oracle_linkage
from cubelink.paths import validate_linkage


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
    from cubelink.linkage.star import _StarSolver

    P = build_cube_polytope(5)
    solver = _StarSolver(P, 0, [(0, 30), (5, 9), (18, 24)], ["star/tag"])
    with pytest.raises(CaseNotCovered) as e:
        solver.record(5, 9, [5, 7])
    assert e.value.trace == ["star/tag"]
    F = P.facets[0]
    monkeypatch.setattr(type(P), "project_in_face", lambda self, f, sub, v: v)
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
