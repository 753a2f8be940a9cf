"""Linkage in cubical d-polytopes, plain and strong.

The top-level strategy reduces a polytope instance to a solved subhost.  When
the pair count leaves slack (even dimension, or fewer pairs than capacity),
all terminals are routed into a single facet, a (d-1)-cube, and linked there.
At full capacity in odd dimension the terminals are routed into the star of
one of them and handed to the star solver; the one blocking configuration is
dismantled first by redirecting a routing path (when one strays near the
escape ridge) or by relinking through the neighbouring facet.

Strong linkage (even d, one extra vertex to avoid) routes the terminals into
the link of the avoided vertex, itself a cubical (d-1)-polytope.
"""

from __future__ import annotations

from ..complexes import Polytope, vertex_link
from ..errors import CaseNotCovered
from ..oracle import oracle_linkage
from ..paths import shortest_path
from .certs import LinkageCertificate, Unlinkable, certify, take, terminals
from .cube import _base_3F, _hops, _search, _splice
from .star import (_Induced, _face_link, _far_ridge, _route_into,
                   _StarSolver, detect_config_dF, link_via_subgraph)


def _facet_route(P, pairs, trace):
    """Route all terminals into one facet cube and link them there.

    Facets are tried in order of decreasing terminal count; only d = 4 can
    reject a facet (entries in a 3-cube may be obstructed), and if every
    facet fails an exhaustive search takes over, with no deadline yet
    (ROADMAP item 1).
    """
    X = terminals(pairs)
    cand = sorted(P.facets, key=lambda f: (-len(X & f), sorted(f)))
    if P.dim > 4:
        cand = cand[:1]
    for F in cand:
        try:
            trace.append("cubical/facet-route")
            return link_via_subgraph(
                P.graph, pairs, F,
                lambda ep: _face_link(P, F, ep, trace=trace), trace=trace)
        except Unlinkable:
            trace.append("cubical/facet-route-obstructed")
            continue
    return _search(trace, "cubical/facet-route-search",
                   lambda: oracle_linkage(P.graph, pairs))


def _cubical_solve(P, pairs, trace):
    """Y-linkage in the graph of a cubical d-polytope, aligned to pairs.

    Raises Unlinkable only for d = 3 (blocking configuration on a 2-face).
    """
    d = P.dim
    k = (d + 1) // 2
    if len(pairs) > k:
        raise ValueError(f"at most {k} pairs in a cubical {d}-polytope")
    G = P.graph
    if len(pairs) == 1:
        trace.append("cubical/single-pair")
        return [shortest_path(G, *pairs[0])]
    if d == 3:
        return _base_3F(P, pairs, trace,
                        ("cubical/d3-obstructed", "cubical/d3-search"),
                        lambda: oracle_linkage(G, pairs))
    if d % 2 == 0 or len(pairs) < k:
        return _facet_route(P, pairs, trace)

    # odd dimension at full capacity: reduce to the star of a terminal
    trace.append("cubical/star-route")
    X = terminals(pairs)
    s1 = min(X)
    _, t1, rest = take(pairs, s1)
    S1g = P.generated_graph(P.vertex_facets[s1])
    S1verts = set(S1g)
    route = _route_into(G, X - {s1}, S1verts - {s1}, forbidden={s1},
                        trace=trace)
    route[s1] = [s1]
    bar = {x: route[x][-1] for x in X}

    def bar_pairs():
        return [(s1, bar[t1])] + [(bar[a], bar[b]) for a, b in rest]

    witness = detect_config_dF(P, s1, bar_pairs())
    out = None
    if witness is not None:
        out = _break_config(P, s1, S1verts, bar, route, bar_pairs(), witness,
                            trace)
    if out is None:
        out = _StarSolver(P, s1, bar_pairs(), trace, S1g, S1verts).solve()
    return _splice(pairs, route, lambda ep: [out[frozenset(e)] for e in ep])


def _break_config(P, s1, S1verts, bar, route, bpairs, witness, trace):
    """Dismantle the blocking facet configuration around s1.

    Either redirects one routing path toward the escape ridge (mutating
    `route` and `bar` in place and returning None so the caller re-runs the
    star solver) or, when no routing path comes near any escape ridge,
    returns the star-level linkage built through the neighbouring facet.
    """
    F1 = frozenset(witness.facet)
    bt1 = witness.pair[1]
    barX = set(bar.values()) | {s1}
    ridges = [R for R in P.ridges_of_facet(F1) if bt1 in R]
    for R in ridges:
        J, RJ = _far_ridge(P, R, F1)
        if RJ & F1:
            raise CaseNotCovered("escape ridge meets the blocked facet",
                                 trace=list(trace))
        touching = [x for x in sorted(route) if set(route[x]) & RJ]
        if touching:
            trace.append("cubical/config-redirect")
            _redirect_path(P, bar, route, barX, R, J, RJ, bt1, touching,
                           S1verts, trace)
            return None
    trace.append("cubical/config-neighbour-facet")
    return _relink_through_neighbour(P, s1, bpairs, F1, ridges[0], bt1, trace)


def _redirect_path(P, bar, route, barX, R, J, RJ, bt1, touching, S1verts,
                   trace):
    """Reroute one routing path so its star entry leaves the blocked facet.

    The path is routed inside RJ to `good`, the vertices of RJ whose
    projection onto R is free.  A routing path runs outside the star up to
    its last vertex, and shortest augmenting paths never step from such a
    vertex w to another while w's projection onto R is free.  So a path
    through `good` would end right after it, at the terminal of F1 - R next
    to bt1; the hosts in tests/test_cubical.py have no such edge.
    """
    good = set(RJ) - {P.project_in_face(J, RJ, v) for v in barX & R}
    pi_t1 = P.project_in_face(J, RJ, bt1)
    pick = next((x for x in touching if pi_t1 not in route[x]), touching[0])
    p = route[pick]
    i = next(i for i, v in enumerate(p) if v in RJ)
    used = set(p[:i])
    for y in route:
        if y != pick:
            used |= set(route[y])
    M = _route_into(_Induced(P.graph, RJ), [p[i]], good - used,
                    forbidden=used, trace=trace)[p[i]]
    newpath = p[:i] + M
    if M[-1] not in S1verts:
        newpath = newpath + [P.project_in_face(J, R, M[-1])]
    stop = next(i for i, v in enumerate(newpath) if v in S1verts)
    route[pick] = newpath[:stop + 1]
    bar[pick] = newpath[stop]


def _relink_through_neighbour(P, s1, bpairs, F1, R, bt1, trace):
    """Star linkage when the blocked facet is clear of all routing paths.

    One pair crosses into the ridge of the neighbouring facet opposite R;
    the pair next to the far corner resolves inside the facet; everyone else
    is projected into that far ridge and linked there.
    """
    RF = P.opposite_subface(F1, R)
    J, RJ = _far_ridge(P, R, F1)
    sk = P.project_in_face(F1, RF, bt1)
    _, tk, others = take(bpairs, sk)
    rpairs = [(s1, bt1)] + others[1:]
    pi = lambda v: P.project_in_face(J, RJ, v)
    route = _hops(terminals(rpairs) - {s1}, pi)
    s1p = P.project_in_face(F1, R, s1)
    route[s1] = [s1, s1p, pi(s1p)]
    try:
        sub = _splice(rpairs, route,
                      lambda ep: _face_link(P, RJ, ep, trace=trace))
    except Unlinkable:
        raise CaseNotCovered("escape ridge linkage obstructed",
                             trace=list(trace))
    out = dict(zip(map(frozenset, rpairs), sub))
    out[frozenset((sk, tk))] = [sk, P.project_in_face(F1, RF, tk), tk]
    return out


def _cubical_strong_solve(P, pairs, x, trace):
    """Linkage avoiding the unpaired vertex x (even dimension)."""
    d = P.dim
    if d % 2:
        raise ValueError("strong linkage with an avoided vertex needs even "
                         "dimension")
    if 2 * len(pairs) != d:
        raise ValueError(f"need exactly {d // 2} pairs")
    G = P.graph
    if d == 2:
        trace.append("cubical/strong-base")
        return [shortest_path(G, *pairs[0], {x})]
    lkP = vertex_link(P, x)
    trace.append("cubical/strong-link-route")
    try:
        return link_via_subgraph(
            G, pairs, set(lkP.vertices),
            lambda ep: _cubical_solve(lkP, ep, trace),
            forbidden={x}, trace=trace)
    except Unlinkable:
        # only d = 4: the entries may be blocked in the 3-dimensional link
        return _search(trace, "cubical/strong-search",
                       lambda: oracle_linkage(G, pairs, avoid={x}))


def solve_cubical(P: Polytope, pairs) -> LinkageCertificate:
    """Linkage of up to floor((dim+1)/2) pairs in a cubical polytope.

    Dimension 3 at two pairs may return an obstruction certificate.
    """
    return certify(f"cubical {P.dim}-polytope ({len(P.vertices)}v)",
                   P.graph, P.labels.get, pairs,
                   lambda ps, trace: _cubical_solve(P, ps, trace))


def solve_cubical_strong(P: Polytope, pairs, x) -> LinkageCertificate:
    """Linkage of dim/2 pairs whose paths avoid the extra vertex x."""
    return certify(f"cubical {P.dim}-polytope ({len(P.vertices)}v)",
                   P.graph, P.labels.get, pairs,
                   lambda ps, trace: _cubical_strong_solve(P, ps, x, trace),
                   (x,))
