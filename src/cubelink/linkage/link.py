"""Linkage in the link of a vertex of a cube.

The link of v in Q_D is the subgraph on V(Q_D) minus {v, v-opposite}; it is
combinatorially a cubical (D-1)-polytope.  solve_link produces a linkage
avoiding both removed vertices via an unassociated opposite-facet split, with
reroutes around v and its antipode when a facet-level linkage touches them.
"""

from __future__ import annotations

from ..complexes import LINK_DIM_ERROR, LINK_VERTEX_ERROR, link_polytope
from ..hypercube import (
    CubeAdjacency,
    face_path,
    facet,
    find_unassociated_pair,
    opposite_facet,
    project,
    vertex_to_str,
    whole_cube,
)
from .certs import LinkageCertificate, certify, take, terminals
from .cube import (base_3F, hops, link_projected, orient, solve_in_face,
                   splice)


def _reroute_through_opposite(F, vother, paths, idx, pairs, trace):
    """Rebuild paths[idx], which passes through the removed vertex inside
    the facet F, as a detour through the opposite facet avoiding vother."""
    Fo = opposite_facet(F)
    s, t = pairs[idx]

    def route(x, p):
        """x's way across, along its first edge of p when x faces vother."""
        if project(x, Fo) != vother:
            return [x, project(x, Fo)]
        return [x, p[1], project(p[1], Fo)]

    p = orient(paths[idx], s)
    return splice([(s, t)], {s: route(s, p), t: route(t, p[::-1])},
                  lambda ep: solve_in_face(Fo, ep, trace, avoid=[vother]))[0]


def link_paths(D, v, pairs, trace):
    """Linkage in Q_D avoiding v and its antipode; paths aligned to pairs."""
    if len(pairs) > D // 2:
        raise ValueError(f"at most {D // 2} pairs in the link of a vertex "
                         f"of Q_{D}")
    full = (1 << D) - 1
    vo = v ^ full
    X = terminals(pairs)
    if len(pairs) == 1:
        trace.append("link/single-pair")
        return [face_path(whole_cube(D), *pairs[0], forbidden=(v, vo))]
    if D == 4:  # the link is a 3-polytope
        return base_3F(link_polytope(D, v), pairs, trace,
                       ("link/d3-obstructed", "link/d3-search"))

    axis = find_unassociated_pair(D, X)
    F = facet(D, axis, (v >> axis) & 1)
    Fo = opposite_facet(F)
    in_F = [x for x in X if F.contains(x)]

    if len(in_F) == len(X) or not in_F:
        # every terminal on one side: link there, reroute around the removed
        # vertex through the other side if needed
        side, vside, vother = ((F, v, vo) if in_F else (Fo, vo, v))
        trace.append("link/one-side")
        paths = solve_in_face(side, pairs, trace)
        idx = next((i for i, p in enumerate(paths) if vside in p), None)
        if idx is not None:
            trace.append("link/one-side-reroute")
            paths[idx] = _reroute_through_opposite(
                side, vother, paths, idx, pairs, trace)
        return paths

    adj_v = [x for x in X if not F.contains(x) and project(x, F) == v]
    adj_vo = [x for x in X if F.contains(x) and project(x, Fo) == vo]
    if adj_v or adj_vo:
        trace.append("link/adjacent-terminal")
        if adj_v:
            side, other, vside, vother, special = F, Fo, v, vo, adj_v[0]
        else:
            side, other, vside, vother, special = Fo, F, vo, v, adj_vo[0]
        # orient the special pair as (s1, t1) with t1 next to the removed vertex
        i1, s1, rest = take(pairs, special)
        t1 = special
        if not side.contains(s1):
            # both endpoints across from the removed vertex: settle the pair
            # there and link everyone else through projections on this side
            L1 = face_path(other, s1, t1, forbidden=X | {vother})
            sub = link_projected(rest, side, trace, avoid=[vside])
        else:
            M1, *sub = link_projected([(s1, vside)] + rest, side, trace)
            head = [s1] if project(s1, other) != vother else [s1, M1[1]]
            L1 = head + face_path(other, project(head[-1], other), t1,
                                  forbidden=X | {vother})
        sub = iter(sub)
        return [orient(L1, a) if i == i1 else next(sub)
                for i, (a, b) in enumerate(pairs)]

    # no terminal adjacent to v across the split, nor to its antipode: work
    # with the projections on the v side and reroute through the far side
    trace.append("link/projected")
    paths = link_projected(pairs, F, trace)
    idx = next((i for i, p in enumerate(paths) if v in p), None)
    if idx is not None:
        trace.append("link/projected-reroute")
        paths[idx] = splice(
            pairs[idx:idx + 1], hops(pairs[idx], lambda x: project(x, Fo)),
            lambda ep: [face_path(Fo, *ep[0], forbidden=X | {vo})])[0]
    return paths


def solve_link(D, v, pairs) -> LinkageCertificate:
    """Linkage among up to floor(D/2) pairs in the link of v in Q_D."""
    if D < 3:
        raise ValueError(LINK_DIM_ERROR.format(d=D))
    if not 0 <= v < 1 << D:
        raise ValueError(LINK_VERTEX_ERROR.format(v=v, d=D))
    vo = v ^ ((1 << D) - 1)
    return certify(f"link(Q_{D}, {vertex_to_str(v, D)})", CubeAdjacency(D),
                   lambda u: vertex_to_str(u, D), pairs,
                   lambda ps, trace: link_paths(D, v, ps, trace),
                   avoid=(v, vo))
