"""Linkage in the link of a vertex of a cube.

The link of v in Q_D is the subgraph on V(Q_D) minus {v, v-opposite}; it is
combinatorially a cubical (D-1)-polytope.  solve_link produces a linkage
avoiding both removed vertices via an unassociated opposite-facet split, with
reroutes around v and its antipode when a facet-level linkage touches them.
"""

from __future__ import annotations

from ..errors import CaseNotCovered
from ..hypercube import (
    CubeAdjacency,
    cube_graph,
    face_path,
    facet,
    find_unassociated_pair,
    opposite_facet,
    project,
    vertex_to_str,
    whole_cube,
)
from .certs import LinkageCertificate, Unlinkable, certify, terminals
from .cube import _solve_in_face, detect_config_3F


def _host_graph(D, v, vo):
    """The link graph as a dict: Q_D without v and vo (2^D entries)."""
    G = cube_graph(D)
    return {u: tuple(w for w in G[u] if w not in (v, vo))
            for u in G if u not in (v, vo)}


def _reroute_through_opposite(D, F, vside, vother, paths, idx, pairs, trace):
    """Rebuild paths[idx], which passes through vside inside the facet F,
    as a detour through the opposite facet avoiding vother."""
    Fo = opposite_facet(F)
    s, t = pairs[idx]
    p = paths[idx]
    if p[0] != s:
        p = p[::-1]
    if project(s, Fo) == vother:
        w = p[1]
        if w == vside:
            raise CaseNotCovered("terminal adjacent to the removed vertex",
                                 trace=list(trace))
        head = [s, w]
        start = project(w, Fo)
    else:
        head = [s]
        start = project(s, Fo)
    if project(t, Fo) == vother:
        q = p[::-1]
        w = q[1]
        if w == vside:
            raise CaseNotCovered("terminal adjacent to the removed vertex",
                                 trace=list(trace))
        tail = [w, t]
        end = project(w, Fo)
    else:
        tail = [t]
        end = project(t, Fo)
    sub = _solve_in_face(Fo, [(start, end)], trace, avoid=[vother])
    return head + sub[0] + tail


def _link_solve(D, v, pairs, trace):
    """Linkage in Q_D avoiding v and its antipode; paths aligned to pairs."""
    if len(pairs) > D // 2:
        raise ValueError(f"at most {D // 2} pairs in the link of a vertex "
                         f"of Q_{D}")
    full = (1 << D) - 1
    vo = v ^ full
    X = terminals(pairs)
    if X & {v, vo}:
        raise ValueError("terminals must avoid the removed vertex pair")
    if len(pairs) == 1:
        trace.append("link/single-pair")
        return [face_path(whole_cube(D), *pairs[0], forbidden=(v, vo))]
    if D == 4:  # the link is a 3-polytope
        from ..complexes import link_polytope

        P = link_polytope(D, v)
        witness = detect_config_3F(P, pairs)
        if witness is not None:
            trace.append("link/d3-obstructed")
            raise Unlinkable(witness)
        trace.append("link/d3-search")
        from ..oracle import oracle_linkage

        sol = oracle_linkage(P.graph, pairs)
        if sol is None:
            raise CaseNotCovered("unobstructed link instance with no linkage",
                                 trace=list(trace))
        return sol

    axis = find_unassociated_pair(D, X)
    F = facet(D, axis, (v >> axis) & 1)
    Fo = opposite_facet(F)
    in_F = [x for x in X if F.contains(x)]

    if len(in_F) == len(X) or not in_F:
        # every terminal on one side: link there, reroute around the removed
        # vertex through the other side if needed
        side, vside, vother = ((F, v, vo) if in_F else (Fo, vo, v))
        trace.append("link/one-side")
        paths = _solve_in_face(side, pairs, trace)
        idx = next((i for i, p in enumerate(paths) if vside in p), None)
        if idx is not None:
            trace.append("link/one-side-reroute")
            paths[idx] = _reroute_through_opposite(
                D, side, vside, vother, paths, idx, pairs, trace)
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
        i1 = next(i for i, p in enumerate(pairs) if special in p)
        s1, t1 = pairs[i1]
        if s1 == special:
            s1, t1 = t1, s1
        rest = [p for i, p in enumerate(pairs) if i != i1]
        out = {}
        if not side.contains(s1):
            # both endpoints across from the removed vertex: settle the pair
            # there and link everyone else through projections on this side
            L1 = face_path(other, s1, t1, forbidden=X | {vother})
            ppairs = [(project(a, side), project(b, side)) for a, b in rest]
            sub = _solve_in_face(side, ppairs, trace, avoid=[vside])
            for (a, b), p in zip(rest, sub):
                if not side.contains(a):
                    p = [a] + p
                if not side.contains(b):
                    p = p + [b]
                out[(a, b)] = p
            out[(s1, t1)] = L1
        else:
            lpairs = [(s1, vside)] + [(project(a, side), project(b, side))
                                      for a, b in rest]
            sub = _solve_in_face(side, lpairs, trace)
            M1 = sub[0]
            for (a, b), p in zip(rest, sub[1:]):
                if not side.contains(a):
                    p = [a] + p
                if not side.contains(b):
                    p = p + [b]
                out[(a, b)] = p
            if project(s1, other) != vother:
                head = [s1]
                start = project(s1, other)
            else:
                w = M1[1]
                head = [s1, w]
                start = project(w, other)
            tail = face_path(other, start, t1, forbidden=X | {vother})
            out[(s1, t1)] = head + tail
        paths = []
        for i, (a, b) in enumerate(pairs):
            p = out[(a, b)] if (a, b) in out else out[(b, a)][::-1]
            paths.append(p if p[0] == a else p[::-1])
        return paths

    # no terminal adjacent to v across the split, nor to its antipode: work
    # with the projections on the v side and reroute through the far side
    trace.append("link/projected")
    ppairs = [(project(a, F), project(b, F)) for a, b in pairs]
    sub = _solve_in_face(F, ppairs, trace)
    idx = next((i for i, p in enumerate(sub) if v in p), None)
    if idx is not None:
        trace.append("link/projected-reroute")
        a, b = pairs[idx]
        sub[idx] = face_path(Fo, project(a, Fo), project(b, Fo),
                             forbidden=X | {vo})
        ppairs[idx] = (project(a, Fo), project(b, Fo))
    paths = []
    for (a, b), (pa, pb), p in zip(pairs, ppairs, sub):
        if p[0] != pa:
            p = p[::-1]
        if a != pa:
            p = [a] + p
        if b != pb:
            p = p + [b]
        paths.append(p)
    return paths


def solve_link(D, v, pairs) -> LinkageCertificate:
    """Linkage among up to floor(D/2) pairs in the link of v in Q_D."""
    vo = v ^ ((1 << D) - 1)
    instance = {
        "host": f"link(Q_{D}, {vertex_to_str(v, D)})",
        "pairs": [[vertex_to_str(s, D), vertex_to_str(t, D)] for s, t in pairs],
        "avoid": [vertex_to_str(v, D), vertex_to_str(vo, D)],
    }
    return certify(instance, pairs,
                   lambda ps, trace: _link_solve(D, v, ps, trace),
                   lambda: CubeAdjacency(D), avoid=(v, vo))
