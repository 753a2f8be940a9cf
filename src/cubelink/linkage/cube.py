"""Constructive linkage solvers for the d-cube.

solve_cube builds a Y-linkage for up to floor((d+1)/2) pairs by facet
recursion; solve_cube_strong additionally avoids one extra terminal x.
Both return LinkageCertificates whose paths are validated before return.
Small dimensions (d <= 4) are settled without a search, by the one base
rule (_shortest_base): shortest paths in one order, then in the other.
Above them no graph is built: paths inside a face come from
hypercube.face_path, which searches only when every shortest path is
blocked.  A subproblem on a facet is moved to the (d-1)-cube and back by
bit splices around the facet's fixed axis (hypercube.facet_maps, whose
compress map is also each facet's embedding in build_cube_polytope), a
list of vertices per call, and certificates are checked against the
implicit CubeAdjacency.

Steps that every linkage solver repeats are public here, for link.py,
star.py and cubical.py: splicing routes onto a linkage found at their ends
(splice), linking the terminals' projections onto a facet there
(link_projected), and the base rule on paths.Bits tables (base_rule),
alone or after a config-3F check (base_3F).  star.py has the Menger router.
"""

from __future__ import annotations

from ..complexes import build_cube_polytope
from ..errors import CaseNotCovered, NoPath
from ..hypercube import (
    CubeAdjacency,
    CubeFace,
    dist,
    face_path,
    facet,
    facet_maps,
    find_unassociated_pair,
    opposite_facet,
    project,
    smallest_face,
    vertex_to_str,
    whole_cube,
)
from ..paths import Bits
from .certs import (
    LinkageCertificate,
    Unlinkable,
    blocking,
    certify,
    terminals,
)


# -- solver steps shared by every linkage solver ----------------------------


def orient(path, start):
    """The path, reversed if need be so that it begins at `start`."""
    return path if path[0] == start else path[::-1]


def hops(X, proj):
    """Routes of one edge from each x in X to proj(x), or just [x] where
    proj fixes x."""
    routes = {}
    for x in X:
        y = proj(x)
        routes[x] = [x] if y == x else [x, y]
    return routes


def _partners(pairs):
    """Each terminal of the pairing mapped to its partner."""
    return {x: y for a, b in pairs for x, y in ((a, b), (b, a))}


def splice(pairs, route, solve):
    """Link the pairs through their routes.

    route[x] runs from the terminal x to its entry vertex.  `solve` links
    the entry pairs; each of its paths runs between a pair's two entries,
    either way round, and is joined to the routes at its ends.
    """
    sub = solve([(route[a][-1], route[b][-1]) for a, b in pairs])
    return [route[a][:-1] + orient(p, route[a][-1]) + route[b][-2::-1]
            for (a, b), p in zip(pairs, sub)]


def link_projected(pairs, F, trace, avoid=()):
    """Link the pairs inside the facet F, avoiding `avoid`, each terminal
    reaching F along one edge (or none, when it lies in F)."""
    return splice(pairs, hops(terminals(pairs), lambda x: project(x, F)),
                  lambda ep: solve_in_face(F, ep, trace, avoid=avoid))


def base_rule(trace, tag, B, pairs, avoid):
    """Tag the trace and return the base rule's linkage on the bit tables
    B, of a cube base at d <= 4 or of a cubical.py lattice: every base case
    on the solve path runs through here.  The rule is not proved complete,
    so a miss raises CaseNotCovered with the tag last in the trace."""
    trace.append(tag)
    sol = _shortest_base(B, pairs, avoid)
    if sol is None:
        raise CaseNotCovered(f"{tag} found no linkage", trace=list(trace))
    return sol


def base_3F(P, pairs, trace, tags):
    """The base of a cubical 3-polytope P: Unlinkable with a config-3F
    witness, else the rule's linkage on P's graph; tags (obstructed, rule)."""
    witness = detect_config_3F(P, pairs)
    if witness is not None:
        trace.append(tags[0])
        raise Unlinkable(witness)
    return base_rule(trace, tags[1], Bits(P.graph), pairs, ())


# -- the base rule: shortest paths in one order, then the other -------------

_base_cache: dict = {}  # d -> the bit tables of Q_d, with their geodesics


def _cube_bits(d):
    """The bit tables of Q_d, d <= 4, built once with their geodesics."""
    B = _base_cache.get(d)
    if B is None:
        B = _base_cache[d] = Bits(CubeAdjacency(d))
        B.geo = B.geodesics()
    return B


def _shortest_base(B, pairs, avoid):
    """Linkage on the bit tables B by shortest paths; None when cut off.

    The pairs are routed in the given order, each along a BFS-shortest path
    that avoids the other terminals, the avoided vertices and the earlier
    paths; when a pair is cut off they are routed once more in reverse
    order.  Measured, not proved: it links every instance that has a
    linkage among the Q_3 and Q_4 bases within the capacity cube_paths
    enforces, the links of Q_4's vertices and the 2-pairings of the small
    3-polytopes in tests/test_cubical.py, once config-3F is ruled out.
    """
    ps, frees = B.pair_masks(pairs, avoid)
    masks = B.shortest_linkage(ps, frees)
    if masks is None:
        masks = B.shortest_linkage(ps[::-1], frees[::-1])
        if masks is None:
            return None
        masks.reverse()
    return [B.walk(a, b, m) for (a, b), m in zip(ps, masks)]


# -- obstruction detection in 3-polytopes -----------------------------------


def detect_config_3F(P, pairs):
    """First blocking configuration in a cubical 3-polytope, or None.

    A cubical 3-polytope's 2-faces are its facets.  Per facet F, in order,
    and per pair and orientation (a, b), `certs.blocking` decides whether F
    blocks the pair: a and b antipodal in F and both F-neighbours of b
    terminals.  The scan order makes the witness deterministic.  Only the
    facets that hold a whole pair are scanned, since `blocking` needs both
    a and b in F; their incidence bits run in facet order.
    """
    X = terminals(pairs)
    if len(X) < 4:
        raise ValueError("need at least 4 terminals")
    vf = P.vertex_facets
    both = 0
    for s, t in pairs:
        both |= vf.get(s, 0) & vf.get(t, 0)
    while both:
        low = both & -both
        both ^= low
        F = P.facets[low.bit_length() - 1]
        if len(X & F) < 4:
            continue  # F blocks only with a, b and b's two neighbours in it
        for s, t in pairs:
            for a, b in ((s, t), (t, s)):
                witness = blocking(P, "config-3F", F, a, b, X)
                if witness is not None:
                    return witness
    return None


# -- scenario 2 machinery ----------------------------------------------------


def scenario2_partition(F: CubeFace, pairs):
    """Partition of the in-facet terminals (pair 0 excluded) into classes 0-4.

    Pair 0 lies in F.  Classes: 0 partner adjacent within F; 1 partner is the
    projection across; 2 projection is not a terminal; 3 partner sits across
    with a unique terminal-avoiding path of length 2 through its projection;
    4 everything else.
    """
    s1, t1 = pairs[0]
    Fo = opposite_facet(F)
    partner = _partners(pairs)
    X = set(partner)
    classes = {0: [], 1: [], 2: [], 3: [], 4: []}
    for x in sorted(X - {s1, t1}):
        if not F.contains(x):
            continue
        y = partner[x]
        xp = project(x, Fo)
        if F.contains(y) and dist(x, y) == 1:
            classes[0].append(x)
        elif y == xp:
            classes[1].append(x)
        elif xp not in X:
            classes[2].append(x)
        else:
            yp = project(y, F) if Fo.contains(y) else None
            if yp is not None and dist(x, yp) == 1 and yp not in X:
                classes[3].append(x)
            else:
                classes[4].append(x)
    return classes


def build_Mx_paths(d, F: CubeFace, pairs, classes):
    """Disjoint terminal-avoiding escape paths of length <= 2 into F-opposite.

    One path per vertex of classes 2, 3, 4; each meets the terminal set only
    in its own endpoints.  Class 4 picks the least F-neighbour w with w and
    its projection off the terminals and the earlier paths; no neighbour
    raises CaseNotCovered, which the counting argument rules out.  A free
    w projecting onto x's partner would be the partner's projection, and
    x would be class 3, so class-2 and class-4 paths end off the terminals
    and apart.
    """
    Fo = opposite_facet(F)
    partner = _partners(pairs)
    X = set(partner)
    free_axes = [i for i in range(d) if (F.free_mask >> i) & 1]
    M = {}
    for x in classes[2]:
        M[x] = [x, project(x, Fo)]
    for x in classes[3]:
        y = partner[x]
        M[x] = [x, project(y, F), y]
    taken = X.union(*M.values())
    for x in classes[4]:
        cands = [w for w in (x ^ (1 << a) for a in free_axes)
                 if w not in taken and project(w, Fo) not in taken]
        if not cands:
            raise CaseNotCovered(f"no free escape neighbour at {x}",
                                 trace=["cube/scenario-2/Mx"])
        w = min(cands)
        M[x] = [x, w, project(w, Fo)]
        taken.update(M[x])
    return M


# -- the main induction ------------------------------------------------------


def _solve(d, pairs, trace):
    """Y-linkage in Q_d; paths aligned and oriented to `pairs`."""
    k_max = (d + 1) // 2
    if len(pairs) > k_max:
        raise ValueError(f"at most {k_max} pairs in Q_{d}")
    if len(pairs) == 1:
        trace.append("cube/single-pair")
        return [face_path(whole_cube(d), *pairs[0])]
    if d == 3:
        return base_3F(build_cube_polytope(3), pairs, trace,
                       ("cube/d3-obstructed", "cube/base-d3"))
    if d <= 4:
        return base_rule(trace, f"cube/base-d{d}", _cube_bits(d), pairs, ())

    X = sorted(terminals(pairs))
    K = smallest_face(d, X)
    if K.fixed_mask:
        axis = (K.fixed_mask & -K.fixed_mask).bit_length() - 1
        F = facet(d, axis, (K.fixed_values >> axis) & 1)
        return _scenario1(F, pairs, X, trace)
    for i, (s, t) in enumerate(pairs):
        if dist(s, t) < d:
            agree = ~(s ^ t)
            axis = (agree & -agree).bit_length() - 1
            F = facet(d, axis, (s >> axis) & 1)
            return _scenario2(d, F, i, pairs, X, trace)
    return _scenario3(d, pairs, X, trace)


def solve_in_face(F: CubeFace, pairs, trace, avoid=()):
    """Linkage within the facet F, via the padded solver on its cube."""
    compress, expand = facet_maps(F)
    ends = compress([v for p in pairs for v in p])
    sub = cube_paths(F.dim, list(zip(ends[::2], ends[1::2])),
                     compress(avoid), trace)
    return [expand(p) for p in sub]


def _scenario1(F, pairs, X, trace):
    """All terminals X inside the facet F: settle the first pair with a
    path in F, link the rest across in the opposite facet."""
    trace.append("cube/scenario-1")
    for i, (s, t) in enumerate(pairs):
        try:
            path = face_path(F, s, t, X)
        except NoPath:
            continue
        sub = link_projected(pairs[:i] + pairs[i + 1:], opposite_facet(F),
                             trace)
        return sub[:i] + [path] + sub[i:]
    raise CaseNotCovered("no terminal-avoiding path in the common facet",
                         trace=list(trace))


def _scenario2(d, F, idx, pairs, X, trace):
    """Pair `idx` lies in the facet F but some terminal is outside it.  The
    other pairs with no end in classes 0, 1, 3 are linked in the opposite
    facet between their escapes' ends, which differ (build_Mx_paths)."""
    trace.append("cube/scenario-2")
    order = [idx] + [i for i in range(len(pairs)) if i != idx]
    pairs1 = [pairs[i] for i in order]
    s1, t1 = pairs1[0]
    Fo = opposite_facet(F)

    classes = scenario2_partition(F, pairs1)
    M = build_Mx_paths(d, F, pairs1, classes)
    c01, c3 = {*classes[0], *classes[1]}, set(classes[3])
    skip = {M[x][-1] for x in c3} | {project(x, Fo) for x in classes[1]}
    for x in X:
        if Fo.contains(x) and x not in skip:
            M.setdefault(x, [x])

    paths1 = [None] * len(pairs1)
    link_slots = []
    for i in range(1, len(pairs1)):
        a, b = pairs1[i]
        if a in c01 or b in c01:
            paths1[i] = [a, b]
        elif a in c3:
            paths1[i] = M[a]
        elif b in c3:
            paths1[i] = M[b][::-1]
        else:
            link_slots.append(i)
    if link_slots:
        trace.append("cube/scenario-2/opposite-linkage")
        sub = splice([pairs1[i] for i in link_slots], M,
                     lambda ep: solve_in_face(Fo, ep, trace,
                                              avoid=sorted(skip)))
        for i, p in zip(link_slots, sub):
            paths1[i] = p

    # in F the other paths hold only its other terminals and the middle
    # vertices of the class-3 and class-4 paths; the rest lies in Fo
    used = {x for c in classes.values() for x in c}
    used.update(M[x][1] for x in classes[3] + classes[4])
    try:
        paths1[0] = face_path(F, s1, t1, used)
    except NoPath:
        raise CaseNotCovered("in-facet pair cannot dodge the escape paths",
                             trace=list(trace) + ["cube/scenario-2/L1"])
    trace.append("cube/scenario-2/L1")

    paths = [None] * len(pairs)
    for slot, i in enumerate(order):
        paths[i] = orient(paths1[slot], pairs[i][0])
    return paths


def _scenario3(d, pairs, X, trace):
    """Every pair antipodal: split across an unassociated facet pair."""
    trace.append("cube/scenario-3")
    s1 = pairs[0][0]
    axis = find_unassociated_pair(d, [x for x in X if x != s1])
    Fo = facet(d, axis, (s1 >> axis) & 1)
    F = opposite_facet(Fo)
    # each pair as (s, t) with s in Fo and t in F
    oriented = [p if Fo.contains(p[0]) else p[::-1] for p in pairs]
    j = next(i for i in range(1, len(pairs))
             if project(oriented[i][1], Fo) != s1)
    front = [0, j]
    rest = [i for i in range(len(pairs)) if i not in front]
    out = dict(zip(rest, link_projected(
        [oriented[i] for i in rest], F, trace,
        avoid=[oriented[i][1] for i in front])))
    out.update(zip(front, link_projected(
        [oriented[i] for i in front], Fo, trace,
        avoid=[oriented[i][0] for i in rest])))
    return [orient(out[i], pair[0]) for i, pair in enumerate(pairs)]


def _strong(d, pairs, x, trace):
    """Linkage of d/2 pairs in Q_d (d even) avoiding the extra terminal x."""
    if d % 2:
        raise ValueError("strong linkage needs even d")
    if 2 * len(pairs) != d:
        raise ValueError(f"need exactly {d // 2} pairs")
    if d == 2:
        trace.append("cube/strong-base-d2")
        return [face_path(whole_cube(2), *pairs[0], {x})]
    if d == 4:
        return base_rule(trace, "cube/strong-base-d4", _cube_bits(4), pairs,
                         (x,))
    trace.append("cube/strong-project")
    axis = find_unassociated_pair(d, terminals(pairs))
    F = facet(d, axis, 1 - ((x >> axis) & 1))
    return link_projected(pairs, F, trace)


def cube_paths(d, pairs, avoid, trace):
    """Linkage of ell <= floor((d+1)/2) pairs avoiding a vertex set.

    Spare capacity absorbs avoided vertices as dummy pairs; when the totals
    hit d + 1 on even d the strong solver takes over with the last avoided
    vertex as the unpaired terminal.  Past that capacity it raises
    ValueError, at d <= 4 too, before the base rule runs.
    """
    avoid = sorted(set(avoid))
    if not pairs:
        return []
    k_max = (d + 1) // 2
    total = 2 * len(pairs) + len(avoid)
    if total <= 2 * k_max:
        extra, x = avoid, None
    elif total == d + 1 and d % 2 == 0:
        extra, x = avoid[:-1], avoid[-1]
    else:
        raise ValueError(f"{len(pairs)} pairs + {len(avoid)} avoided "
                         f"exceed the capacity of Q_{d}")
    if d <= 4:
        # a config-3F witness means no linkage exists, so it may come first
        if d == 3 and not avoid and len(pairs) == 2:
            witness = detect_config_3F(build_cube_polytope(3), pairs)
            if witness is not None:
                raise Unlinkable(witness)
        return base_rule(trace, f"cube/base-d{d}", _cube_bits(d), pairs,
                         avoid)
    if len(extra) % 2:
        X = terminals(pairs)
        filler = next(v for v in range(1 << d)
                      if v not in X and v not in avoid)
        extra = extra + [filler]
    dummies = [(extra[i], extra[i + 1]) for i in range(0, len(extra), 2)]
    padded = list(pairs) + dummies
    if x is None:
        sol = _solve(d, padded, trace)
    else:
        sol = _strong(d, padded, x, trace)
    return sol[: len(pairs)]


# -- public API --------------------------------------------------------------


def _certify(d, pairs, solve, avoid=()):
    return certify(f"Q_{d}", CubeAdjacency(d), lambda v: vertex_to_str(v, d),
                   pairs, solve, avoid)


def cube_linkage(d, pairs, avoid=()) -> LinkageCertificate:
    """Linkage in Q_d avoiding a vertex set, within proven capacity."""
    avoid = sorted(avoid)
    return _certify(d, pairs,
                    lambda ps, trace: cube_paths(d, ps, avoid, trace), avoid)


def solve_cube(d, pairs) -> LinkageCertificate:
    """Linkage of up to floor((d+1)/2) pairs in Q_d.

    d = 3 at two pairs may return an obstruction certificate instead.
    """
    return _certify(d, pairs, lambda ps, trace: _solve(d, ps, trace))


def solve_cube_strong(d, pairs, x) -> LinkageCertificate:
    """Linkage of d/2 pairs in Q_d (d even) whose paths avoid x."""
    return _certify(d, pairs, lambda ps, trace: _strong(d, ps, x, trace),
                    (x,))
