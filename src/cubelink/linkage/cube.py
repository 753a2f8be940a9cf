"""Constructive linkage solvers for the d-cube.

solve_cube builds a Y-linkage for up to floor((d+1)/2) pairs by facet
recursion; solve_cube_strong additionally avoids one extra terminal x.
Both return LinkageCertificates whose paths are validated before return.
Small dimensions (d <= 4) are settled by exhaustive search, memoised up to
cube symmetry; the search has no deadline yet (ROADMAP item 1).  Above them
no graph is built.  Paths inside a face come from hypercube.face_path: a
path is written down in closed form when no forbidden vertex lies in the
subcube between its ends, which is the usual case; when some do, the
shortest paths that avoid them are counted and the path is walked along
them; and it is searched by A* from both ends only when every shortest path
is blocked.  A subproblem on a facet is moved to the (d-1)-cube and back
by bit splices around the facet's fixed axis (facet_maps), and certificates
are checked against the implicit CubeAdjacency.

Steps that every linkage solver repeats are written once here: splicing
routes onto a linkage found at their ends (_splice), linking the terminals'
projections onto a facet there (_link_projected), and running a base-case
search (_search), alone or after a config-3F check (_base_3F).  The Menger
router (_route_into) sits beside _chain in star.py.
"""

from __future__ import annotations

from ..complexes import build_cube_polytope
from ..errors import CaseNotCovered, NoPath
from ..hypercube import (
    CubeAdjacency,
    CubeFace,
    cube_graph,
    dist,
    face_path,
    facet,
    find_unassociated_pair,
    opposite_facet,
    project,
    smallest_face,
    vertex_to_str,
    whole_cube,
)
from ..oracle import cube_instance_key, invert_cube_map, oracle_linkage
from .certs import (
    LinkageCertificate,
    Unlinkable,
    blocking,
    certify,
    terminals,
)


def facet_maps(F: CubeFace):
    """(compress, expand) bijections between V(F) and the (d-1)-cube, for a
    facet F: compress drops F's fixed axis and closes the gap, expand opens
    it and puts F's fixed value back.  A face that is not a facet raises
    ValueError."""
    if F.fixed_mask.bit_count() != 1:
        raise ValueError("facet_maps requires a facet (one fixed coordinate)")
    axis = F.fixed_mask.bit_length() - 1
    low = F.fixed_mask - 1  # the axes below the fixed one

    def compress(v):
        return (v & low) | (v >> (axis + 1) << axis)

    def expand(w):
        return (w & low) | (w >> axis << (axis + 1)) | F.fixed_values

    return compress, expand


# -- solver steps shared by every linkage solver ----------------------------


def _orient(path, start):
    """The path, reversed if need be so that it begins at `start`."""
    return path if path[0] == start else path[::-1]


def _hops(X, proj):
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


def _splice(pairs, route, solve):
    """Link the pairs through their routes.

    route[x] runs from the terminal x to its entry vertex.  `solve` links
    the entry pairs; each of its paths runs between a pair's two entries,
    either way round, and is joined to the routes at its ends.
    """
    sub = solve([(route[a][-1], route[b][-1]) for a, b in pairs])
    return [route[a][:-1] + _orient(p, route[a][-1]) + route[b][-2::-1]
            for (a, b), p in zip(pairs, sub)]


def _link_projected(pairs, F, trace, avoid=()):
    """Link the pairs inside the facet F, avoiding `avoid`, each terminal
    reaching F along one edge (or none, when it lies in F)."""
    return _splice(pairs, _hops(terminals(pairs), lambda x: project(x, F)),
                   lambda ep: _solve_in_face(F, ep, trace, avoid=avoid))


def _search(trace, tag, search):
    """Tag the trace and return the linkage an exhaustive search finds.

    Every base-case search on the solve path runs through here, with no
    deadline yet (ROADMAP item 1).  A search that finds nothing raises
    CaseNotCovered with its tag last in the trace.
    """
    trace.append(tag)
    sol = search()
    if sol is None:
        raise CaseNotCovered(f"{tag} found no linkage", trace=list(trace))
    return sol


def _base_3F(P, pairs, trace, tags, search):
    """The base of a cubical 3-polytope P: Unlinkable with a config-3F
    witness, else the search's linkage; `tags` are (obstructed, search)."""
    witness = detect_config_3F(P, pairs)
    if witness is not None:
        trace.append(tags[0])
        raise Unlinkable(witness)
    return _search(trace, tags[1], search)


# -- exhaustive base (d <= 4), memoised up to cube symmetry -----------------

_base_cache: dict = {}


def _oracle_base(d, pairs, avoid=()):
    """Exhaustive linkage search in Q_d, d <= 4; None when none exists.

    With at most one avoided vertex, results are cached on the canonical
    orbit key (translations and axis permutations), so whole censuses cost
    only one search per symmetry class and the cache never outgrows the
    classes of Q_1..Q_4.  The search runs on the canonical instance and its
    paths are mapped back through the key's map, so the map, not just the
    key, fixes the paths.  The key is a few table lookups per candidate
    map.  More avoided vertices are searched directly.
    """
    G = cube_graph(d)
    if len(avoid) > 1:
        return oracle_linkage(G, pairs, avoid)
    x = avoid[0] if avoid else None
    key, tmap = cube_instance_key(d, pairs, x)
    ckey = ("canon", d, key)
    if ckey not in _base_cache:
        cpairs = [tuple(p) for p in key[0]]
        cavoid = [key[1]] if key[1] is not None else []
        _base_cache[ckey] = oracle_linkage(G, cpairs, cavoid)
    sol = _base_cache[ckey]
    if sol is None:
        return None
    back = [[invert_cube_map(v, d, tmap) for v in p] for p in sol]
    by_ends = {frozenset((p[0], p[-1])): p for p in back}
    return [_orient(by_ends[frozenset(p)], p[0]) for p in pairs]


# -- obstruction detection in 3-polytopes -----------------------------------


def detect_config_3F(P, pairs):
    """First blocking configuration in a cubical 3-polytope, or None.

    A cubical 3-polytope's 2-faces are its facets.  Per facet F, in order,
    and per pair and orientation (a, b), `certs.blocking` decides whether F
    blocks the pair: a and b antipodal in F and both F-neighbours of b
    terminals.  The scan order makes the witness deterministic.
    """
    X = terminals(pairs)
    if len(X) < 4:
        raise ValueError("need at least 4 terminals")
    for F in P.facets:
        if len(X & F) < 4:
            continue  # F blocks only with a, b and b's two neighbours in it
        for s, t in pairs:
            for a, b in ((s, t), (t, s)):
                witness = blocking(P, "config-3F", F, a, b, X)
                if witness is not None:
                    return witness
    return None


# -- scenario 2 machinery ----------------------------------------------------


def scenario2_partition(d, F: CubeFace, pairs):
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
    for x in classes[4]:
        taken = X.union(*M.values())
        cands = [w for w in (x ^ (1 << a) for a in free_axes)
                 if w not in taken and project(w, Fo) not in taken]
        if not cands:
            raise CaseNotCovered(f"no free escape neighbour at {x}",
                                 trace=["cube/scenario-2/Mx"])
        w = min(cands)
        M[x] = [x, w, project(w, Fo)]
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
        return _base_3F(build_cube_polytope(3), pairs, trace,
                        ("cube/d3-obstructed", "cube/base-d3"),
                        lambda: _oracle_base(3, pairs))
    if d <= 4:
        return _search(trace, f"cube/base-d{d}",
                       lambda: _oracle_base(d, pairs))

    X = sorted(terminals(pairs))
    K = smallest_face(d, X)
    if K.fixed_mask:
        axis = (K.fixed_mask & -K.fixed_mask).bit_length() - 1
        F = facet(d, axis, (K.fixed_values >> axis) & 1)
        return _scenario1(F, pairs, trace)
    for i, (s, t) in enumerate(pairs):
        if dist(s, t) < d:
            agree = ~(s ^ t)
            axis = next(a for a in range(d) if (agree >> a) & 1)
            F = facet(d, axis, (s >> axis) & 1)
            return _scenario2(d, F, i, pairs, trace)
    return _scenario3(d, pairs, trace)


def _solve_in_face(F: CubeFace, pairs, trace, avoid=()):
    """Linkage within the facet F, via the padded solver on its cube."""
    compress, expand = facet_maps(F)
    cpairs = [(compress(s), compress(t)) for s, t in pairs]
    cavoid = [compress(v) for v in avoid]
    sub = _linkage(F.dim, cpairs, cavoid, trace)
    return [[expand(v) for v in p] for p in sub]


def _scenario1(F, pairs, trace):
    """All terminals inside the facet F: settle the first pair with a path
    in F, link the rest across in the opposite facet."""
    trace.append("cube/scenario-1")
    X = terminals(pairs)
    for i, (s, t) in enumerate(pairs):
        try:
            path = face_path(F, s, t, X)
        except NoPath:
            continue
        sub = _link_projected(pairs[:i] + pairs[i + 1:], opposite_facet(F),
                              trace)
        return sub[:i] + [path] + sub[i:]
    raise CaseNotCovered("no terminal-avoiding path in the common facet",
                         trace=list(trace))


def _scenario2(d, F, idx, pairs, trace):
    """Pair `idx` lies in the facet F but some terminal is outside it.  The
    other pairs with no end in classes 0, 1, 3 are linked in the opposite
    facet between their escapes' ends, which differ (build_Mx_paths)."""
    trace.append("cube/scenario-2")
    order = [idx] + [i for i in range(len(pairs)) if i != idx]
    pairs1 = [pairs[i] for i in order]
    s1, t1 = pairs1[0]
    Fo = opposite_facet(F)
    X = terminals(pairs1)

    classes = scenario2_partition(d, F, pairs1)
    M = build_Mx_paths(d, F, pairs1, classes)
    c0, c1, c3 = set(classes[0]), set(classes[1]), set(classes[3])
    Y3 = {M[x][-1] for x in c3}
    piX1 = {project(x, Fo) for x in c1}
    for x in sorted(X):
        if Fo.contains(x) and x not in Y3 | piX1 and x not in (s1, t1):
            M.setdefault(x, [x])

    paths1 = [None] * len(pairs1)
    link_slots = []
    for i in range(1, len(pairs1)):
        a, b = pairs1[i]
        if a in c0 | c1 or b in c0 | c1:
            paths1[i] = [a, b]
        elif a in c3:
            paths1[i] = M[a]
        elif b in c3:
            paths1[i] = M[b][::-1]
        else:
            link_slots.append(i)
    if link_slots:
        trace.append("cube/scenario-2/opposite-linkage")
        sub = _splice([pairs1[i] for i in link_slots], M,
                      lambda ep: _solve_in_face(Fo, ep, trace,
                                                avoid=sorted(Y3 | piX1)))
        for i, p in zip(link_slots, sub):
            paths1[i] = p

    used = {v for p in paths1[1:] for v in p}
    try:
        paths1[0] = face_path(F, s1, t1, used)
    except NoPath:
        raise CaseNotCovered("in-facet pair cannot dodge the escape paths",
                             trace=list(trace) + ["cube/scenario-2/L1"])
    trace.append("cube/scenario-2/L1")

    paths = [None] * len(pairs)
    for slot, i in enumerate(order):
        paths[i] = _orient(paths1[slot], pairs[i][0])
    return paths


def _scenario3(d, pairs, trace):
    """Every pair antipodal: split across an unassociated facet pair."""
    trace.append("cube/scenario-3")
    s1 = pairs[0][0]
    X = terminals(pairs)
    axis = find_unassociated_pair(d, X - {s1})
    Fo = facet(d, axis, (s1 >> axis) & 1)
    F = opposite_facet(Fo)
    # each pair as (s, t) with s in Fo and t in F
    oriented = [p if Fo.contains(p[0]) else p[::-1] for p in pairs]
    j = next(i for i in range(1, len(pairs))
             if project(oriented[i][1], Fo) != s1)
    front = [0, j]
    rest = [i for i in range(len(pairs)) if i not in front]
    out = dict(zip(rest, _link_projected(
        [oriented[i] for i in rest], F, trace,
        avoid=[oriented[i][1] for i in front])))
    out.update(zip(front, _link_projected(
        [oriented[i] for i in front], Fo, trace,
        avoid=[oriented[i][0] for i in rest])))
    return [_orient(out[i], pair[0]) for i, pair in enumerate(pairs)]


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
        return _search(trace, "cube/strong-base-d4",
                       lambda: _oracle_base(4, pairs, (x,)))
    trace.append("cube/strong-project")
    axis = find_unassociated_pair(d, terminals(pairs))
    F = facet(d, axis, 1 - ((x >> axis) & 1))
    return _link_projected(pairs, F, trace)


def _linkage(d, pairs, avoid, trace):
    """Linkage of ell <= floor((d+1)/2) pairs avoiding a vertex set.

    Spare capacity absorbs avoided vertices as dummy pairs; when the totals
    hit d + 1 on even d the strong solver takes over with the last avoided
    vertex as the unpaired terminal.  Past that capacity it raises
    ValueError, at d <= 4 too, before the base-case search.
    """
    avoid = sorted(set(avoid))
    X = terminals(pairs)
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
        return _search(trace, f"cube/base-d{d}",
                       lambda: _oracle_base(d, pairs, avoid))
    if len(extra) % 2:
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
                    lambda ps, trace: _linkage(d, ps, avoid, trace), avoid)


def solve_cube(d, pairs) -> LinkageCertificate:
    """Linkage of up to floor((d+1)/2) pairs in Q_d.

    d = 3 at two pairs may return an obstruction certificate instead.
    """
    return _certify(d, pairs, lambda ps, trace: _solve(d, ps, trace))


def solve_cube_strong(d, pairs, x) -> LinkageCertificate:
    """Linkage of d/2 pairs in Q_d (d even) whose paths avoid x."""
    return _certify(d, pairs, lambda ps, trace: _strong(d, ps, x, trace),
                    (x,))
