"""Constructive linkage solvers for the d-cube.

solve_cube builds a Y-linkage for up to floor((d+1)/2) pairs by facet
recursion; solve_cube_strong additionally avoids one extra terminal x.
Both return LinkageCertificates whose paths are validated before return.

The induction runs on faces of Q_d, and every vertex stays its own Q_d
integer.  A facet subproblem of the face K is the same call on K with one
more fixed axis (hypercube.facet_pair), so nothing is moved between
levels.  Dropping fixed axes keeps the order of the vertices and of the
free axes, so every least vertex, lowest axis and sorted choice picks what
it would pick in the (dim K)-cube.  Faces of dimension at most 4 are
settled without a search, by the one base rule (_shortest_base): shortest
paths in one order, then in the other, on Q_j's bit tables (cube_bits),
built once.  _base is the one place coordinates change: it maps a base's
ends into Q_j once (hypercube.face_to_cube) and its paths back once
(cube_to_face).  Above the bases no graph is built.  Scenario 2 classifies
the terminals and writes their escape paths in one pass
(scenario2_escapes), in the caller's pair order.  Paths inside a face come
from hypercube.face_path, which searches only when every shortest path is
blocked.  Certificates are checked against the implicit CubeAdjacency.

Steps that every linkage solver repeats are public here, for link.py,
star.py and cubical.py: splicing routes onto a linkage found at their ends
(splice), linking inside a face (solve_in_face) and linking the
terminals' projections onto a facet there (link_projected), and the base
rule on paths.Bits tables (base_rule), alone or after a config-3F check
(base_3F), which the Q_3 and link(Q_4, v) bases run on Q_d's tables.
star.py has the Menger router.
"""

from __future__ import annotations

from ..complexes import build_cube_polytope
from ..errors import CaseNotCovered, NoPath
from ..hypercube import (
    CubeAdjacency,
    CubeFace,
    cube_to_face,
    dist,
    face_path,
    face_to_cube,
    facet_pair,
    lowest_unassociated_axis,
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
    """Link the pairs inside F, a facet of a face holding their terminals,
    avoiding `avoid`, each terminal reaching F along one edge (or none,
    when it lies in F)."""
    keep, values = ~F.fixed_mask, F.fixed_values
    return splice(pairs, hops(terminals(pairs), lambda x: (x & keep) | values),
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


def base_3F(P, pairs, trace, tags, B=None, avoid=()):
    """The base of a cubical 3-polytope P: Unlinkable with a config-3F
    witness, else the rule's linkage; tags (obstructed, rule).  The rule
    runs on the bit tables B of a graph that is P's once `avoid` is left
    out, or on P's own, built only once config-3F is ruled out."""
    witness = detect_config_3F(P, pairs)
    if witness is not None:
        trace.append(tags[0])
        raise Unlinkable(witness)
    return base_rule(trace, tags[1], B or Bits(P.graph), pairs, avoid)


# -- the base rule: shortest paths in one order, then the other -------------

_base_cache: dict = {}  # d -> the bit tables of Q_d, with their geodesics


def cube_bits(d):
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
    linkage among the Q_3 and Q_4 bases within the capacity solve_in_face
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


def scenario2_escapes(F: CubeFace, Fo: CubeFace, pairs, idx, trace):
    """The terminals in F off pair `idx`, which lies in F, in classes 0-4,
    and their disjoint terminal-avoiding escapes M into Fo = F-opposite.

    Classes: 0 partner adjacent within F; 1 partner is the projection
    across; 2 projection is not a terminal; 3 partner sits across with a
    unique terminal-avoiding path of length 2 through its projection; 4
    everything else.  One pass over the sorted terminals classifies each
    and writes its class-2 escape [x, x'] or class-3 escape [x, y', y].

    F and Fo are the two facets of one face, which holds every terminal.
    Each escape meets the terminal set only in its own endpoints.  Class 4
    then picks the least F-neighbour w with w and its projection off the
    terminals and the earlier escapes; no neighbour raises CaseNotCovered,
    which the counting argument rules out.  A free w projecting onto x's
    partner would be the partner's projection, and x would be class 3, so
    class-2 and class-4 escapes end off the terminals and apart.
    """
    s1, t1 = pairs[idx]
    across = F.fixed_values ^ Fo.fixed_values  # the axis between F and Fo
    partner = {x: y for a, b in pairs for x, y in ((a, b), (b, a))}
    classes = {0: [], 1: [], 2: [], 3: [], 4: []}
    M = {}
    for x in sorted(partner):
        if x == s1 or x == t1 or not F.contains(x):
            continue
        y = partner[x]
        xp = x ^ across
        if F.contains(y) and dist(x, y) == 1:
            classes[0].append(x)
        elif y == xp:
            classes[1].append(x)
        elif xp not in partner:
            classes[2].append(x)
            M[x] = [x, xp]
        else:
            yp = y ^ across
            if Fo.contains(y) and dist(x, yp) == 1 and yp not in partner:
                classes[3].append(x)
                M[x] = [x, yp, y]
            else:
                classes[4].append(x)
    taken = set(partner).union(*M.values())
    free = F.free_mask
    bits = [1 << a for a in range(F.d) if (free >> a) & 1]
    for x in classes[4]:
        cands = [w for w in (x ^ b for b in bits)
                 if w not in taken and w ^ across not in taken]
        if not cands:
            raise CaseNotCovered(f"no free escape neighbour at {x}",
                                 trace=list(trace) + ["cube/scenario-2/Mx"])
        w = min(cands)
        M[x] = [x, w, w ^ across]
        taken.update(M[x])
    return classes, M


# -- the main induction ------------------------------------------------------


def _base(K, pairs, avoid, trace, tag, obstructed=None):
    """The base rule, tagged `tag`, on the face K, dim K <= 4, avoiding a
    vertex set of K: the ends and the avoided vertices map into Q_dim(K)
    in one face_to_cube call, and each path maps back by cube_to_face.
    Where config-3F can hold (dim K = 3, two pairs, nothing avoided) a
    witness raises Unlinkable first, after tagging `obstructed` if given."""
    ends = face_to_cube(K, [v for p in pairs for v in p] + list(avoid))
    n = 2 * len(pairs)
    ps = list(zip(ends[:n:2], ends[1:n:2]))
    if K.dim == 3 and n == 4 and not avoid:
        witness = detect_config_3F(build_cube_polytope(3), ps)
        if witness is not None:
            if obstructed:
                trace.append(obstructed)
            raise Unlinkable(witness)
    sol = base_rule(trace, tag, cube_bits(K.dim), ps, ends[n:])
    return [cube_to_face(K, p) for p in sol]


def _solve(K, pairs, trace):
    """Y-linkage in the face K; paths aligned and oriented to `pairs`."""
    d = K.dim
    k_max = (d + 1) // 2
    if len(pairs) > k_max:
        raise ValueError(f"at most {k_max} pairs in Q_{d}")
    if len(pairs) == 1:
        trace.append("cube/single-pair")
        return [face_path(K, *pairs[0])]
    if d <= 4:
        return _base(K, pairs, (), trace, f"cube/base-d{d}",
                     "cube/d3-obstructed")

    X = sorted(terminals(pairs))
    S = smallest_face(K.d, X)
    new = S.fixed_mask & ~K.fixed_mask
    if new:
        axis = (new & -new).bit_length() - 1
        return _scenario1(*facet_pair(K, axis, (S.fixed_values >> axis) & 1),
                          pairs, X, trace)
    for i, (s, t) in enumerate(pairs):
        if dist(s, t) < d:
            agree = ~(s ^ t) & K.free_mask
            axis = (agree & -agree).bit_length() - 1
            return _scenario2(*facet_pair(K, axis, (s >> axis) & 1), i,
                              pairs, X, trace)
    return _scenario3(K, pairs, X, trace)


def solve_in_face(K: CubeFace, pairs, trace, avoid=()):
    """Linkage of ell <= floor((dim K + 1)/2) pairs inside the face K of
    Q_d, avoiding a vertex set of K.

    Every facet subproblem of the induction is this call on a face with
    one more fixed axis, and its paths come back in Q_d's coordinates: no
    map runs between levels.  Only at dim K <= 4 do coordinates change,
    in _base, where the base rule reads Q_dim(K)'s tables.

    Spare capacity absorbs avoided vertices as dummy pairs; when the totals
    hit dim K + 1 on even dim K the strong solver takes over with the last
    avoided vertex as the unpaired terminal.  Past that capacity it raises
    ValueError, at dim K <= 4 too, before the base rule runs.
    """
    avoid = sorted(set(avoid))
    if not pairs:
        return []
    d = K.dim
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
        return _base(K, pairs, avoid, trace, f"cube/base-d{d}")
    if len(extra) % 2:
        # the least vertex of K off the terminals and the avoided ones
        X, free = terminals(pairs), K.free_mask
        sub, filler = 0, K.fixed_values
        while filler in X or filler in avoid:
            sub = (sub - free) & free
            filler = K.fixed_values | sub
        extra = extra + [filler]
    dummies = [(extra[i], extra[i + 1]) for i in range(0, len(extra), 2)]
    padded = list(pairs) + dummies
    if x is None:
        sol = _solve(K, padded, trace)
    else:
        sol = _strong(K, padded, x, trace)
    return sol[: len(pairs)]


def _scenario1(F, Fo, pairs, X, trace):
    """All terminals X inside the facet F: settle the first pair with a
    path in F, link the rest across in the opposite facet Fo."""
    trace.append("cube/scenario-1")
    for i, (s, t) in enumerate(pairs):
        try:
            path = face_path(F, s, t, X)
        except NoPath:
            continue
        sub = link_projected(pairs[:i] + pairs[i + 1:], Fo, trace)
        return sub[:i] + [path] + sub[i:]
    raise CaseNotCovered("no terminal-avoiding path in the common facet",
                         trace=list(trace))


def _scenario2(F, Fo, idx, pairs, X, trace):
    """Pair `idx` lies in the facet F but some terminal is outside it, in
    the opposite facet Fo.  The other pairs with no end in classes 0, 1, 3
    are linked in Fo between their escapes' ends, which differ
    (scenario2_escapes)."""
    trace.append("cube/scenario-2")
    classes, M = scenario2_escapes(F, Fo, pairs, idx, trace)
    across = F.fixed_values ^ Fo.fixed_values
    c01, c3 = {*classes[0], *classes[1]}, set(classes[3])
    skip = {M[x][-1] for x in c3} | {x ^ across for x in classes[1]}
    for x in X:
        if Fo.contains(x) and x not in skip:
            M.setdefault(x, [x])

    # every path starts at its pair's first end
    paths = [None] * len(pairs)
    link_slots = []
    for i, (a, b) in enumerate(pairs):
        if i == idx:
            continue
        if a in c01 or b in c01:
            paths[i] = [a, b]
        elif a in c3:
            paths[i] = M[a]
        elif b in c3:
            paths[i] = M[b][::-1]
        else:
            link_slots.append(i)
    if link_slots:
        trace.append("cube/scenario-2/opposite-linkage")
        sub = splice([pairs[i] for i in link_slots], M,
                     lambda ep: solve_in_face(Fo, ep, trace,
                                              avoid=sorted(skip)))
        for i, p in zip(link_slots, sub):
            paths[i] = p

    # in F the other paths hold only its other terminals and the middle
    # vertices of the class-3 and class-4 paths; the rest lies in Fo
    used = {x for c in classes.values() for x in c}
    used.update(M[x][1] for x in classes[3] + classes[4])
    try:
        paths[idx] = face_path(F, *pairs[idx], used)
    except NoPath:
        raise CaseNotCovered("in-facet pair cannot dodge the escape paths",
                             trace=list(trace) + ["cube/scenario-2/L1"])
    trace.append("cube/scenario-2/L1")
    return paths


def _scenario3(K, pairs, X, trace):
    """Every pair antipodal in the face K: split across an unassociated
    facet pair of K."""
    trace.append("cube/scenario-3")
    s1 = pairs[0][0]
    axis = lowest_unassociated_axis(K, [x for x in X if x != s1])
    Fo, F = facet_pair(K, axis, (s1 >> axis) & 1)
    # each pair as (s, t) with s in Fo and t in F
    oriented = [p if Fo.contains(p[0]) else p[::-1] for p in pairs]
    j = next(i for i in range(1, len(pairs))
             if oriented[i][1] ^ (1 << axis) != s1)
    front = [0, j]
    rest = [i for i in range(len(pairs)) if i not in front]
    out = dict(zip(rest, link_projected(
        [oriented[i] for i in rest], F, trace,
        avoid=[oriented[i][1] for i in front])))
    out.update(zip(front, link_projected(
        [oriented[i] for i in front], Fo, trace,
        avoid=[oriented[i][0] for i in rest])))
    return [orient(out[i], pair[0]) for i, pair in enumerate(pairs)]


def _strong(K, pairs, x, trace):
    """Linkage of dim(K)/2 pairs in the face K (dim K even) avoiding the
    extra terminal x."""
    d = K.dim
    if d % 2:
        raise ValueError("strong linkage needs even d")
    if 2 * len(pairs) != d:
        raise ValueError(f"need exactly {d // 2} pairs")
    if d == 2:
        trace.append("cube/strong-base-d2")
        return [face_path(K, *pairs[0], {x})]
    if d == 4:
        return _base(K, pairs, (x,), trace, "cube/strong-base-d4")
    trace.append("cube/strong-project")
    axis = lowest_unassociated_axis(K, terminals(pairs))
    F, _ = facet_pair(K, axis, 1 - ((x >> axis) & 1))
    return link_projected(pairs, F, trace)


# -- public API --------------------------------------------------------------


def _certify(d, pairs, solve, avoid=()):
    return certify(f"Q_{d}", CubeAdjacency(d), lambda v: vertex_to_str(v, d),
                   pairs, solve, avoid)


def cube_linkage(d, pairs, avoid=()) -> LinkageCertificate:
    """Linkage in Q_d avoiding a vertex set, within proven capacity."""
    avoid = sorted(avoid)
    return _certify(d, pairs, lambda ps, trace: solve_in_face(
        whole_cube(d), ps, trace, avoid), avoid)


def solve_cube(d, pairs) -> LinkageCertificate:
    """Linkage of up to floor((d+1)/2) pairs in Q_d.

    d = 3 at two pairs may return an obstruction certificate instead.
    """
    return _certify(d, pairs,
                    lambda ps, trace: _solve(whole_cube(d), ps, trace))


def solve_cube_strong(d, pairs, x) -> LinkageCertificate:
    """Linkage of d/2 pairs in Q_d (d even) whose paths avoid x."""
    return _certify(d, pairs,
                    lambda ps, trace: _strong(whole_cube(d), ps, x, trace),
                    (x,))
