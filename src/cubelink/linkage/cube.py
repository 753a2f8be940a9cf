"""Constructive linkage solvers for the d-cube.

solve_cube builds a Y-linkage for up to floor((d+1)/2) pairs by facet
recursion; solve_cube_strong additionally avoids one extra terminal x.
Both return LinkageCertificates whose paths are validated before return.
Small dimensions (d <= 4) are settled by bounded exhaustive search, memoised
up to cube symmetry.  Above them no graph is built: paths inside a face come
from hypercube.face_path and certificates are checked against the implicit
CubeAdjacency.
"""

from __future__ import annotations

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
    ObstructionWitness,
    Unlinkable,
    certify,
    terminals,
)


def face_maps(K: CubeFace):
    """(compress, expand) bijections between V(K) and the dim(K)-cube."""
    free = [i for i in range(K.d) if (K.free_mask >> i) & 1]

    def compress(v):
        out = 0
        for j, i in enumerate(free):
            if (v >> i) & 1:
                out |= 1 << j
        return out

    lift = [1 << i for i in free]

    def expand(w):
        v = K.fixed_values
        while w:
            low = w & -w
            v |= lift[low.bit_length() - 1]
            w ^= low
        return v

    return compress, expand


# -- exhaustive base (d <= 4), memoised up to cube symmetry -----------------

_base_cache: dict = {}


def _oracle_base(d, pairs, avoid=()):
    """Exhaustive linkage search for small d; None when none exists.

    Results are cached on the canonical orbit key (translations and axis
    permutations) whenever at most one avoided vertex is involved, so whole
    censuses cost only one search per symmetry class.
    """
    avoid = tuple(sorted(avoid))
    G = cube_graph(d)
    if len(avoid) > 1 or d > 4:
        key = ("raw", d, tuple(pairs), avoid)
        if key not in _base_cache:
            _base_cache[key] = oracle_linkage(G, pairs, avoid)
        sol = _base_cache[key]
        return None if sol is None else [list(p) for p in sol]
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
    out = []
    for s, t in pairs:
        p = by_ends[frozenset((s, t))]
        out.append(list(p) if p[0] == s else p[::-1])
    return out


# -- obstruction detection in 3-polytopes -----------------------------------


def detect_config_3F(P, pairs):
    """First blocking configuration in a cubical 3-polytope, or None.

    Conditions, checked per 2-face F and per oriented pair (s, t): four
    terminals lie in F, dist_F(s, t) = 2, and both F-neighbours of t are
    terminals.  Faces, pairs and orientations are scanned in order so the
    witness is deterministic.
    """
    X = terminals(pairs)
    if len(X) < 4:
        raise ValueError("need at least 4 terminals")
    for F in P.faces_of_dim(2):
        if len(X & F) < 4:
            continue
        adj = {v: [w for w in P.graph[v] if w in F] for v in F}
        for s, t in pairs:
            if s not in F or t not in F:
                continue
            for a, b in ((s, t), (t, s)):
                nbrs = adj[b]
                if a not in nbrs and all(w in X for w in nbrs):
                    return ObstructionWitness(
                        kind="config-3F", facet=sorted(F), pair=(a, b),
                        blocking=sorted(nbrs))
    return None


# -- short distances inside one facet ---------------------------------------


def short_distance_paths(F: CubeFace, X, pairs):
    """X-valid paths inside the face F for every resolvable pair.

    With at most dim(F) + 2 terminals all inside F, all pairs but possibly
    one admit an X-valid path in F; the map returned contains each pair that
    does, keyed by the (s, t) tuple.
    """
    X = set(X)
    if not all(F.contains(x) for x in X):
        raise ValueError("terminals must lie in the face")
    out = {}
    for s, t in pairs:
        try:
            out[(s, t)] = face_path(F, s, t, X)
        except NoPath:
            pass
    return out


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
    partner = {}
    for a, b in pairs:
        partner[a] = b
        partner[b] = a
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
    in its own endpoints.  Class 4 picks the least free neighbour w with both
    w and its projection unused, preferring projections that are not the
    partner.  Raises CaseNotCovered when no neighbour is free, which the
    counting argument rules out.
    """
    Fo = opposite_facet(F)
    partner = {}
    for a, b in pairs:
        partner[a] = b
        partner[b] = a
    X = set(partner)
    free_axes = [i for i in range(d) if (F.free_mask >> i) & 1]
    M = {}
    for x in classes[2]:
        M[x] = [x, project(x, Fo)]
    for x in classes[3]:
        y = partner[x]
        M[x] = [x, project(y, F), y]
    for x in classes[4]:
        y = partner[x]
        used = {v for p in M.values() for v in p}
        cands = []
        for a in free_axes:
            w = x ^ (1 << a)
            pw = project(w, Fo)
            if (w not in X and w not in used and pw not in used
                    and (pw not in X or pw == y)):
                cands.append(w)
        if not cands:
            raise CaseNotCovered(f"no free escape neighbour at {x}",
                                 trace=["cube/scenario-2/Mx"])
        cands.sort()
        w = next((c for c in cands if project(c, Fo) != y), cands[0])
        M[x] = [x, w, project(w, Fo)]
    return M


# -- the main induction ------------------------------------------------------


def _solve(d, pairs, trace):
    """Y-linkage in Q_d; paths aligned and oriented to `pairs`."""
    k_max = (d + 1) // 2
    if len(pairs) > k_max:
        raise ValueError(f"at most {k_max} pairs in Q_{d}")
    if not pairs:
        return []
    if len(pairs) == 1:
        trace.append("cube/single-pair")
        return [face_path(whole_cube(d), *pairs[0])]
    if d == 3:
        from ..complexes import build_cube_polytope

        witness = detect_config_3F(build_cube_polytope(3), pairs)
        if witness is not None:
            trace.append("cube/d3-obstructed")
            raise Unlinkable(witness)
        trace.append("cube/base-d3")
        sol = _oracle_base(3, pairs)
        if sol is None:
            raise CaseNotCovered("unobstructed 3-cube instance with no linkage",
                                 trace=list(trace))
        return sol
    if d <= 4:
        trace.append(f"cube/base-d{d}")
        sol = _oracle_base(d, pairs)
        if sol is None:
            raise CaseNotCovered("no linkage found at the base dimension",
                                 trace=list(trace))
        return sol

    X = sorted(terminals(pairs))
    K = smallest_face(d, X)
    if K.fixed_mask:
        axis = (K.fixed_mask & -K.fixed_mask).bit_length() - 1
        F = facet(d, axis, (K.fixed_values >> axis) & 1)
        return _scenario1(d, F, pairs, trace)
    for i, (s, t) in enumerate(pairs):
        if dist(s, t) < d:
            agree = ~(s ^ t)
            axis = next(a for a in range(d) if (agree >> a) & 1)
            F = facet(d, axis, (s >> axis) & 1)
            return _scenario2(d, F, i, pairs, trace)
    return _scenario3(d, pairs, trace)


def _solve_in_face(K: CubeFace, pairs, trace, avoid=()):
    """Linkage within a proper face, via the padded solver on its cube."""
    compress, expand = face_maps(K)
    cpairs = [(compress(s), compress(t)) for s, t in pairs]
    cavoid = [compress(v) for v in avoid]
    sub = _linkage(K.dim, cpairs, cavoid, trace)
    return [[expand(v) for v in p] for p in sub]


def _scenario1(d, F, pairs, trace):
    """All terminals inside the facet F: settle one pair there, project the
    rest onto the opposite facet and recurse."""
    trace.append("cube/scenario-1")
    X = terminals(pairs)
    found = short_distance_paths(F, X, pairs)
    first = next((i for i, p in enumerate(pairs) if tuple(p) in found), None)
    if first is None:
        raise CaseNotCovered("no terminal-avoiding path in the common facet",
                             trace=list(trace))
    L_first = found[tuple(pairs[first])]
    Fo = opposite_facet(F)
    rest = [p for i, p in enumerate(pairs) if i != first]
    ppairs = [(project(s, Fo), project(t, Fo)) for s, t in rest]
    sub = _solve_in_face(Fo, ppairs, trace)
    out = {}
    for (s, t), p in zip(rest, sub):
        out[(s, t)] = [s] + p + [t]
    paths = []
    for i, pair in enumerate(pairs):
        paths.append(L_first if i == first else out[tuple(pair)])
    return paths


def _scenario2(d, F, idx, pairs, trace):
    """Pair `idx` lies in the facet F but some terminal is outside it."""
    trace.append("cube/scenario-2")
    order = [idx] + [i for i in range(len(pairs)) if i != idx]
    pairs1 = [pairs[i] for i in order]
    s1, t1 = pairs1[0]
    Fo = opposite_facet(F)
    partner = {}
    for a, b in pairs1:
        partner[a] = b
        partner[b] = a
    X = set(partner)

    classes = scenario2_partition(d, F, pairs1)
    M = build_Mx_paths(d, F, pairs1, classes)
    c0, c1, c3 = set(classes[0]), set(classes[1]), set(classes[3])
    Y3 = {M[x][-1] for x in c3}
    piX1 = {project(x, Fo) for x in c1}
    for x in sorted(X):
        if Fo.contains(x) and x not in Y3 | piX1 and x not in (s1, t1):
            M.setdefault(x, [x])

    paths1 = [None] * len(pairs1)
    link_pairs, link_slots = [], []
    for i in range(1, len(pairs1)):
        a, b = pairs1[i]
        if a in c0 | c1 or b in c0 | c1:
            paths1[i] = [a, b]
        elif a in c3:
            paths1[i] = M[a]
        elif b in c3:
            paths1[i] = M[b][::-1]
        else:
            ea, eb = M[a][-1], M[b][-1]
            if ea == eb:
                paths1[i] = M[a] + M[b][-2::-1]
            else:
                link_pairs.append((ea, eb))
                link_slots.append(i)
    if link_pairs:
        trace.append("cube/scenario-2/opposite-linkage")
        sub = _solve_in_face(Fo, link_pairs, trace, avoid=sorted(Y3 | piX1))
        for i, p in zip(link_slots, sub):
            a, b = pairs1[i]
            paths1[i] = M[a] + p[1:] + M[b][-2::-1]

    used = {v for p in paths1[1:] for v in p}
    try:
        paths1[0] = face_path(F, s1, t1, used)
    except NoPath:
        raise CaseNotCovered("in-facet pair cannot dodge the escape paths",
                             trace=list(trace) + ["cube/scenario-2/L1"])
    trace.append("cube/scenario-2/L1")

    paths = [None] * len(pairs)
    for slot, i in enumerate(order):
        p = paths1[slot]
        paths[i] = p if p[0] == pairs[i][0] else p[::-1]
    return paths


def _scenario3(d, pairs, trace):
    """Every pair antipodal: split across an unassociated facet pair."""
    trace.append("cube/scenario-3")
    s1 = pairs[0][0]
    X = terminals(pairs)
    axis = find_unassociated_pair(d, X - {s1})
    Fo = facet(d, axis, (s1 >> axis) & 1)
    F = opposite_facet(Fo)
    oriented = []  # (index, s in Fo, t in F)
    for i, (a, b) in enumerate(pairs):
        s, t = (a, b) if Fo.contains(a) else (b, a)
        oriented.append((i, s, t))
    j = next(pos for pos in range(1, len(oriented))
             if project(oriented[pos][2], Fo) != s1)
    front = [oriented[0], oriented[j]]
    rest = [o for pos, o in enumerate(oriented) if pos not in (0, j)]

    out = {}
    if rest:
        rpairs = [(project(s, F), t) for _, s, t in rest]
        avoid = [front[0][2], front[1][2]]
        sub = _solve_in_face(F, rpairs, trace, avoid=avoid)
        for (i, s, t), p in zip(rest, sub):
            out[i] = [s] + p
    fpairs = [(s, project(t, Fo)) for _, s, t in front]
    avoid = [s for _, s, _ in rest]
    sub = _solve_in_face(Fo, fpairs, trace, avoid=avoid)
    for (i, s, t), p in zip(front, sub):
        out[i] = p + [t]

    paths = []
    for i, pair in enumerate(pairs):
        p = out[i]
        paths.append(p if p[0] == pair[0] else p[::-1])
    return paths


def _strong(d, pairs, x, trace):
    """Linkage of d/2 pairs in Q_d (d even) avoiding the extra terminal x."""
    if d % 2:
        raise ValueError("strong linkage needs even d")
    if 2 * len(pairs) != d:
        raise ValueError(f"need exactly {d // 2} pairs")
    X = terminals(pairs)
    if x in X:
        raise ValueError("x must be unpaired")
    if d == 2:
        trace.append("cube/strong-base-d2")
        return [face_path(whole_cube(2), *pairs[0], {x})]
    if d == 4:
        trace.append("cube/strong-base-d4")
        sol = _oracle_base(4, pairs, (x,))
        if sol is None:
            raise CaseNotCovered("no avoiding linkage found in the 4-cube",
                                 trace=list(trace))
        return sol
    trace.append("cube/strong-project")
    axis = find_unassociated_pair(d, X)
    F = facet(d, axis, 1 - ((x >> axis) & 1))
    ppairs = [(project(s, F), project(t, F)) for s, t in pairs]
    sub = _solve_in_face(F, ppairs, trace)
    paths = []
    for (s, t), p in zip(pairs, sub):
        if not F.contains(s):
            p = [s] + p
        if not F.contains(t):
            p = p + [t]
        paths.append(p)
    return paths


def _linkage(d, pairs, avoid, trace):
    """Linkage of ell <= floor((d+1)/2) pairs avoiding a vertex set.

    Spare capacity absorbs avoided vertices as dummy pairs; when the totals
    hit d + 1 on even d the strong solver takes over with the last avoided
    vertex as the unpaired terminal.
    """
    avoid = sorted(set(avoid))
    X = terminals(pairs)
    if X & set(avoid):
        raise ValueError("avoid overlaps terminals")
    if not pairs:
        return []
    if d <= 4:
        sol = _oracle_base(d, pairs, avoid)
        if sol is None:
            if d == 3 and not avoid and len(pairs) == 2:
                from ..complexes import build_cube_polytope

                witness = detect_config_3F(build_cube_polytope(3), pairs)
                if witness is not None:
                    raise Unlinkable(witness)
            raise CaseNotCovered("no linkage at the base dimension",
                                 trace=list(trace) + [f"cube/base-d{d}"])
        trace.append(f"cube/base-d{d}")
        return sol
    k_max = (d + 1) // 2
    total = 2 * len(pairs) + len(avoid)
    if total <= 2 * k_max:
        extra, x = avoid, None
    elif total == d + 1 and d % 2 == 0:
        extra, x = avoid[:-1], avoid[-1]
    else:
        raise ValueError(f"{len(pairs)} pairs + {len(avoid)} avoided "
                         f"exceed the capacity of Q_{d}")
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


def _instance(d, pairs, avoid=()):
    return {
        "host": f"Q_{d}",
        "pairs": [[vertex_to_str(s, d), vertex_to_str(t, d)] for s, t in pairs],
        "avoid": [vertex_to_str(v, d) for v in sorted(avoid)],
    }


def cube_linkage(d, pairs, avoid=()) -> LinkageCertificate:
    """Linkage in Q_d avoiding a vertex set, within proven capacity."""
    return certify(_instance(d, pairs, avoid), pairs,
                   lambda ps, trace: _linkage(d, ps, sorted(avoid), trace),
                   lambda: CubeAdjacency(d), avoid)


def solve_cube(d, pairs) -> LinkageCertificate:
    """Linkage of up to floor((d+1)/2) pairs in Q_d.

    d = 3 at two pairs may return an obstruction certificate instead.
    """
    return certify(_instance(d, pairs), pairs,
                   lambda ps, trace: _solve(d, ps, trace),
                   lambda: CubeAdjacency(d))


def solve_cube_strong(d, pairs, x) -> LinkageCertificate:
    """Linkage of d/2 pairs in Q_d (d even) whose paths avoid x."""
    return certify(_instance(d, pairs, (x,)), pairs,
                   lambda ps, trace: _strong(d, ps, x, trace),
                   lambda: CubeAdjacency(d), (x,))
