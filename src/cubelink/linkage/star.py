"""Linkage inside the star of a vertex of a cubical d-polytope, d odd.

All terminals live in the closed star of s1 (s1 itself being one of them).
The construction splits on how many terminals the facet F1 (the facet of the
star through s1's partner holding the most terminals, the first in facet
order on a tie) contains, and routes the remaining pairs through ridges of
F1, the antistar of F1, or the link of s1 in F1.  The single obstruction is
the dF-configuration, reported as a witness.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property, reduce
from operator import and_

from ..complexes import Polytope
from ..errors import CaseNotCovered, NoPath
from ..hypercube import dist, lowest_unassociated_axis, whole_cube
from ..paths import Cut, disjoint_paths, shortest_path
from .certs import (LinkageCertificate, Unlinkable, blocking, certify, take,
                    terminals)
from .cube import hops, orient, solve_in_face, splice
from .link import link_paths


# -- face-level helpers ------------------------------------------------------


class Induced(Mapping):
    """The subgraph of G on verts, a read-only view: ``G[v]`` kept to verts
    is computed when it is read.  Keys iterate in sorted order; a key
    outside verts raises KeyError."""

    def __init__(self, G, verts):
        self._G, self._vs = G, frozenset(verts)

    def __getitem__(self, v):
        vs = self._vs
        if v not in vs:
            raise KeyError(v)
        return tuple([w for w in self._G[v] if w in vs])

    def __contains__(self, v):
        return v in self._vs

    def __iter__(self):
        return iter(sorted(self._vs))

    def __len__(self):
        return len(self._vs)


def _face_path(P, f, s, t, forbidden=()):
    return shortest_path(Induced(P.graph, f), s, t, forbidden)


def _in_cube(P, f, pairs, solve):
    """Link the pairs in the face f of P through its cube coordinates: the
    paths of `solve(coords, j, cube_pairs)` in Q_j, mapped back to P."""
    coords, j = P.embed_face(f)
    inv = {c: v for v, c in coords.items()}
    sub = solve(coords, j, [(coords[s], coords[t]) for s, t in pairs])
    return [[inv[c] for c in p] for p in sub]


def face_link(P, f, pairs, avoid=(), *, trace):
    """Cube linkage inside a face of P, through its canonical coordinates."""
    return _in_cube(P, f, pairs, lambda coords, j, cube_pairs: solve_in_face(
        whole_cube(j), cube_pairs, trace, [coords[a] for a in avoid]))


def _face_dist(P, f, u, v):
    coords, _ = P.embed_face(f)
    return dist(coords[u], coords[v])


def _coord_split(P, f, axis):
    """The two opposite ridges of the cube face f along one coordinate."""
    coords, _ = P.embed_face(f)
    lo = frozenset(v for v in f if not (coords[v] >> axis) & 1)
    return lo, frozenset(f) - lo


def _unassoc_ridge(P, f, pts, anchor):
    """An opposite-ridge pair of f unassociated with pts; anchor's side first."""
    coords, j = P.embed_face(f)
    axis = lowest_unassociated_axis(whole_cube(j), [coords[x] for x in pts])
    lo, hi = _coord_split(P, f, axis)
    return (lo, hi) if anchor in lo else (hi, lo)


def _other_facet(P, R, F):
    """The one facet besides F holding the ridge R of F."""
    return next(g for g in P.facets_containing(R) if g != F)


def far_ridge(P, R, F):
    """The facet J across the ridge R from F, and R's opposite in J."""
    J = _other_facet(P, R, F)
    return J, P.opposite_subface(J, R)


def _chain(*segs):
    """Concatenate path segments, merging equal junction vertices.

    Segments may share their junction vertex or abut along an edge; the final
    linkage validation catches any non-edge, so no graph is needed here.
    """
    out: list = []
    for seg in segs:
        seg = list(seg)
        if not seg:
            continue
        if out and out[-1] == seg[0]:
            out.extend(seg[1:])
        else:
            out.extend(seg)
    return out


def route_into(G, X, B, forbidden=(), *, trace):
    """One path per vertex of X into B, pairwise disjoint, keyed by start.

    Terminals already in B stay put as single-vertex paths; every other path
    meets B only at its last vertex.  This is the solvers' only Menger
    routing; a cut raises CaseNotCovered with the separator last in its trace.
    """
    try:
        sys = disjoint_paths(G, X, B, forbidden=forbidden)
    except Cut as e:
        raise CaseNotCovered(
            f"routing cut by {len(e.separator)} vertices",
            trace=[*trace, sorted(e.separator)])
    return {p[0]: p for p in sys}


def link_via_subgraph(G, pairs, subV, sub_solver, forbidden=(), *, trace):
    """Linkage through a linked subgraph: route every terminal into subV,
    link the entry vertices there, and concatenate."""
    route = route_into(G, terminals(pairs), subV, forbidden=forbidden,
                       trace=trace)
    return splice(pairs, route, sub_solver)


# -- dF-configuration --------------------------------------------------------


def projections_star_injection(P, s, F, trace=()):
    """The standard injection V(F) minus the antipode of s into the antistar.

    Read off F's cube coordinates, ridge by ridge: the ridges of F through s
    are its coordinate axes, the ridge R_a holding the vertices that agree
    with s on axis a.  The facet J across R_a is the one facet besides F
    holding both s and its antipode in R_a (a facet holding both holds R_a,
    and a ridge lies on two facets), and each vertex of R_a goes to its one
    neighbour in J outside F (J meets F in R_a, and faces are induced),
    which lies on R_a's opposite ridge in J.  Ridges are taken in
    lexicographic order of their sorted vertex lists, and a vertex keeps
    the image of the first ridge it lies on.  Two vertices that share an
    image raise CaseNotCovered.  The rest holds by construction: every
    vertex but the antipode agrees with s on some axis, so the ridges cover
    it, and an image lies in J but not in F.
    """
    F = frozenset(F)
    coords, j = P.embed_face(F)
    vf, graph = P.vertex_facets, P.graph
    inv = {c: v for v, c in coords.items()}
    cs, full = coords[s], (1 << j) - 1
    fbit = reduce(and_, [vf[v] for v in F])
    items = sorted(coords.items())
    ridges = sorted([([v for v, c in items if not (c ^ cs) >> a & 1], a)
                     for a in range(j)])
    f = {}
    for R, a in ridges:
        J = vf[s] & vf[inv[cs ^ full ^ 1 << a]] & ~fbit
        JF = J | fbit
        for v in R:
            if v not in f:
                f[v] = next(w for w in graph[v] if vf[w] & JF == J)
    if len(set(f.values())) != len(f):
        raise CaseNotCovered("projections do not inject the facet into the "
                             "antistar", trace=list(trace))
    return f


def detect_config_dF(P, s1, pairs):
    """Witness for the dF-configuration blocking a star linkage, or None.

    Per facet F through s1 and its partner t1, in facet order,
    `certs.blocking` decides whether F blocks the pair: t1 at facet
    diameter from s1 and every F-neighbour of t1 a terminal.
    """
    X = terminals(pairs)
    _, t1, _ = take(pairs, s1)
    for F in P.facets_containing((s1, t1)):
        witness = blocking(P, "config-dF", F, s1, t1, X)
        if witness is not None:
            return witness
    return None


# -- the star solver ---------------------------------------------------------


class StarSolver:
    """The star linkage of `pairs`, one of them at s1, in the star of s1.

    S1g is the graph of the star, which holds every terminal; the pairs are
    clear of the dF-configuration.  Routes through the antistar of F1 run
    in S1g with F1 forbidden."""

    def __init__(self, P: Polytope, s1, pairs, trace, S1g):
        self.P = P
        self.S1g = S1g
        self.d = P.dim
        self.trace = trace
        _, self.t1, self.rest = take(pairs, s1)
        self.s1 = s1
        self.pairs = [(self.s1, self.t1)] + self.rest
        self.X = terminals(pairs)
        self.out = {}

    # -- shared geometry --

    def setup(self):
        P, s1, t1 = self.P, self.s1, self.t1
        cands = P.facets_containing((s1, t1))
        self.F1 = min(cands, key=lambda f: -len(self.X & f))
        self.s1o = P.opposite_in_face(self.F1, s1)

    @cached_property
    def inj(self):
        """F1's projection injection into the antistar, built and checked
        whole on first read; many solves never read it.  A failed check
        raises CaseNotCovered with the trace as it stands then."""
        return projections_star_injection(self.P, self.s1, self.F1,
                                          self.trace)

    def fail(self, why):
        return CaseNotCovered(why, trace=list(self.trace))

    def record(self, s, t, path):
        path = orient(path, s)
        if path[0] != s or path[-1] != t:
            raise self.fail(f"path {path} does not join {s} and {t}")
        self.out[frozenset((s, t))] = path

    def record_sub(self, pairs, paths):
        for (s, t), p in zip(pairs, paths):
            self.record(s, t, p)

    def splice(self, pairs, route, solve):
        """Record the pairs linked through their routes by `solve`."""
        self.record_sub(pairs, splice(pairs, route, solve))

    def face_link(self, face, pairs, avoid=()):
        return face_link(self.P, face, pairs, avoid, trace=self.trace)

    def cross(self, a, b):
        """a's way to b across the antistar; an end in F1 reaches it by the
        injection."""
        e = lambda x: self.inj[x] if x in self.F1 else x
        return _chain([a], shortest_path(self.S1g, e(a), e(b), self.F1), [b])

    def a1_2link(self, pairs2):
        """Two disjoint paths in the antistar via a ridge-cube inside it."""
        P, F1 = self.P, self.F1
        R1 = next(R for R in P.ridges_of_facet(F1) if self.s1 in R)
        _, RA = far_ridge(P, R1, F1)
        return link_via_subgraph(self.S1g, pairs2, RA,
                                 lambda ep: self.face_link(RA, ep),
                                 forbidden=F1, trace=self.trace)

    def link_in_F1(self, lpairs):
        """Linkage in the link of s1 inside the cube F1 (avoids s1 and s1o)."""
        return _in_cube(self.P, self.F1, lpairs, lambda coords, j, cube_pairs:
                        link_paths(j, coords[self.s1], cube_pairs, self.trace))

    def _detour(self, lpairs, sub, T):
        """s1's way across the antistar to T in F1, around the F1 linkage
        `sub` of `lpairs`: when a path of `sub` passes T, its pair crosses
        the antistar with s1 and its path in `sub` is replaced in place."""
        hit = next((i for i, p in enumerate(sub) if T in p), None)
        if hit is None:
            return self.cross(self.s1, T)
        a, b = lpairs[hit]
        two = self.a1_2link([(self.inj[self.s1], self.inj[T]),
                             (self.inj[a], self.inj[b])])
        sub[hit] = _chain([a], two[1], [b])
        return _chain([self.s1], two[0], [T])

    def _first_open(self, face, cands, why):
        """Record the first pair of cands joined in face avoiding every
        terminal, and return it; CaseNotCovered(why) if there is none."""
        for a, b in cands:
            try:
                p = _face_path(self.P, face, a, b, forbidden=self.X)
            except NoPath:
                continue
            self.record(a, b, p)
            return (a, b)
        raise self.fail(why)

    def _across(self, s, t, face, proj, forbidden=()):
        """An s-t path through face; an end outside it enters by proj."""
        e = lambda x: x if x in face else proj(x)
        p = _face_path(self.P, face, e(s), e(t), forbidden=forbidden)
        return _chain([s] if s not in face else [], p,
                      [t] if t not in face else [])

    def _pair_inside(self, face):
        """The index of the first rest pair inside face, or None."""
        return next((i for i, p in enumerate(self.rest)
                     if p[0] in face and p[1] in face), None)

    # -- dispatch --

    def solve(self):
        """The paths, keyed by the frozenset of their pair."""
        self.setup()
        n1 = len(self.X & self.F1)
        self.trace.append(f"star/F1-terminals={n1}")
        if n1 == self.d + 1:
            self.case4()
        elif n1 == self.d:
            self.case1()
        elif n1 >= 3:
            self.case2()
        else:
            self.case3()
        return self.out

    # -- case 1: one terminal outside F1 --------------------------------

    def case1(self):
        P, F1, s1, t1 = self.P, self.F1, self.s1, self.t1
        t2 = next(iter(self.X - F1))
        _, s2, rest = take(self.rest, t2)
        if _face_dist(P, F1, s2, s1) < self.d - 1:
            self.trace.append("star/case1-near")
            inside = [(s1, t1)] + rest
            self.record_sub(inside, self.face_link(F1, inside, avoid=[s2]))
            adjacent = self.inj[s2] == t2
            self.record(s2, t2, [s2, t2] if adjacent else self.cross(s2, t2))
            return
        # s2 is s1's antipode in F1
        R, Ro = _unassoc_ridge(P, F1, (self.X & F1) - {s2}, s2)
        piRo = lambda v: P.project_in_face(F1, Ro, v)
        piR = lambda v: P.project_in_face(F1, R, v)
        NR2 = [w for w in P.graph[s2] if w in R]
        if all(w in self.X for w in NR2):
            self.trace.append("star/case1-far-crowded")
            # every rest pair and t1 are the R-neighbours of s2
            self.record_sub(rest, self.face_link(R, rest, avoid=[s2, t1]))
            ps2 = piRo(s2)
            self.record(s2, t2, _chain([s2], self.cross(ps2, t2)))
            p1 = _face_path(P, Ro, piRo(t1), s1, forbidden={ps2})
            self.record(s1, t1, _chain([t1], p1))
            return
        self.trace.append("star/case1-far")
        s2bar = min(w for w in NR2 if w not in self.X)
        self.record(s2, t2, _chain([s2], self.cross(s2bar, t2)))
        inside = [(s1, t1)] + rest
        route = hops(terminals(inside), piRo)
        ent = lambda x: route[x][-1]
        try:
            self.splice(inside, route, lambda ep: self.face_link(Ro, ep))
        except Unlinkable:
            # 3-cube corner at d = 5: route the other pair through R instead
            self.trace.append("star/case1-far-d5-flip")
            (s3, t3) = rest[0]
            forb = {s2, s2bar} | (self.X - {s3, t3})
            self.record(s3, t3, self._across(s3, t3, R, piR, forb))
            e3 = {ent(s3), ent(t3)}
            self.record(s1, t1, self._across(
                s1, t1, Ro, piRo, (self.X | e3) - {s1, t1}))

    # -- case 2: between 3 and d-1 terminals in F1 ----------------------

    def case2(self):
        P, F1, s1, t1 = self.P, self.F1, self.s1, self.t1
        R, Ro = _unassoc_ridge(P, F1, self.X & F1, s1)
        piRo = lambda v: P.project_in_face(F1, Ro, v)
        piR = lambda v: P.project_in_face(F1, R, v)
        a1_terms = sorted(self.X - F1)
        if t1 in R:
            self.trace.append("star/case2-near-ridge")
            route = hops((self.X & F1) - {s1, t1}, piRo)
            XRo = {r[-1] for r in route.values()}
            pool = sorted(set(Ro) - XRo - {self.s1o})
            zbars = self._pick_zbars(P, Ro, XRo, pool, len(a1_terms))
            z2bar = {self.inj[zb]: zb for zb in zbars}
            for x, p in route_into(self.S1g, a1_terms, z2bar, forbidden=F1,
                                   trace=self.trace).items():
                route[x] = p + [z2bar[p[-1]]]
            self.splice(self.rest, route, lambda ep: self._must_link(Ro, ep))
            self.record(s1, t1, _face_path(P, R, s1, t1, forbidden=self.X))
            return
        self.trace.append("star/case2-far-ridge")
        ps1 = piRo(s1)
        p1 = _face_path(P, Ro, ps1, t1, forbidden=self.X)
        self.record(s1, t1, _chain([s1], p1))
        J, RJ = far_ridge(P, R, F1)
        route = route_into(self.S1g, a1_terms, RJ, forbidden=F1,
                           trace=self.trace)
        route.update(hops((self.X & F1) - {s1, t1}, piR))
        self.splice(self.rest, route,
                    lambda ep: self.face_link(J, ep, avoid=[s1]))

    def _pick_zbars(self, P, Ro, XRo, pool, need):
        """Landing spots in the far ridge for the antistar terminals.

        At d = 5 the far ridge is a 3-cube, so if no two of the fixed entries
        are at distance three we seed the pool with a vertex antipodal to one
        of them, which rules out the cyclic 2-face obstruction.
        """
        if self.d == 5 and XRo:
            spread = any(_face_dist(P, Ro, x, y) == 3
                         for x in XRo for y in XRo if x < y)
            if not spread:
                far = [z for z in pool
                       if any(_face_dist(P, Ro, z, x) == 3 for x in XRo)]
                if far and need >= 1:
                    z0 = far[0]
                    return [z0] + [z for z in pool if z != z0][:need - 1]
        return pool[:need]

    def _must_link(self, face, epairs):
        try:
            return self.face_link(face, epairs)
        except Unlinkable:
            raise self.fail("unexpected obstruction in a 3-cube ridge")

    # -- case 3: only the first pair meets F1 ---------------------------

    def case3(self):
        P, F1, s1, t1 = self.P, self.F1, self.s1, self.t1
        self.trace.append("star/case3")
        s2, t2 = self.rest[0]
        S12_facets = P.facets_containing((s1, s2))
        G12_all = P.generated_graph(P.vertex_facets[s1] & P.vertex_facets[s2])
        gamma_verts = set(G12_all) - F1
        a1_terms = sorted(self.X - {s1, t1})
        route = {x: [x] for x in a1_terms if x in gamma_verts}
        outside = [x for x in a1_terms if x not in gamma_verts]
        if outside:
            resident = self.X & gamma_verts
            route.update(route_into(self.S1g, outside, gamma_verts - resident,
                                    forbidden=resident | F1,
                                    trace=self.trace))
        hat = {x: route[x][-1] for x in a1_terms}
        F12 = next(f for f in S12_facets if hat[t2] in f)
        if t1 in F12:
            raise self.fail("second facet meets the far terminal")
        # first pair: leave through the ridge of F1 away from F12
        inter = frozenset(F12) & frozenset(F1)
        R = next(r for r in P.ridges_of_facet(F1)
                 if inter <= r and s1 in r and t1 not in r)
        Ro = P.opposite_subface(F1, R)
        p1 = _face_path(P, Ro, P.project_in_face(F1, Ro, s1), t1)
        self.record(s1, t1, _chain([s1], p1))
        if len(S12_facets) > 1:
            # several facets around s1-s2: funnel strays through a far ridge
            U = next(u for u in P.ridges_of_facet(F12) if s1 in u and s2 in u)
            J12, UJ = far_ridge(P, U, F12)
            hatX = set(hat.values())
            blocked = {P.project_in_face(J12, UJ, v)
                       for v in (hatX | {s1}) & set(U)}
            strays = sorted(x for x in a1_terms if hat[x] not in F12)
            W = sorted(set(UJ) - F1 - blocked)[:len(strays)]
            if len(W) < len(strays):
                raise self.fail("not enough landing spots off the far ridge")
            if strays:
                back = route_into(G12_all, [hat[x] for x in strays], W,
                                  forbidden=F1 | F12, trace=self.trace)
                for x in strays:
                    p = back[hat[x]]
                    route[x] = _chain(route[x], p,
                                      [P.project_in_face(J12, U, p[-1])])
            if {route[x][-1] for x in strays} & (hatX | {s1}):
                raise self.fail("stray landed on a terminal entry")
        self.splice(self.rest, route,
                    lambda ep: self.face_link(F12, ep, avoid=[s1]))

    # -- case 4: every terminal in F1 -----------------------------------

    def case4(self):
        if self.d == 5:
            if self.s1o == self.t1:
                self.case4_d5_antipodal()
            else:
                self.case4_d5()
            return
        if self.s1o not in self.X:
            self.case4_free()
        elif self.s1o == self.t1:
            self.case4_antipodal()
        else:
            self.case4_blocked()

    def case4_free(self):
        self.trace.append("star/case4-free")
        sub = self.face_link(self.F1, self.rest, avoid=[self.s1])
        p1 = self._detour(self.rest, sub, self.t1)
        self.record_sub(self.rest, sub)
        self.record(self.s1, self.t1, p1)

    def case4_antipodal(self):
        self.trace.append("star/case4-antipodal")
        P, t1 = self.P, self.t1
        nbrs = [w for w in P.graph[t1] if w in self.F1]
        free = [w for w in nbrs if w not in self.X]
        t1F = min(free)
        sub = self.link_in_F1(self.rest)
        p1 = self._detour(self.rest, sub, t1F)
        self.record_sub(self.rest, sub)
        self.record(self.s1, t1, _chain(p1, [t1]))

    def case4_blocked(self):
        self.trace.append("star/case4-blocked")
        P, s1, t1 = self.P, self.s1, self.t1
        _, t2, others = take(self.rest, self.s1o)
        s2 = self.s1o
        nbrs = [w for w in P.graph[s2] if w in self.F1]
        if t2 in nbrs:
            self.record(s2, t2, [s2, t2])
            sub = self.link_in_F1([(t1, t2)] + others)
            # the t1-t2 path only shields t1 and t2; it is discarded
            self.record_sub(others, sub[1:])
            self.record(s1, t1, self.cross(s1, t1))
            return
        s2F = min(w for w in nbrs if w not in self.X)
        lpairs = [(s2F, t2)] + others
        sub = self.link_in_F1(lpairs)
        p1 = self._detour(lpairs, sub, t1)
        self.record(s1, t1, p1)
        self.record(s2, t2, _chain([s2], orient(sub[0], s2F)))
        self.record_sub(others, sub[1:])

    # -- case 4 at d = 5 -------------------------------------------------

    def _split_3face(self, anchor_a, anchor_b):
        """The 3-face of F1 holding both anchors, with its companions."""
        P, F1 = self.P, self.F1
        coords, j = P.embed_face(F1)
        agree = [i for i in range(j)
                 if ((coords[anchor_a] ^ coords[anchor_b]) >> i) & 1 == 0]
        axis = agree[0]
        lo, hi = _coord_split(P, F1, axis)
        R = lo if anchor_a in lo else hi
        return (R, frozenset(F1) - R) + far_ridge(P, R, F1)

    def case4_d5(self):
        self.trace.append("star/case4-d5")
        R, RF, J1, RJ = self._split_3face(self.s1, self.t1)
        if self.X <= R:
            self._d5_all_in(RF, J1, RJ)
            return
        inR_pair = self._pair_inside(R)
        if inR_pair is not None:
            self._d5_pair_in_R(inR_pair, R, RF, J1, RJ)
            return
        inRF_pair = self._pair_inside(RF)
        if inRF_pair is not None:
            self._d5_pair_in_RF(inRF_pair, R, RF, J1)
            return
        self._d5_split_pairs(R, RF)

    def _d5_all_in(self, RF, J1, RJ):
        self.trace.append("star/case4-d5-all-in")
        P = self.P
        piRJ = lambda v: P.project_in_face(J1, RJ, v)
        piRF = lambda v: P.project_in_face(self.F1, RF, v)
        allp = self.pairs
        for i, j in ((0, 1), (0, 2), (1, 2)):
            two = [allp[i], allp[j]]
            try:
                self.splice(two, hops(terminals(two), piRJ),
                            lambda ep: self.face_link(RJ, ep))
            except Unlinkable:
                continue
            a, b = allp[3 - i - j]
            self.record(a, b, self._across(a, b, RF, piRF))
            return
        raise self.fail("no non-cyclic pair selection in the 3-face")

    def _d5_pair_in_R(self, i2, R, RF, J1, RJ):
        self.trace.append("star/case4-d5-pair-in-R")
        P = self.P
        piRJ = lambda v: P.project_in_face(J1, RJ, v)
        piRF = lambda v: P.project_in_face(self.F1, RF, v)
        s3, t3 = self.rest[1 - i2]
        cands = [(self.s1, self.t1), self.rest[i2]]
        pa = self._first_open(R, cands, "both short pairs blocked in the "
                              "3-face")
        a, b = cands[0] if pa == cands[1] else cands[1]
        self.record(a, b, self._across(a, b, RJ, piRJ))
        self.record(s3, t3, self._across(s3, t3, RF, piRF, self.X))

    def _d5_pair_in_RF(self, i2, R, RF, J1):
        P, s1, t1 = self.P, self.s1, self.t1
        s2, t2 = self.rest[i2]
        i3 = 1 - i2
        p3 = self.rest[i3]
        if p3[0] in R or p3[1] in R:
            s3, t3 = p3 if p3[0] in R else p3[::-1]
            banned = self.X - {s3, t3}
            T3 = self._short_hop(t3, R, None, banned)
            if T3 is not None:
                self.trace.append("star/case4-d5-hop")
                t3r = T3[-1]
                if t3r == s3:
                    # the hop already closes the pair
                    self.record(s3, t3, T3[::-1])
                    sub = self.face_link(J1, [(s1, t1)],
                                         avoid=[v for v in T3 if v in J1])
                else:
                    sub = self.face_link(J1, [(s1, t1), (s3, t3r)])
                    self.record(s3, t3, _chain(orient(sub[1], s3),
                                               T3[::-1][1:]))
                self.record(s1, t1, sub[0])
                p2 = _face_path(P, RF, s2, t2,
                                forbidden=(self.X | set(T3)) - {s2, t2})
                self.record(s2, t2, p2)
                return
            # no hop: RF's projection onto R puts t3 and a neighbour on s1
            # and t1, so s1 ~ t1, and s1o on s1's antipode, so t3 != s1o
            self.trace.append("star/case4-d5-adjacent")
            self.record(s1, t1, [s1, t1])
            self.record(s2, t2, _face_path(P, RF, s2, t2, forbidden=self.X))
            self.record(s3, t3, self.cross(s3, t3))
            return
        # the last pair also lives in the far ridge
        self.trace.append("star/case4-d5-both-far")
        pairA, pairB = (s2, t2), tuple(p3)
        if self.s1o in pairB:
            pairA, pairB = pairB, pairA
        s2, t2 = pairA if pairA[1] != self.s1o else pairA[::-1]
        s3, t3 = pairB
        self.record(s1, t1, _face_path(P, R, s1, t1, forbidden=self.X))
        self.record(s2, t2, _face_path(P, RF, s2, t2, forbidden=self.X))
        self.record(s3, t3, self.cross(s3, t3))

    def _short_hop(self, src, target_face, allowed_end, banned):
        """A path of length at most 2 from src into target_face, inside F1.

        Vertices after src must avoid `banned`, except that the endpoint may
        be `allowed_end`.  Candidates are scanned deterministically; None if
        all are blocked.
        """
        graph, tgt = self.P.graph, frozenset(target_face)
        direct = [w for w in graph[src] if w in tgt]
        cands = []
        if direct:
            cands.append([src, direct[0]])
        for w in graph[src]:
            if w in tgt or w not in self.F1:
                continue
            nxt = [u for u in graph[w] if u in tgt]
            if nxt:
                cands.append([src, w, nxt[0]])
        for c in cands:
            inner, end = c[1:-1], c[-1]
            if any(v in banned for v in inner):
                continue
            if end in banned and end != allowed_end:
                continue
            return c
        return None

    def _by_side(self, R):
        """The two rest pairs, each with its end in R first."""
        return [(a, b) if a in R else (b, a) for a, b in self.rest]

    def _hop_far(self, R, RF, s, t, S, banned=frozenset()):
        """Record the pair (s, t) hopping into RF along S and running there
        clear of `banned`; return what s1's path in R must avoid of it."""
        p = _face_path(self.P, RF, S[-1], t,
                       forbidden=self.X | banned | set(S[1:-1]))
        self.record(s, t, _chain(S, p))
        return {s} | (set(S) & set(R))

    def _d5_split_pairs(self, R, RF):
        self.trace.append("star/case4-d5-split")
        P, s1, t1 = self.P, self.s1, self.t1
        (s2, t2), (s3, t3) = self._by_side(R)
        if t2 == self.s1o:
            (s2, t2), (s3, t3) = (s3, t3), (s2, t2)
        S3 = self._short_hop(s3, RF, t3, self.X - {s3, t3})
        if S3 is None:
            alt = self._short_hop(s2, RF, t2, self.X - {s2, t2})
            if alt is not None and t3 != self.s1o:
                (s2, t2), (s3, t3) = (s3, t3), (s2, t2)
                S3 = alt
        if S3 is not None:
            self.record(s2, t2, self.cross(s2, t2))
            forb = self._hop_far(R, RF, s3, t3, S3) | {s2}
            self.record(s1, t1, _face_path(P, R, s1, t1, forbidden=forb))
            return
        self.trace.append("star/case4-d5-split-tight")
        # here t3 is s1o: s2's hop exists, since both hops fail only when
        # s1, s2 and s3 form a triangle in the cube R, and it was not taken
        u = min(w for w in P.graph[t3] if w in RF and w != t2)
        T3 = {t3, u, self.inj[u]}
        self.record(s3, t3, _chain(self.cross(s3, u), [t3]))
        S2 = self._short_hop(s2, RF, t2, (self.X | T3) - {s2, t2})
        forb = self._hop_far(R, RF, s2, t2, S2, T3) | {s3}
        self.record(s1, t1, _face_path(P, R, s1, t1, forbidden=forb))

    def case4_d5_antipodal(self):
        self.trace.append("star/case4-d5-antipodal")
        P, s1, t1 = self.P, self.s1, self.t1
        free = [w for w in P.graph[t1] if w in self.F1 and w not in self.X]
        t1p = min(free)
        R, RF, J1, RJ = self._split_3face(s1, t1p)
        piRJ = lambda v: P.project_in_face(J1, RJ, v)
        piRF = lambda v: P.project_in_face(self.F1, RF, v)
        inR = self._pair_inside(R)
        if inR is not None:
            self.trace.append("star/case4-d5-anti-ridge")
            s2, t2 = self.rest[inR]
            s3, t3 = self.rest[1 - inR]
            two = [(s1, t1), (s2, t2)]
            route = hops((s1, s2, t2), piRJ)
            route[t1] = [t1, t1p, piRJ(t1p)]
            self.splice(two, route, lambda ep: self._must_link(RJ, ep))
            e3 = lambda x: x if x in RF else piRF(x)
            if e3(s3) in self.X - {s3, t3} or e3(t3) in self.X - {s3, t3}:
                raise self.fail("blocked projection for the last pair")
            self.record(s3, t3, self._across(s3, t3, RF, piRF, self.X))
            return
        inRF = self._pair_inside(RF)
        if inRF is not None:
            self.trace.append("star/case4-d5-anti-far")
            cands = [self.rest[inRF]]
            other = self.rest[1 - inRF]
            if other[0] in RF and other[1] in RF:
                cands.append(other)
            done = self._first_open(RF, cands, "far-ridge pair blocked")
            s3, t3 = next(q for q in self.rest if set(q) != set(done))
            self.record(s3, t3, self.cross(s3, t3))
            p1 = _face_path(P, R, s1, t1p, forbidden=self.X)
            self.record(s1, t1, _chain(p1, [t1]))
            return
        self.trace.append("star/case4-d5-anti-split")
        (s2, t2), (s3, t3) = self._by_side(R)
        S3 = self._short_hop(s3, RF, t3, (self.X | {t1p}) - {s3, t3})
        # a hop exists: no vertex of R neighbours both s1 and t1p
        forb = self._hop_far(R, RF, s3, t3, S3) | {s2}
        self.record(s2, t2, self.cross(s2, t2))
        p1 = _face_path(P, R, s1, t1p, forbidden=forb)
        self.record(s1, t1, _chain(p1, [t1]))


def solve_star(P, s1, pairs) -> LinkageCertificate:
    """Linkage for 2 to (d+1)/2 pairs inside the star of s1 (d odd, d >= 5),
    checked against the star's graph; s1 is a terminal.  Pairs in the
    dF-configuration give its witness."""
    d = P.dim
    if d % 2 == 0 or d < 5:
        raise ValueError("star linkage needs an odd-dimensional host of "
                         "dimension at least 5")
    if all(s1 not in p for p in pairs):
        raise ValueError(f"the star centre {s1} is not a terminal")
    if not 2 <= len(pairs) <= (d + 1) // 2:
        raise ValueError(f"star linkage needs 2 to {(d + 1) // 2} pairs, "
                         f"not {len(pairs)}")
    S1g = P.generated_graph(P.vertex_facets.get(s1, 0))

    def solve(ps, trace):
        witness = detect_config_dF(P, s1, ps)
        if witness is not None:
            trace.append("star/config-dF")
            raise Unlinkable(witness)
        out = StarSolver(P, s1, ps, trace, S1g).solve()
        return [orient(out[frozenset(p)], p[0]) for p in ps]

    return certify(f"star({P.labels.get(s1, s1)}) in {d}-polytope", S1g,
                   P.labels.__getitem__, pairs, solve)
