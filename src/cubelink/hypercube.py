"""Bit-level representation of the d-cube Q_d.

Vertices are plain ints interpreted as little-endian bit vectors: coordinate i
of vertex v is ``(v >> i) & 1``.  Two vertices are adjacent iff their XOR is a
power of two.  Faces are (fixed_mask, fixed_values) pairs; a vertex belongs to
a face iff it agrees with fixed_values on every fixed coordinate.

Serialization: a vertex renders as a fixed-width binary string with coordinate
0 leftmost, e.g. vertex 1 in Q_3 is "100".
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from functools import lru_cache
from heapq import heappop, heappush
from math import factorial
from types import MappingProxyType

from .errors import NoPath

MAX_DIM = 30


def _check_dim(d: int) -> None:
    if not 1 <= d <= MAX_DIM:
        raise ValueError(f"dimension {d} out of range [1, {MAX_DIM}]")


def vertex_to_str(v: int, d: int) -> str:
    """Fixed-width binary string, coordinate 0 leftmost."""
    return format(v, f"0{d}b")[::-1][:d]


def vertex_from_str(s: str) -> int:
    if not s or any(c not in "01" for c in s):
        raise ValueError(f"bad vertex string {s!r}")
    return sum((1 << i) for i, c in enumerate(s) if c == "1")


def dist(u: int, v: int) -> int:
    """Hamming distance; equals graph distance in Q_d."""
    return (u ^ v).bit_count()


class CubeFace(namedtuple("CubeFace", "d fixed_mask fixed_values")):
    """A face of Q_d: coordinates in fixed_mask are frozen to fixed_values.

    An immutable value: fixed_values is masked to fixed_mask, so equal faces
    compare equal, and a face hashes and orders as its field tuple
    (d, fixed_mask, fixed_values), which gives canonical keys.
    """

    __slots__ = ()

    def __new__(cls, d, fixed_mask, fixed_values):
        _check_dim(d)
        if fixed_mask & ~((1 << d) - 1):
            raise ValueError("fixed_mask outside dimension")
        return super().__new__(cls, d, fixed_mask, fixed_values & fixed_mask)

    @property
    def dim(self) -> int:
        return self.d - self.fixed_mask.bit_count()

    @property
    def free_mask(self) -> int:
        return ((1 << self.d) - 1) & ~self.fixed_mask

    def contains(self, v: int) -> bool:
        return (v & self.fixed_mask) == self.fixed_values

    def vertices(self) -> list[int]:
        """In increasing order, as the submasks of free_mask increase."""
        free, sub, out = self.free_mask, 0, [self.fixed_values]
        while sub != free:
            sub = (sub - free) & free
            out.append(self.fixed_values | sub)
        return out


def _face(d, fixed_mask, fixed_values) -> CubeFace:
    """CubeFace(...) less its checks, for faces derived from checked ones."""
    return tuple.__new__(CubeFace, (d, fixed_mask, fixed_values & fixed_mask))


def whole_cube(d: int) -> CubeFace:
    return CubeFace(d, 0, 0)


def facet(d: int, axis: int, value: int) -> CubeFace:
    """The facet {x_axis = value} of Q_d: d and axis checked, then _face."""
    _check_dim(d)
    if not 0 <= axis < d:
        raise ValueError(f"axis {axis} out of range")
    return _face(d, 1 << axis, value << axis)


def project(x: int, F_target: CubeFace) -> int:
    """Projection of a vertex onto F_target of an opposite facet pair.

    A vertex of the facet opposite F_target maps to its unique neighbour in
    F_target; a vertex already in F_target maps to itself.
    """
    if F_target.fixed_mask.bit_count() != 1:
        raise ValueError("projection target must be a facet")
    return (x & ~F_target.fixed_mask) | F_target.fixed_values


def facet_pair(K: CubeFace, axis: int, value: int):
    """The facets {x_axis = value} and {x_axis = 1 - value} of the face K,
    for a free axis of K, by _face: the axis set, then flipped.  Every
    facet split of the cube induction and of the link solver is this call,
    the link's on K = whole_cube(D)."""
    bit = 1 << axis
    mask, values = K.fixed_mask | bit, K.fixed_values | (value << axis)
    return _face(K.d, mask, values), _face(K.d, mask, values ^ bit)


def face_to_cube(K: CubeFace, vs) -> list[int]:
    """The vertices vs of the face K in the coordinates of Q_dim(K): K's
    fixed axes dropped and the gaps closed, one shift per run of adjacent
    fixed axes, highest first.  Dropping one axis at a time gives the same
    map, so it keeps the order of the vertices and of the free axes.  On a
    facet of Q_d it is that facet's embedding (build_cube_polytope).  A
    list in, a list out."""
    mask = K.fixed_mask
    while mask:
        hi = mask.bit_length()
        lo = (~mask & ((1 << hi) - 1)).bit_length()
        low = (1 << lo) - 1
        vs = [(v & low) | (v >> hi << lo) for v in vs]
        mask &= low
    return vs


def cube_to_face(K: CubeFace, ws) -> list[int]:
    """face_to_cube's inverse: the vertices ws of Q_dim(K) as vertices of
    K, each run of K's fixed axes opened, lowest first, and set to K's
    values."""
    mask = K.fixed_mask
    while mask:
        lo = (mask & -mask).bit_length() - 1
        top = mask + (mask & -mask)  # the run carried into the bit above it
        hi = (top & -top).bit_length() - 1
        low, values = (1 << lo) - 1, K.fixed_values & ((1 << hi) - 1)
        ws = [(w & low) | (w >> lo << hi) | values for w in ws]
        mask &= top
    return ws


def smallest_face(d: int, S) -> CubeFace:
    """The inclusion-minimal face of Q_d holding the vertex set S, by _face."""
    S = list(S)
    if not S:
        raise ValueError("empty vertex set")
    _check_dim(d)
    ones = S[0]
    zeros = ~S[0]
    for v in S[1:]:
        ones &= v
        zeros &= ~v
    mask = (ones | zeros) & ((1 << d) - 1)
    return _face(d, mask, ones)


def associated_pairs(d: int, Z) -> set[int]:
    """Axes a such that the subgraph induced by Z has an edge in direction a.

    Equivalently: the opposite facet pair along axis a is associated with Z.
    Always at most |Z| - 1 axes (spanning-forest bound).
    """
    Z = set(Z)
    if not Z:
        raise ValueError("empty vertex set")
    out = set()
    for a in range(d):
        bit = 1 << a
        if any((z ^ bit) in Z for z in Z):
            out.add(a)
    return out


def lowest_unassociated_axis(K: CubeFace, Z) -> int:
    """Lowest free axis of the face K whose facet pair in K is not
    associated with Z, a set of at most dim(K) vertices of K, so that one
    exists by the association bound.  When every free axis is associated
    it raises ValueError."""
    assoc, free = associated_pairs(K.d, Z), K.free_mask
    for a in range(K.d):
        if (free >> a) & 1 and a not in assoc:
            return a
    raise ValueError(f"all {K.dim} directions associated with Z "
                     f"(|Z|={len(Z)})")


@lru_cache(maxsize=None)
def cube_graph(d: int) -> Mapping[int, tuple[int, ...]]:
    """Adjacency of Q_d with neighbours in increasing order; read-only, as
    every caller shares the cached mapping."""
    _check_dim(d)
    return MappingProxyType({
        v: tuple(sorted(v ^ (1 << i) for i in range(d)))
        for v in range(1 << d)
    })


class CubeAdjacency(Mapping):
    """Read-only adjacency of Q_d that computes ``G[v]`` on access.

    It answers what ``cube_graph(d)`` answers, neighbours in increasing
    order, without holding 2^d entries; a key outside 0..2^d-1 raises
    KeyError.
    """

    def __init__(self, d: int):
        _check_dim(d)
        self.d = d

    def __getitem__(self, v):
        if v not in self:
            raise KeyError(v)
        # clearing a higher one or setting a lower zero gives the smaller
        # neighbour, so the row comes out in increasing order
        row, ones, zeros = [], v, v ^ ((1 << self.d) - 1)
        while ones:
            high = 1 << (ones.bit_length() - 1)
            row.append(v ^ high)
            ones ^= high
        while zeros:
            low = zeros & -zeros
            row.append(v | low)
            zeros ^= low
        return tuple(row)

    def __contains__(self, v):
        return isinstance(v, int) and 0 <= v < 1 << self.d

    def has_edge(self, a, b):
        """Whether b is in ``self[a]``: ``a ^ b`` is one bit below 2^d;
        KeyError when a is not a vertex, as ``self[a]`` raises."""
        if not (isinstance(a, int) and 0 <= a < 1 << self.d):
            raise KeyError(a)
        x = a ^ b if isinstance(b, int) else 0
        return 0 < x < 1 << self.d and x.bit_count() == 1

    def __iter__(self):
        return iter(range(1 << self.d))

    def __len__(self):
        return 1 << self.d


def _astar(s, t, bits, forbidden, bound):
    """A* from s to t over the flips `bits`, avoiding `forbidden`.

    Yields None after each expansion and then the path, once t is generated;
    raises NoPath when the frontier empties, that is when no path has at
    most `bound` steps.  The Hamming distance to t is consistent on Q_d, so
    a vertex's depth is final when it is expanded and the first path to
    reach t is shortest.  Ties go to the deeper vertex, then the smaller.
    """
    depth = {s: 0}
    prev = {s: None}
    heap = [((s ^ t).bit_count(), 0, s)]
    while heap:
        _, neg_depth, u = heappop(heap)
        if -neg_depth > depth[u]:
            continue  # stale: u was reached by a shorter path since
        g = depth[u] + 1
        for b in bits:
            w = u ^ b
            if w == t:
                path = [t, u]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                yield path[::-1]
                return
            if w in forbidden or depth.get(w, g + 1) <= g:
                continue
            f = g + (w ^ t).bit_count()
            if f <= bound:
                depth[w] = g
                prev[w] = u
                heappush(heap, (f, -g, w))
        yield None
    raise NoPath(f"no {s}-{t} path of at most {bound} steps avoiding "
                 f"{len(forbidden)} vertices")


def _search(s, t, bits, forbidden, bound):
    """A shortest s-t path of at most `bound` steps, else NoPath.

    face_path calls it only when every shortest s-t path is blocked, to
    find a detour or to prove there is none.  A* from s towards t and A*
    from t towards s take turns expanding one vertex each.  The first to
    reach its goal gives the path; the first whose frontier empties proves
    there is none, which takes only a few steps when either end is walled
    in.
    """
    ahead = _astar(s, t, bits, forbidden, bound)
    back = _astar(t, s, bits, forbidden, bound)
    while True:
        path = next(ahead)
        if path is not None:
            return path
        path = next(back)
        if path is not None:
            return path[::-1]


def _geodesics(w, t, forbidden):
    """The number of shortest w-t paths that avoid `forbidden`.

    A shortest path flips the bits of w ^ t once each, in some order, so
    there are |w ^ t|! of them, and it stays in the interval of vertices
    that agree with w and t where they agree.  The paths through the
    interval's forbidden vertices are subtracted by inclusion-exclusion
    over them, nearest w first: `first` holds, for each, the shortest paths
    from w whose first forbidden vertex it is.  That takes O(m^2) integer
    operations for m forbidden vertices in the interval, whatever the size
    of the face.
    """
    span = w ^ t
    # the interval's forbidden vertices as their flips from w, nearest first,
    # so each comes after every one that lies between it and w
    xs = sorted((f ^ w for f in forbidden if not (f ^ w) & ~span),
                key=int.bit_count)
    total = factorial(span.bit_count())
    first = []
    for x in xs:
        n = factorial(x.bit_count())
        for y, m in zip(xs, first):
            if not y & ~x:
                n -= m * factorial((x ^ y).bit_count())
        first.append(n)
        total -= n * factorial((span ^ x).bit_count())
    return total


def _walk(s, t):
    """The least-neighbour-first shortest s-t path: clear s's extra ones
    from the highest axis down, then set t's extra ones from the lowest up.
    Each step goes to the least neighbour that is one step nearer t."""
    path, v = [s], s
    ones, zeros = s & ~t, t & ~s
    while ones:
        high = 1 << (ones.bit_length() - 1)
        v ^= high
        ones ^= high
        path.append(v)
    while zeros:
        low = zeros & -zeros
        v ^= low
        zeros ^= low
        path.append(v)
    return path


def _counted_walk(s, t, inside):
    """The least-neighbour-first shortest s-t path avoiding `inside`, the
    forbidden vertices between s and t, given that one exists.  Each step
    goes to the least neighbour one step nearer t from which a shortest
    path still avoids them all (`_geodesics`, which counts none from a
    forbidden vertex); once none lies ahead, `_walk` writes the rest down."""
    flips = [1 << i for i in range((s ^ t).bit_length()) if (s ^ t) >> i & 1]
    path = [s]
    while inside:
        v = path[-1]
        w = next(w for w in sorted(v ^ b for b in flips if (v ^ t) & b)
                 if _geodesics(w, t, inside))
        path.append(w)
        inside = [f for f in inside if not (f ^ w) & ~(w ^ t)]
    return path + _walk(path[-1], t)[1:]


def face_path(K: CubeFace, s: int, t: int, forbidden=()) -> list[int]:
    """Shortest s-t path inside the face K avoiding `forbidden`; NoPath if
    there is none.  s and t are never treated as forbidden.

    K's graph is never built: the neighbours of v are ``v ^ (1 << i)`` over
    K's free axes.  The path is the lexicographically least shortest one,
    the path a breadth-first search with sorted neighbours returns: from s
    it steps to the least neighbour that still has a shortest way on to t.

    Every shortest s-t path lies in the subcube where s and t agree.  When
    no forbidden vertex lies there, the path is written down (`_walk`).
    When some do, the shortest paths that avoid them are counted
    (`_geodesics`), and if there are any, the path steps to the least
    neighbour from which some remain (`_counted_walk`); nothing is
    searched.  Only when every shortest path is blocked are the steps
    chosen one by one: a candidate's steps to t are known from a path found
    earlier, or are its Hamming distance to t when a shortest way from it
    avoids `forbidden`, or else, when that distance is below the steps
    left, are settled by a search (`_search`) bounded by the steps left.
    """
    if not (K.contains(s) and K.contains(t)):
        raise ValueError("path ends must lie in the face")
    if s == t:
        return [s]
    forbidden = set(forbidden) - {s, t}
    agree = ~(s ^ t)
    inside = [f for f in forbidden if not (f ^ t) & agree]
    if not inside:
        return _walk(s, t)
    if _geodesics(s, t, inside):
        return _counted_walk(s, t, inside)
    free = K.free_mask
    bits = [1 << i for i in range(K.d) if (free >> i) & 1]
    to_t = {}  # v -> steps of a shortest v-t path avoiding forbidden

    def learn(path):
        to_t.update((v, len(path) - 1 - i) for i, v in enumerate(path))

    learn(_search(s, t, bits, forbidden, 1 << K.dim))
    out = [s]
    while out[-1] != t:
        left = to_t[out[-1]] - 1
        for w in sorted(out[-1] ^ b for b in bits):
            h = (w ^ t).bit_count()
            if w in forbidden or h > left:
                continue
            if w not in to_t:
                if _geodesics(w, t, forbidden):
                    to_t[w] = h
                elif h == left:
                    continue  # every path within `left` steps is blocked
                else:
                    try:
                        learn(_search(w, t, bits, forbidden, left))
                    except NoPath:
                        continue
            if to_t[w] == left:
                out.append(w)
                break
    return out


def face_graph(K: CubeFace) -> dict[int, tuple[int, ...]]:
    """Adjacency of the subgraph of Q_d induced by a face."""
    verts = K.vertices()
    free = [i for i in range(K.d) if (K.free_mask >> i) & 1]
    return {v: tuple(sorted(v ^ (1 << i) for i in free)) for v in verts}
