"""Pairings, obstruction witnesses, and linkage certificates."""

from __future__ import annotations

from ..errors import (CaseNotCovered, CertificateInvalid, CubelinkError,
                      NoPath)
from ..paths import validate_linkage


def check_pairing(pairs):
    """Validate and normalise a pairing: list of (s, t) tuples."""
    pairs = [tuple(p) for p in pairs]
    X = [v for p in pairs for v in p]
    if len(set(X)) != len(X):
        raise ValueError("terminals must be distinct")
    if not pairs:
        raise ValueError("need at least one pair")
    return pairs


def terminals(pairs):
    return {v for p in pairs for v in p}


def take(pairs, x):
    """Split the pair holding x off a pairing: its index, x's partner, and
    the other pairs in order."""
    i = next(i for i, p in enumerate(pairs) if x in p)
    a, b = pairs[i]
    return i, b if a == x else a, [p for j, p in enumerate(pairs) if j != i]


class ObstructionWitness:
    """A blocking configuration: `kind` is "config-3F" or "config-dF",
    `facet` the vertex ids of the blocking facet, `pair` the (s1, t1) pair
    at facet-diameter distance and `blocking` the facet-neighbours of t1,
    all terminals.  Witnesses with equal fields are equal."""

    def __init__(self, kind, facet, pair, blocking):
        self.kind = kind
        self.facet = facet
        self.pair = pair
        self.blocking = blocking

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def to_json(self, label=str):
        return {
            "kind": self.kind,
            "facet": [label(v) for v in sorted(self.facet)],
            "pair": [label(self.pair[0]), label(self.pair[1])],
            "blocking": [label(v) for v in sorted(self.blocking)],
        }


def blocking(P, kind, F, a, b, X) -> ObstructionWitness | None:
    """The `kind` witness that the face F of P blocks the pair (a, b), or
    None; the one place a witness is built.  F blocks when it is a cube face
    of dimension at least 2, a and b are antipodal in it, and every neighbour
    of b in F is in the terminal set X.  The caller vouches that F is a face."""
    coords, j = P.embed_face(F)
    if j < 2 or a not in coords or b not in coords:
        return None
    if coords[a] ^ coords[b] != (1 << j) - 1:
        return None
    nbrs = [w for w in P.graph[b] if w in coords]
    if not all(w in X for w in nbrs):
        return None
    return ObstructionWitness(kind=kind, facet=sorted(F), pair=(a, b),
                              blocking=nbrs)


class Unlinkable(CubelinkError):
    """Raised internally when an instance is obstructed; carries the witness.

    The witness is None when an exhaustive search found no linkage and no
    known configuration explains why.
    """

    def __init__(self, witness: ObstructionWitness | None):
        super().__init__(
            f"unlinkable: {witness.kind if witness else 'search-exhausted'}")
        self.witness = witness


class LinkageCertificate:
    """A solved instance: `paths` (vertex-id lists in pair order) or an
    `obstruction` (None for an exhausted search) and the trace tags.
    Certificates with equal fields are equal."""

    def __init__(self, instance, paths=None, obstruction=None, trace=None):
        self.instance = instance
        self.paths = paths
        self.obstruction = obstruction
        self.trace = [] if trace is None else trace

    @property
    def valid(self):
        """Whether the answer was checked: `certify` checks the paths, and
        `blocking` the witness; an exhausted search has neither."""
        return self.paths is not None or self.obstruction is not None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def to_json(self, label=str):
        if self.paths is not None:
            result = {"linkage": [[label(v) for v in p] for p in self.paths]}
        elif self.obstruction is not None:
            result = {"obstruction": self.obstruction.to_json(label)}
        else:
            result = {"obstruction": {"kind": "search-exhausted"}}
        return {
            "instance": self.instance,
            "result": result,
            "trace": list(self.trace),
            "valid": self.valid,
        }


def certify(host, graph, label, pairs, solve, avoid=()) -> LinkageCertificate:
    """Run `solve` and check its answer: the one way to a certificate.

    `graph` is the one graph the certificate is checked against.  A terminal
    or avoided vertex that is not a vertex of it, a malformed pairing, or an
    avoided vertex that is repeated or a terminal raises ValueError before
    anything is solved.  The certificate's instance names `host` and lists
    `pairs` and `avoid`, in their order, as `label` writes their vertices.
    `solve(pairs, trace)` returns one path per pair, in pair order, or raises
    Unlinkable.  A NoPath out of `solve` is a fault of the solver, not of
    the input: it raises CaseNotCovered with the trace so far.  Paths that
    are not a linkage of `pairs` in `graph` avoiding `avoid` raise
    CertificateInvalid, so no unchecked linkage is ever returned.  An
    Unlinkable without a witness (a search that found nothing, with no
    configuration to explain it) gives a certificate with `valid` False,
    since there is nothing to check.
    """
    stray = [v for p in pairs for v in p if v not in graph]
    stray += [v for v in avoid if v not in graph]
    if stray:
        raise ValueError(f"vertex {stray[0]} is not in {host}")
    instance = {
        "host": host,
        "pairs": [[label(s), label(t)] for s, t in pairs],
        "avoid": [label(v) for v in avoid],
    }
    pairs = check_pairing(pairs)
    X = terminals(pairs)
    clash = next((v for v in avoid if v in X), None)
    if clash is not None:
        raise ValueError(f"avoided vertex {label(clash)} is a terminal")
    if len(set(avoid)) != len(avoid):
        raise ValueError("avoided vertices must be distinct")
    trace: list = []
    try:
        paths = solve(pairs, trace)
    except Unlinkable as e:
        return LinkageCertificate(instance=instance, obstruction=e.witness,
                                  trace=trace)
    except NoPath as e:
        raise CaseNotCovered(f"solver found no path: {e}", trace=trace)
    ok, msg = validate_linkage(graph, pairs, paths, avoid)
    if not ok:
        raise CertificateInvalid(f"solver output is not a linkage: {msg}",
                                 trace=trace)
    return LinkageCertificate(instance=instance, paths=paths, trace=trace)
