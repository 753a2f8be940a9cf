"""Pairings, obstruction witnesses, and linkage certificates."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CertificateInvalid, CubelinkError
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


@dataclass
class ObstructionWitness:
    kind: str              # "config-3F" or "config-dF"
    facet: list            # vertex ids of the blocking facet
    pair: tuple            # the (s1, t1) pair at facet-diameter distance
    blocking: list         # the facet-neighbours of t1, all terminals

    def to_json(self, label=str):
        return {
            "kind": self.kind,
            "facet": [label(v) for v in sorted(self.facet)],
            "pair": [label(self.pair[0]), label(self.pair[1])],
            "blocking": [label(v) for v in sorted(self.blocking)],
        }


class Unlinkable(CubelinkError):
    """Raised internally when an instance is obstructed; carries the witness.

    The witness is None when an exhaustive search found no linkage and no
    known configuration explains why.
    """

    def __init__(self, witness: ObstructionWitness | None):
        super().__init__(
            f"unlinkable: {witness.kind if witness else 'search-exhausted'}")
        self.witness = witness


@dataclass
class LinkageCertificate:
    instance: dict
    paths: list | None = None          # list of vertex-id lists, pair order
    obstruction: ObstructionWitness | None = None
    trace: list = field(default_factory=list)
    valid: bool = False

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


def certify(instance, pairs, solve, graph, avoid=()) -> LinkageCertificate:
    """Run `solve` and check its answer: the one way to a certificate.

    `solve(pairs, trace)` returns one path per pair, in pair order, or raises
    Unlinkable.  `graph()` builds the host graph; it is called only when
    there are paths to check.  Paths that are not a linkage of `pairs` in
    that graph avoiding `avoid` raise CertificateInvalid, so no unchecked
    linkage is ever returned.  An Unlinkable without a witness (a search that
    found nothing, with no configuration to explain it) gives a certificate
    with `valid` False, since there is nothing to check.
    """
    pairs = check_pairing(pairs)
    trace: list = []
    try:
        paths = solve(pairs, trace)
    except Unlinkable as e:
        return LinkageCertificate(instance=instance, obstruction=e.witness,
                                  trace=trace, valid=e.witness is not None)
    ok, msg = validate_linkage(graph(), pairs, paths, avoid)
    if not ok:
        raise CertificateInvalid(f"solver output is not a linkage: {msg}",
                                 trace=trace)
    return LinkageCertificate(instance=instance, paths=paths, trace=trace,
                              valid=True)
