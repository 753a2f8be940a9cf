"""Shared exception types."""


class CubelinkError(Exception):
    pass


class NotCubical(CubelinkError):
    """A face of the input lattice is not combinatorially a cube."""


class InconsistentIncidence(CubelinkError):
    """Vertex-facet incidence does not describe a polytope lattice."""


class NotSphere(InconsistentIncidence):
    """A 3-dimensional incidence whose squares do not make a 2-sphere, so it
    is no 3-polytope's boundary."""


class NoPath(CubelinkError):
    """No path satisfying the stated constraints exists."""


class CaseNotCovered(CubelinkError):
    """The constructive case analysis fell through; carries the trace so far.

    This is a bug signal: the underlying theorems guarantee the cases are
    exhaustive, so reaching this means the implementation diverged from them.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace else []


class CertificateInvalid(CaseNotCovered):
    """A solver returned paths that fail the linkage check; nothing is emitted."""


class OracleTimeout(CubelinkError):
    """The exhaustive oracle exceeded its budget."""
