"""Exception types shared across the package."""

from __future__ import annotations

from typing import Sequence


class FtmdError(Exception):
    """Base class for all package-specific errors."""


class GraphBuildError(FtmdError):
    """Rejected graph input."""


class OrderTooSmall(GraphBuildError):
    """Graphs need at least two vertices; invariants are undefined below that."""


class SelfLoop(GraphBuildError):
    pass


class DuplicateEdge(GraphBuildError):
    pass


class VertexOutOfRange(GraphBuildError):
    pass


class DisconnectedInput(GraphBuildError):
    """Some vertex is unreachable; only connected graphs are supported."""


class InvalidVertexSet(FtmdError, ValueError):
    """A vertex or vertex set the graph cannot take: a label outside
    0..n-1, or too few vertices for the question asked.  Also a
    ``ValueError``, so ``except ValueError`` still catches it."""


class OrderCapExceeded(FtmdError):
    """Exact search refused: the graph is larger than the configured cap."""


class AnchorReuseWithinPiece(FtmdError):
    """A piece declared the same anchor name on two of its vertices."""


class NonTreeAttachment(FtmdError):
    """A piece shares zero or several known anchors; the glueing must stay tree-like."""


class OverlapError(FtmdError):
    """Candidate set intersects the anchor set."""


class UnsupportedConfiguration(FtmdError):
    """No closed form covers this family/anchor configuration; use the search."""


class IllegalParameter(FtmdError):
    """Family parameters outside their legal range."""


class InputFormatError(FtmdError):
    """Malformed edge-list text or JSON payload."""


class PreconditionFailed(FtmdError):
    """A composition rule's hypothesis does not hold for the given instance.

    Carries the full list of named checks so callers can report which
    hypotheses failed without recomputing them.
    """

    def __init__(self, theorem: str, checks: Sequence[tuple[str, bool]]):
        self.theorem = theorem
        self.checks = tuple(checks)
        self.failed = tuple(name for name, ok in checks if not ok)
        super().__init__(f"{theorem}: failed {', '.join(self.failed)}")
