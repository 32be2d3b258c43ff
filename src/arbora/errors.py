"""Exception types shared across the toolkit.

Every operation raises one of these instead of a bare ValueError so that
callers (and the CLI) can map failures to exit codes deterministically.
A certificate that checks many things reports every failure kind with its
count and first witness (`failure_summary`).
"""

from collections import Counter


class ArboraError(Exception):
    """Base class for all toolkit errors."""


class NotATree(ArboraError):
    pass


class DuplicateId(ArboraError):
    pass


class EmptyTree(ArboraError):
    pass


class UnknownVertex(ArboraError):
    pass


class UnknownEdge(ArboraError):
    pass


class RootIsPhantom(ArboraError):
    pass


class PreconditionViolated(ArboraError):
    pass


class NotABuildingBlock(ArboraError):
    pass


class IrrelevantBlock(ArboraError):
    pass


class InvalidTube(ArboraError):
    pass


class InvalidSpine(ArboraError):
    pass


class UnknownArc(ArboraError):
    pass


class NotMaximal(ArboraError):
    pass


class NotNested(ArboraError):
    pass


class SingletonLabel(ArboraError):
    pass


class VertexNotInLabel(ArboraError):
    pass


class ImproperCut(ArboraError):
    pass


class NoOrientedPath(ArboraError):
    pass


class InvalidOrder(ArboraError):
    pass


class InvalidPartition(ArboraError):
    pass


class NotAdjacent(ArboraError):
    pass


class BoundExceeded(ArboraError):
    pass


class VerificationFailure(ArboraError):
    pass


class RecursionMismatch(VerificationFailure):
    pass


class InvalidPath(ArboraError):
    pass


class InversionMismatch(VerificationFailure):
    pass


def failure_summary(failures: list) -> tuple:
    """(kind, count, first witness) per kind of (kind, witness) failures, by kind."""
    counts = Counter(kind for kind, _ in failures)
    first = dict(reversed(failures))  # the first witness of each kind
    return tuple((kind, counts[kind], first[kind]) for kind in sorted(counts))
