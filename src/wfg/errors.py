"""Exception types shared across the package.

Two broad families matter to callers: ``InputError`` for malformed files or
documents (CLI exit code 1) and everything else under ``WfgError`` for
violated mathematical preconditions (CLI exit code 2).
"""


class WfgError(Exception):
    """Base class for all library errors."""


class InputError(WfgError):
    """Malformed input: unreadable files, bad JSON, schema violations."""


class ParseError(InputError):
    """File cannot be read or is not valid JSON."""


class SchemaError(InputError):
    """JSON parses but does not match the documented schema."""


class PreconditionError(WfgError):
    """A documented mathematical precondition does not hold."""


class NotConnected(PreconditionError):
    """The 1-skeleton is not path-connected."""


class MissingTree(PreconditionError):
    """An operation that needs a maximal tree got a complex without one."""


class ShapeMismatch(PreconditionError):
    """Matrix dimensions are inconsistent with the operation."""


class NonPositive(PreconditionError):
    """Argument outside its positive / nonnegative domain."""


class ConditionFailed(PreconditionError):
    """The exactly-two tree condition fails for some triangle.

    Carries the offending triangle (vertex index triple) in ``triangle``
    and, when raised while scanning a filtration, the stage in ``stage``.
    """

    def __init__(self, message, triangle=None, stage=None):
        super().__init__(message)
        self.triangle = triangle
        self.stage = stage


class NonIntegerRank(WfgError):
    """Internal consistency failure: a lower-central-series rank came out
    non-integral or negative.  Signals a bug, never expected at runtime."""


class HasTriangles(PreconditionError):
    """Weighted homology is only computed for graphs (no 2-simplices)."""


class ZeroWeightEdge(PreconditionError):
    """Weighted homology requires all edge weights nonzero."""


class HypothesesFailed(PreconditionError):
    """A cover does not satisfy the gluing-theorem hypotheses."""


class NotAGraph(PreconditionError):
    """Operation restricted to 1-dimensional complexes."""


class TooLarge(PreconditionError):
    """Input exceeds the documented enumeration bound."""


class BadTree(PreconditionError):
    """A supplied edge set is not a maximal tree of the complex."""


class NotNested(PreconditionError):
    """Filtration stages are not nested as weighted subcomplexes."""
