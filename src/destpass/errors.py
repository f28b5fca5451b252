"""Exception types shared by all destpass modules."""


class DpsError(Exception):
    """Base class for every error this package raises deliberately."""


class RegionClosed(DpsError):
    """Operation on a region whose scope has already ended."""


class DoubleFill(DpsError):
    """A second write was attempted on a field that is no longer a hole."""


class FieldIndexOutOfRange(DpsError):
    """Field index outside the arity of the target cell's constructor."""


class RegionMismatch(DpsError):
    """A reference or plug would cross from one region into another."""


class IncompleteRead(DpsError):
    """Decoding reached a field that is still a hole."""


class CyclicStructure(DpsError):
    """Decoding found a cell reachable from itself."""


class ShapeConflict(DpsError):
    """A shape with no constructor or with one of another type, a second
    shape under a registered type id, or a Recursive field of an
    unregistered type."""


class UnknownCtor(DpsError):
    """Constructor descriptor is not registered, or does not fit the hole."""


class UseAfterConsume(DpsError):
    """A token, destination, or incomplete was consumed a second time."""


class LinearityLeak(DpsError):
    """A linear value (token, destination, incomplete) was dropped or smuggled."""


class UnfilledHoles(DpsError):
    """An incomplete still has live destinations and cannot be released."""


class SelfPlug(DpsError):
    """An incomplete was plugged into a destination of its own lineage."""


class DestinationInLeaf(DpsError, TypeError):
    """A leaf payload holds a linear handle, a region cell or a hole."""


class LeafTooDeep(DpsError):
    """A leaf payload is nested too deep for its copy into the region."""


class OracleMismatch(DpsError):
    """A benchmark engine produced output that disagrees with the oracle."""
