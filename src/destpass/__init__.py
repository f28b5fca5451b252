"""destpass: top-down data construction through write-once destinations.

Values are built inside arena regions of immovable cells. A destination is
a first-class handle to exactly one unfilled field; filling destinations
builds the structure from the root down, and a consume-exactly-once
discipline (checked at run time) guarantees that no hole can ever be read
and nothing linear is silently dropped.

Case studies live in :mod:`destpass.dlist`, :mod:`destpass.bfs`, and
:mod:`destpass.sexpr`; the benchmark harness in :mod:`destpass.bench`.
"""

from .builder import (
    Dest,
    Incomplete,
    Token,
    alloc,
    fill,
    fill_comp,
    fill_leaf,
    from_incomplete,
    from_incomplete_,
    into_incomplete,
    map_b,
    token_consume,
    token_dup2,
    with_region,
)
from .errors import (
    CyclicStructure,
    DestinationInLeaf,
    DoubleFill,
    DpsError,
    FieldIndexOutOfRange,
    IncompleteRead,
    LeafTooDeep,
    LinearityLeak,
    OracleMismatch,
    RegionClosed,
    RegionMismatch,
    SelfPlug,
    ShapeConflict,
    UnfilledHoles,
    UnknownCtor,
    UseAfterConsume,
)
from .region import (
    AllocStats,
    CellRef,
    Hole,
    Leaf,
    Region,
    alloc_hollow,
    read_value,
    region_new,
    region_stats,
    write_field,
)
from .shapes import (
    DEFAULT_REGISTRY,
    CtorDescriptor,
    LeafType,
    Recursive,
    ShapeRegistry,
    TypeShape,
)

__version__ = "0.1.0"
