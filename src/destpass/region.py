"""Arena heap of immovable, tagged, write-once cells.

A region owns a growing chain of fixed-capacity blocks and bump-allocates
cells into them. A cell is one constructor application: a tag plus a fixed
number of field slots, each of which starts as a hole and is written exactly
once, either with a reference to another cell of the same region or with a
leaf payload that is deep-copied into the region at write time. Cells never
move, so a CellRef stays valid for the region's whole lifetime.

Decoding (``read_value``) walks the cell graph, checks that no reachable
hole remains and that the graph is acyclic, and rebuilds the host value
bottom-up through the registered constructor ``make`` functions.

A region and everything pointing into it belong to one thread at a time;
none of these operations synchronize.
"""

from __future__ import annotations

import copy
import itertools
from collections import deque
from dataclasses import dataclass, replace

from .errors import (
    CyclicStructure,
    DoubleFill,
    FieldIndexOutOfRange,
    IncompleteRead,
    InvalidBlockSize,
    RegionClosed,
    RegionMismatch,
)
from .shapes import (
    DEFAULT_REGISTRY,
    CtorDescriptor,
    LeafType,
    Recursive,
    ShapeRegistry,
)

WORD = 8
MIN_BLOCK_SIZE = 256
DEFAULT_BLOCK_SIZE = 32 * 1024

_region_ids = itertools.count(1)

# Hole marker stored in unwritten slots.
HOLE = type("Hole", (), {"__repr__": lambda self: "HOLE", "__slots__": ()})()

# Root-receiver indirection: a private one-field constructor that decoding
# resolves transparently. Never registered; never visible to callers.
_INDIRECTION = CtorDescriptor(
    type_id="_indirection",
    name="_ind",
    tag=0,
    arity=1,
    fields=(LeafType("any"),),
)

_SCALARS = (int, float, bool, str, bytes, type(None))


class Ref:
    """Slot state: reference to another cell of the same region."""

    __slots__ = ("target",)

    def __init__(self, target: CellRef) -> None:
        self.target = target

    def __repr__(self) -> str:
        return f"Ref({self.target!r})"


class Leaf:
    """Slot state: opaque payload copied into the region."""

    __slots__ = ("payload",)

    def __init__(self, payload) -> None:
        self.payload = payload

    def __repr__(self) -> str:
        return f"Leaf({self.payload!r})"


@dataclass(frozen=True)
class CellRef:
    """Stable locator of one cell inside one region."""

    region_id: int
    handle: int


class Cell:
    __slots__ = ("ctor", "slots")

    def __init__(self, ctor: CtorDescriptor) -> None:
        self.ctor = ctor
        self.slots = [HOLE] * ctor.arity


@dataclass
class AllocStats:
    """Monotone allocation counters, snapshot via region_stats."""

    cells_allocated: int = 0
    bytes_allocated: int = 0
    leaf_copies: int = 0
    receiver_cells: int = 0
    oversize_blocks: int = 0


class Region:
    """An arena of immovable cells; reclaimed as a whole, never per-cell."""

    def __init__(self, block_size: int, registry: ShapeRegistry) -> None:
        self.region_id = next(_region_ids)
        self.block_size = block_size
        self.registry = registry
        # Bytes used in each block; a block's capacity is block_size, or
        # exactly its use for a dedicated oversize block.
        self.blocks: list[int] = [0]
        self.outstanding_holes = 0
        self.stats = AllocStats()
        self.alive = True
        self._cells: list[Cell] = []
        # Live tokens and incompletes minted against this region, counted
        # by the builder for its scope audit.
        self._tokens_alive = 0
        self._incompletes_alive = 0

    def __repr__(self) -> str:
        return (
            f"<Region {self.region_id}: {len(self._cells)} cells, "
            f"{self.outstanding_holes} holes, {len(self.blocks)} blocks>"
        )

    # -- internal helpers ---------------------------------------------------

    def _require_alive(self):
        if not self.alive:
            raise RegionClosed(f"region {self.region_id} is closed")

    def _bump(self, nbytes: int) -> None:
        """Reserve nbytes in the block chain, growing it as needed."""
        if nbytes > self.block_size:
            # A single object larger than a block gets a dedicated block.
            self.blocks.append(nbytes)
            self.stats.oversize_blocks += 1
        elif self.blocks[-1] + nbytes > self.block_size:
            self.blocks.append(nbytes)
        else:
            self.blocks[-1] += nbytes
        self.stats.bytes_allocated += nbytes

    def _new_cell(self, ctor: CtorDescriptor) -> CellRef:
        self._bump(WORD * (1 + ctor.arity))
        cell = Cell(ctor)
        handle = len(self._cells)
        self._cells.append(cell)
        self.outstanding_holes += ctor.arity
        return CellRef(self.region_id, handle)

    def _alloc_receiver(self) -> CellRef:
        """Allocate a root-receiver indirection cell (not a user cell)."""
        self._require_alive()
        ref = self._new_cell(_INDIRECTION)
        self.stats.receiver_cells += 1
        return ref

    def _cell(self, ref: CellRef) -> Cell:
        if ref.region_id != self.region_id:
            raise RegionMismatch(
                f"cell of region {ref.region_id} dereferenced in "
                f"region {self.region_id}"
            )
        return self._cells[ref.handle]

    def _close(self) -> None:
        self.alive = False

    def copy_value(self, value, type_id: str) -> CellRef:
        """Structurally copy a complete host value into fresh region cells.

        Constructor nodes become cells, leaf fields become region-owned leaf
        copies. Returns the root cell of the copy. A copy that fails part way
        is unreachable and owes no writes, so its holes are taken back out of
        ``outstanding_holes``.
        """
        self._require_alive()
        shape = self.registry.shape(type_id)
        tag, parts = shape.classify(value)
        holes = self.outstanding_holes
        root = self._new_cell(shape.ctors[tag])
        self.stats.cells_allocated += 1
        pending = deque([(root, shape.ctors[tag], parts)])
        try:
            while pending:
                ref, ctor, parts = pending.popleft()
                for idx, (kind, part) in enumerate(zip(ctor.fields, parts)):
                    if isinstance(kind, Recursive):
                        sub_shape = self.registry.shape(kind.type_id)
                        sub_tag, sub_parts = sub_shape.classify(part)
                        sub_ctor = sub_shape.ctors[sub_tag]
                        sub_ref = self._new_cell(sub_ctor)
                        self.stats.cells_allocated += 1
                        write_field(self, ref, idx, Ref(sub_ref))
                        pending.append((sub_ref, sub_ctor, sub_parts))
                    else:
                        write_field(self, ref, idx, Leaf(part))
        except BaseException:
            self.outstanding_holes = holes
            raise
        return root


# -- leaf accounting --------------------------------------------------------


def _round_word(n: int) -> int:
    return ((n + WORD - 1) // WORD) * WORD


def _nominal_size(value) -> int:
    """Bytes charged to the region for one deep-copied leaf payload.

    Each object is charged once, however often it is reachable, as the deep
    copy shares it; so a self-containing payload is finite.
    """
    total = 0
    seen: set[int] = set()
    stack = [value]
    while stack:
        v = stack.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, (str, bytes, bytearray)):
            total += WORD + _round_word(len(v))
        elif isinstance(v, (tuple, list, set, frozenset)):
            total += WORD + WORD * len(v)
            stack.extend(v)
        elif isinstance(v, dict):
            total += WORD + 2 * WORD * len(v)
            stack.extend(v.keys())
            stack.extend(v.values())
        else:
            total += WORD
    return total


def _copy_leaf(value):
    if isinstance(value, _SCALARS):
        return value
    return copy.deepcopy(value)


# -- public operations -------------------------------------------------------


def region_new(
    block_size: int = DEFAULT_BLOCK_SIZE, *, registry: ShapeRegistry | None = None
) -> Region:
    """Create an empty region with blocks of ``block_size`` bytes."""
    if block_size < MIN_BLOCK_SIZE:
        raise InvalidBlockSize(
            f"block size {block_size} below minimum {MIN_BLOCK_SIZE}"
        )
    return Region(block_size, registry or DEFAULT_REGISTRY)


def alloc_hollow(region: Region, ctor: CtorDescriptor) -> CellRef:
    """Allocate a cell for ``ctor`` with every field left as a hole."""
    region._require_alive()
    region.registry.resolve(ctor)
    ref = region._new_cell(ctor)
    region.stats.cells_allocated += 1
    return ref


def write_field(region: Region, cell: CellRef, index: int, value) -> None:
    """Write one hole, transitioning it to Ref or Leaf state forever."""
    target = region._cell(cell)
    if not 0 <= index < target.ctor.arity:
        raise FieldIndexOutOfRange(
            f"field {index} out of range for {target.ctor.name} "
            f"(arity {target.ctor.arity})"
        )
    if target.slots[index] is not HOLE:
        raise DoubleFill(
            f"field {index} of {target.ctor.name} cell {cell.handle} "
            f"already written"
        )
    if isinstance(value, Ref):
        if value.target.region_id != region.region_id:
            raise RegionMismatch(
                f"reference into region {value.target.region_id} cannot be "
                f"stored in region {region.region_id}"
            )
        region._cells[value.target.handle]  # handle validity
        target.slots[index] = value
    elif isinstance(value, Leaf):
        stored = Leaf(_copy_leaf(value.payload))
        region._bump(_nominal_size(stored.payload))
        region.stats.leaf_copies += 1
        target.slots[index] = stored
    else:
        raise TypeError(f"expected Ref or Leaf, got {type(value).__name__}")
    region.outstanding_holes -= 1


def read_value(region: Region, root: CellRef):
    """Decode the value rooted at ``root`` back into a host value.

    Iterative post-order walk; raises IncompleteRead on any reachable hole
    and CyclicStructure if a cell is reachable from itself. Leaf payloads are
    returned as stored (the region's copy), not re-copied.
    """
    region._cell(root)  # region check
    done: dict[int, object] = {}
    gray: set[int] = set()
    # frame: [handle, next slot index, decoded children]
    stack = [[root.handle, 0, []]]
    gray.add(root.handle)
    while stack:
        frame = stack[-1]
        handle, idx, vals = frame
        cell = region._cells[handle]
        if idx == cell.ctor.arity:
            if cell.ctor is _INDIRECTION:
                value = vals[0]
            else:
                value = cell.ctor.make(*vals)
            done[handle] = value
            gray.discard(handle)
            stack.pop()
            if stack:
                stack[-1][2].append(value)
            continue
        frame[1] += 1
        slot = cell.slots[idx]
        if slot is HOLE:
            raise IncompleteRead(
                f"hole at field {idx} of {cell.ctor.name} cell {handle}"
            )
        if isinstance(slot, Leaf):
            vals.append(slot.payload)
        else:
            child = slot.target.handle
            if child in done:
                vals.append(done[child])
            elif child in gray:
                raise CyclicStructure(
                    f"cell {child} is reachable from itself"
                )
            else:
                gray.add(child)
                stack.append([child, 0, []])
    return done[root.handle]


def region_stats(region: Region) -> AllocStats:
    """Snapshot of the allocation counters."""
    return replace(region.stats)
