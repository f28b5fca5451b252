"""Arena heap of immovable, tagged, write-once cells.

A region owns a growing chain of fixed-capacity blocks and bump-allocates
cells into them. A cell is one constructor application: a constructor plus a
fixed number of field slots, each of which starts as a hole and is written
exactly once, either with a reference to another cell of the same region or
with a leaf payload that is deep-copied into the region at write time.

A cell is a single object, a ``CellRef``: it carries its region's id, its
handle (its index in allocation order), its constructor and its slots, and
callers hold and pass that object itself; there is no separate locator.
Cells never move, so a cell stays valid for the region's whole lifetime.

Decoding (``read_value``) walks the cell graph, checks that no reachable
hole remains and that the graph is acyclic, and rebuilds the host value
bottom-up through the registered constructor ``make`` functions.

A region and everything pointing into it belong to one thread at a time;
none of these operations synchronize.
"""

from __future__ import annotations

import copy
import itertools
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

# Root-receiver indirection: a private one-field constructor that decodes to
# its field's value. Never registered; never visible to callers.
_INDIRECTION = CtorDescriptor(
    type_id="_indirection",
    name="_ind",
    tag=0,
    arity=1,
    fields=(LeafType("any"),),
    make=lambda value: value,
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


class CellRef:
    """One cell of one region: its constructor and its field slots.

    Compared and hashed by identity; ``handle`` is its index in the region's
    allocation order.
    """

    __slots__ = ("region_id", "handle", "ctor", "slots")

    def __init__(self, region_id: int, handle: int, ctor: CtorDescriptor) -> None:
        self.region_id = region_id
        self.handle = handle
        self.ctor = ctor
        self.slots = [HOLE] * ctor.arity

    def __repr__(self) -> str:
        return f"<CellRef {self.ctor.name} {self.region_id}:{self.handle}>"


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
        self._cells: list[CellRef] = []
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
        cell = CellRef(self.region_id, len(self._cells), ctor)
        self._cells.append(cell)
        self.outstanding_holes += ctor.arity
        return cell

    def _alloc_receiver(self) -> CellRef:
        """Allocate a root-receiver indirection cell (not a user cell)."""
        self._require_alive()
        cell = self._new_cell(_INDIRECTION)
        self.stats.receiver_cells += 1
        return cell

    def _foreign(self, cell: CellRef, what: str) -> RegionMismatch:
        return RegionMismatch(
            f"{what} of region {cell.region_id} used in region {self.region_id}"
        )

    def _close(self) -> None:
        self.alive = False

    def copy_value(self, value, type_id: str) -> CellRef:
        """Structurally copy a complete host value into fresh region cells.

        Constructor nodes become cells, leaf fields become region-owned leaf
        copies; a node reached twice is copied twice. Returns the root cell of
        the copy. Iterative depth-first; a node reachable from itself raises
        CyclicStructure. A copy that fails part way is unreachable and owes no
        writes, so its holes are taken back out of ``outstanding_holes``.
        """
        self._require_alive()
        holes = self.outstanding_holes
        on_path: set[int] = set()  # ids of the host nodes being copied
        # Entries: (cell, field index, host node, type id) to copy the node
        # into that field (the root has no cell), or (None, None, node, None)
        # once the node's subtree is copied.
        stack: list = [(None, 0, value, type_id)]
        root = None
        try:
            while stack:
                parent, idx, node, tid = stack.pop()
                if idx is None:
                    on_path.discard(id(node))
                    continue
                if id(node) in on_path:
                    raise CyclicStructure(
                        f"host {type(node).__name__} is reachable from itself"
                    )
                shape = self.registry.shape(tid)
                tag, parts = shape.classify(node)
                cell = self._new_cell(shape.ctors[tag])
                self.stats.cells_allocated += 1
                if parent is None:
                    root = cell
                else:
                    write_field(self, parent, idx, Ref(cell))
                on_path.add(id(node))
                stack.append((None, None, node, None))
                fields = cell.ctor.fields
                for i in range(len(fields) - 1, -1, -1):
                    if isinstance(fields[i], Recursive):
                        stack.append((cell, i, parts[i], fields[i].type_id))
                    else:
                        write_field(self, cell, i, Leaf(parts[i]))
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
    if isinstance(value, (str, bytes)):
        return WORD + _round_word(len(value))
    if isinstance(value, (int, float, type(None))):
        return WORD
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
    cell = region._new_cell(ctor)
    region.stats.cells_allocated += 1
    return cell


def write_field(region: Region, cell: CellRef, index: int, value) -> None:
    """Write one hole, transitioning it to Ref or Leaf state forever.

    A Leaf of a scalar payload is stored as given (the payload is immutable);
    any other payload is deep-copied into a new Leaf.
    """
    if cell.region_id != region.region_id:
        raise region._foreign(cell, "cell")
    slots = cell.slots
    if not 0 <= index < len(slots):
        raise FieldIndexOutOfRange(
            f"field {index} out of range for {cell.ctor.name} "
            f"(arity {len(slots)})"
        )
    if slots[index] is not HOLE:
        raise DoubleFill(
            f"field {index} of {cell.ctor.name} cell {cell.handle} "
            f"already written"
        )
    if isinstance(value, Ref):
        if value.target.region_id != region.region_id:
            raise region._foreign(value.target, "reference")
    elif isinstance(value, Leaf):
        if not isinstance(value.payload, _SCALARS):
            value = Leaf(copy.deepcopy(value.payload))
        region._bump(_nominal_size(value.payload))
        region.stats.leaf_copies += 1
    else:
        raise TypeError(f"expected Ref or Leaf, got {type(value).__name__}")
    slots[index] = value
    region.outstanding_holes -= 1


_ON_PATH, _DONE = 1, 2


def read_value(region: Region, root: CellRef):
    """Decode the value rooted at ``root`` back into a host value.

    Iterative depth-first walk in slot order; raises IncompleteRead on any
    reachable hole and CyclicStructure if a cell is reachable from itself,
    whichever it meets first. A cell reached twice decodes to one object.
    Leaf payloads are returned as stored (the region's copy), not re-copied.
    """
    if root.region_id != region.region_id:
        raise region._foreign(root, "cell")
    cells = region._cells
    marks = bytearray(len(cells))  # 0, _ON_PATH or _DONE, by handle
    values: list = [None] * len(cells)  # decoded value of each _DONE cell
    # Entries: a cell to enter, the handle of an entered cell to complete
    # once its children are done, or (cell, index) of a hole, in slot order.
    stack: list = [root]
    while stack:
        cell = stack.pop()
        if type(cell) is CellRef:
            mark = marks[cell.handle]
            if mark == _DONE:
                continue
            if mark == _ON_PATH:
                raise CyclicStructure(f"cell {cell.handle} is reachable from itself")
            slots = cell.slots
            base = len(stack)
            for idx in range(len(slots) - 1, -1, -1):
                slot = slots[idx]
                if isinstance(slot, Ref):
                    stack.append(slot.target)
                elif slot is HOLE:
                    stack.append((cell, idx))
            if len(stack) > base:
                marks[cell.handle] = _ON_PATH
                stack.insert(base, cell.handle)
                continue
        elif type(cell) is int:
            cell = cells[cell]
        else:
            cell, idx = cell
            raise IncompleteRead(
                f"hole at field {idx} of {cell.ctor.name} cell {cell.handle}"
            )
        args = []
        for slot in cell.slots:
            args.append(
                values[slot.target.handle] if isinstance(slot, Ref) else slot.payload
            )
        marks[cell.handle] = _DONE
        values[cell.handle] = cell.ctor.make(*args)
    return values[root.handle]


def region_stats(region: Region) -> AllocStats:
    """Snapshot of the allocation counters."""
    return replace(region.stats)
