"""Arena heap of immovable, tagged, write-once cells.

A region counts the cells and bytes allocated in it but holds none of them:
a cell lives as long as something refers to it. A cell is one constructor
application: a constructor plus a fixed number of field slots, each of which
starts as a hole and is written exactly once, either with a reference to
another cell of the same region or with a leaf payload that is deep-copied
into the region at write time. A hole, a region cell and a linear handle
each refuse that copy (``DestinationInLeaf``), at any depth in the payload.

A raw cell is a single object, a ``CellRef``: it carries its region's id,
its handle (its index in allocation order), its constructor and its slots,
and callers hold and pass that object itself; there is no separate locator.
Cells never move, so a cell stays valid for the region's whole lifetime.

A field, of a raw cell or of a host object, holds what a host object's
field holds: its region's own ``Hole``, ``region.hole``, until it is written
(so no other region can write it), then either a raw cell of the region,
which the field refers to, or the finished value itself: a leaf's payload
(the region's copy), a nullary constructor's ``make()``, or the value of a
filled receiver. A host object's field never holds a raw cell.

A root receiver, whose one hole takes an incomplete's whole value, is a raw
cell of the private ``_INDIRECTION`` constructor; there is no receiver type.
It stands for what it holds: ``write_field`` stores that value in its place.
The builder's cells are host objects. Written into a receiver or into a host
object, a constructor that the registry lets build in place (see ``shapes``)
is allocated as its final host object: ``object.__new__`` of its ``make``,
its ``__init__`` never run, with every field set to ``region.hole`` or to
its leaf value. One allocator per such constructor, generated from source
when its shape registers, does this in straight-line code; any call it does
not cover goes to the generic checks. Every field of a host object is
written as the registry records for its class: by the builtin ``setattr``
(a plain attribute store), or by ``object.__setattr__`` for a class with a
``__setattr__`` of its own, such as a frozen dataclass. Such a cell is
charged exactly as a raw cell and has no handle; ``_hole`` checks its fields
as it checks a raw cell's.

Decoding (``read_value``) walks the raw cell graph, checks that no
reachable hole remains and that the graph is acyclic, and rebuilds the host
value bottom-up through the registered constructor ``make`` functions. A
receiver that holds anything but a raw cell decodes in O(1), to that value,
unless the region has outstanding holes: then the host objects a read
returns or meets are scanned for one.

A region and everything pointing into it belong to one thread at a time;
none of these operations synchronize.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, replace

from .errors import (
    CyclicStructure,
    DestinationInLeaf,
    DoubleFill,
    FieldIndexOutOfRange,
    IncompleteRead,
    LeafTooDeep,
    RegionClosed,
    RegionMismatch,
    UnknownCtor,
)
from .shapes import (
    DEFAULT_REGISTRY,
    CtorDescriptor,
    LeafType,
    ShapeRegistry,
)

WORD = 8

_region_ids = itertools.count(1)


class _NotALeaf:
    """What no leaf may hold: deep-copying one raises DestinationInLeaf."""

    __slots__ = ()

    def __deepcopy__(self, memo):
        raise DestinationInLeaf(f"a leaf payload cannot hold {self!r}")


# The marker in every unwritten field; each region has its own.
Hole = type("Hole", (_NotALeaf,), {"__repr__": lambda self: "HOLE", "__slots__": ()})

# The constructor that makes a raw cell a root receiver: one field, which
# read_value returns as the receiver's value, and which write_field stores
# where the receiver is written. Never registered.
_INDIRECTION = CtorDescriptor("_indirection", "_ind", (LeafType("any"),))

_SCALARS = frozenset({int, float, bool, str, bytes, type(None)})  # kept as given, by exact type
_ONE_WORD = frozenset({int, float, bool, type(None)})  # scalars _nominal_size charges WORD


class Leaf:
    """What ``write_field`` writes as a leaf: ``payload``, which the field
    then holds, deep-copied into the region unless it is a scalar."""

    __slots__ = ("payload",)

    def __init__(self, payload) -> None:
        self.payload = payload

    def __repr__(self) -> str:
        return f"Leaf({self.payload!r})"


class CellRef(_NotALeaf):
    """One cell of one region: its constructor and its field slots.

    Compared and hashed by identity; ``handle`` is its index in the region's
    allocation order.
    """

    __slots__ = ("region_id", "handle", "ctor", "slots")

    def __init__(self, region: Region, handle: int, ctor: CtorDescriptor) -> None:
        self.region_id = region.region_id
        self.handle = handle
        self.ctor = ctor
        self.slots = [region.hole] * ctor.arity

    def __repr__(self) -> str:
        return f"<CellRef {self.ctor.name} {self.region_id}:{self.handle}>"


@dataclass
class AllocStats:
    """Monotone allocation counters, snapshot via region_stats."""

    cells_allocated: int = 0
    bytes_allocated: int = 0
    leaf_copies: int = 0
    receiver_cells: int = 0


class Region:
    """The scope of a set of immovable cells: counts and checks them, while
    the host heap holds each one and reclaims it once unreferenced."""

    def __init__(self, registry: ShapeRegistry) -> None:
        self.region_id = next(_region_ids)
        self.hole = Hole()
        self.registry = registry
        self.outstanding_holes = 0
        self.stats = AllocStats()
        self.alive = True
        self._handles = itertools.count()
        # Live tokens and incompletes minted against this region, counted
        # by the builder for its scope audit.
        self._tokens_alive = 0
        self._incompletes_alive = 0

    def __repr__(self) -> str:
        return (
            f"<Region {self.region_id}: "
            f"{self.stats.cells_allocated + self.stats.receiver_cells} cells, "
            f"{self.outstanding_holes} holes>"
        )

    # -- internal helpers ---------------------------------------------------

    def _require_alive(self):
        if not self.alive:
            raise RegionClosed(f"region {self.region_id} is closed")

    def _new_cell(self, ctor: CtorDescriptor) -> CellRef:
        self.stats.bytes_allocated += WORD * (1 + ctor.arity)
        self.outstanding_holes += ctor.arity
        return CellRef(self, next(self._handles), ctor)

    def _alloc_receiver(self) -> CellRef:
        """Allocate a root-receiver indirection cell (not a user cell)."""
        self.stats.receiver_cells += 1
        return self._new_cell(_INDIRECTION)

    def _foreign(self, cell: CellRef, what: str) -> RegionMismatch:
        return RegionMismatch(
            f"{what} of region {cell.region_id} used in region {self.region_id}"
        )

    def _close(self) -> None:
        self.alive = False

    def copy_value(self, value, type_id: str) -> CellRef:
        """Structurally copy a complete host value into fresh region cells.

        Returns an uncharged receiver (no handle) whose hole holds the copy,
        written exactly as the fills of a build would write it: host objects
        for a type that builds in place, else raw cells. Leaf fields become
        region-owned leaf copies; a node reached twice is copied twice.
        Iterative depth-first; a node reachable from itself raises
        CyclicStructure. A copy that fails part way, as on a leaf that holds a
        hole or a handle, is unreachable and owes no writes, so its holes and
        charges are taken back out of ``outstanding_holes`` and ``stats``.
        """
        self._require_alive()
        holes, stats = self.outstanding_holes, replace(self.stats)
        holder = CellRef(self, -1, _INDIRECTION)
        self.outstanding_holes += 1
        on_path: set[int] = set()  # ids of the host nodes being copied
        # Entries: (cell, field index, host node, type id) to copy the node
        # into that field, or (None, None, node, None) once the node's
        # subtree is copied.
        stack: list = [(holder, 0, value, type_id)]
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
                ctor = shape.ctors[tag]
                leaves = [parts[i] for i in ctor.leaves]
                cell = alloc_hollow(self, ctor, parent, idx, leaves)
                if not ctor.kids:  # nothing below it
                    continue
                on_path.add(id(node))
                stack.append((None, None, node, None))
                for i, kind in reversed(ctor.kids):
                    stack.append((cell, i, parts[i], kind.type_id))
        except BaseException:
            self.outstanding_holes, self.stats = holes, stats
            raise
        return holder


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


def _leaf_copies(payloads) -> tuple[list, int]:
    """What leaf fields hold for ``payloads``, and the bytes they are charged:
    a scalar as given, anything else, a scalar's subclass too, deep-copied,
    which raises DestinationInLeaf on a hole, region cell or handle inside
    it and LeafTooDeep on one too deep to copy. ``...``, which marks a hole
    in a fill, is no leaf (TypeError)."""
    copies, charge = [], 0
    for v in payloads:
        if type(v) in _ONE_WORD:
            charge += WORD
        else:
            if type(v) not in _SCALARS:
                if v is ...:
                    raise TypeError("... marks a hole; a leaf field cannot hold it")
                try:
                    v = copy.deepcopy(v)
                except RecursionError:
                    raise LeafTooDeep("a leaf payload is nested too deep to copy") from None
            charge += _nominal_size(v)
        copies.append(v)
    return copies, charge


# -- public operations -------------------------------------------------------


def region_new(*, registry: ShapeRegistry | None = None) -> Region:
    """Create an empty region whose constructors come from ``registry``."""
    return Region(registry or DEFAULT_REGISTRY)


def alloc_hollow(
    region: Region, ctor: CtorDescriptor, into=None, index: int = 0, leaves=()
):
    """Allocate a cell for ``ctor`` with every field a hole but those that
    ``leaves`` gives: one value per leaf field, or one per field (else
    TypeError). A leaf field's value is kept, copied, refused and charged as
    ``write_field`` does a ``Leaf``'s payload; a ``Recursive`` one takes
    ``...``, a hole, or a registered nullary constructor of its type (else
    TypeError, or UnknownCtor for any other descriptor), stored and charged
    as below.

    With ``into``, the new cell is also written into hole ``index`` of
    ``into``: a raw cell, a receiver, or a host object that a fill of this
    same region built (else RegionMismatch). Every check of both steps
    runs before anything changes. A nullary constructor is stored as its
    ``make()``, charged as one cell, and None is returned. Otherwise the new
    cell is returned: a raw cell into a raw cell that is not a receiver or
    for a constructor that does not build in place, else its host object.
    A host object's field takes no raw cell (TypeError).

    A constructor that builds in place runs the allocator generated for it
    at registration (``_compile``), which leaves any call it does not
    build, unchanged, to the generic checks and raw cells.
    """
    try:
        compiled = region.registry.allocators[ctor]
    except KeyError:
        return _alloc_generic(region, ctor, into, index, leaves)
    return compiled(region, into, index, leaves)


def _alloc_generic(region: Region, ctor: CtorDescriptor, into, index: int, leaves):
    """``alloc_hollow``'s checks, in order, and the raw cells it builds."""
    if into is None:
        region._require_alive()
        region.registry.resolve(ctor)
    else:
        key = _hole(region, into, index)
        if region.registry.resolve(ctor) is None and type(into) is not CellRef:
            raise TypeError(f"a {type(into).__name__} cannot hold a region cell")
    nested = []  # (position, nullary constructor) of each Recursive field given one
    if leaves:
        if len(leaves) == ctor.arity:  # one per field
            for i, kind in ctor.kids:
                if (c := leaves[i]) is not ...:
                    if type(c) is not CtorDescriptor:
                        raise TypeError(f"field {i} of {ctor.name} takes ... or a nullary constructor")
                    if c.arity or c.type_id != kind.type_id:
                        raise UnknownCtor(f"field {i} of {ctor.name} takes a nullary {kind.type_id}")
                    region.registry.resolve(c)
                    nested.append((i, c))
            leaves = [leaves[i] for i in ctor.leaves]
        elif len(leaves) != len(ctor.leaves):
            raise TypeError(f"{ctor.name} takes {len(ctor.leaves)} leaves or {ctor.arity} fields")
        leaves, charge = _leaf_copies(leaves)
        region.outstanding_holes -= len(leaves) + len(nested)
        region.stats.bytes_allocated += charge + WORD * len(nested)
        region.stats.leaf_copies += len(leaves)
    if into is not None and not ctor.arity:
        cell, value = None, ctor.make()
        region.stats.bytes_allocated += WORD
    else:
        cell = value = region._new_cell(ctor)
        for i, v in zip(ctor.leaves, leaves):
            cell.slots[i] = v
        for i, c in nested:
            cell.slots[i] = c.make()
    if into is not None:  # a raw cell: any other target passed a generated allocator
        into.slots[key] = value
        region.outstanding_holes -= 1
    region.stats.cells_allocated += 1 + len(nested)
    return cell


# What an allocator does with a call that it does not build.
_GENERIC = "return _alloc_generic(region, ctor, into, index, leaves)"
# The allocator of one in-place constructor, which _compile completes.
_ALLOCATOR = """\
def alloc(region, into, index, leaves):
    hole = region.hole
    if not region.alive:
        {generic}
    if type(into) is CellRef:
        link = None
        if (index or into.ctor is not _INDIRECTION
                or into.region_id != region.region_id or into.slots[index] is not hole):
            {generic}
    else:
        link = host_fields.get(type(into))
        if link is None or not 0 <= index < len(link) or getattr(into, link[index]) is not hole:
            {generic}
    stats = region.stats
{take}
{build}
    stats.bytes_allocated += {size}
    stats.cells_allocated += 1
{holes}
    if link is None:
        into.slots[0] = obj
    else:
        setters[type(into)](into, link[index], obj)
    return {result}
"""


def _compile(ctor: CtorDescriptor, names: tuple[str, ...], registry: ShapeRegistry):
    """The allocator of ``ctor``, which builds in place with fields
    ``names``, generated from source at registration as ``dataclasses``
    generates an ``__init__``, with its field names, leaf positions, charges,
    setter and the nullary constructors of each ``Recursive`` field as
    constants. It builds into a live receiver or a hole of a host object of
    the region, given no leaves, one per leaf field, or one per field with
    ``...`` or a nullary constructor of its type at each ``Recursive`` one:
    a leaf of a type in ``_ONE_WORD`` is kept, any other goes through
    ``_leaf_copies``. Any other call goes, unchanged, to ``_alloc_generic``."""
    plain = registry.setters.get(ctor.make) is setattr
    fields = [f"v{i}" for i in range(ctor.arity)]  # the local that holds each field
    leaves = [fields[i] for i in ctor.leaves]
    n, kids = len(leaves), [fields[i] for i, _ in ctor.kids]
    every, each_leaf = ("".join(f"{v}, " for v in vs) for vs in (fields, leaves))
    copies = [
        f"    charge = {WORD * n}",
        *(
            f"    if type({v}) not in _ONE_WORD: ({v},), c = _leaf_copies(({v},)); "
            f"charge += c - {WORD}"
            for v in leaves
        ),
        f"    stats.leaf_copies += {n}",
    ]
    take = [f"{every}= {'hole, ' * ctor.arity}"] if fields else []
    take += ["if not leaves:", f"    region.outstanding_holes += {n}" if n else "    pass"]
    if leaves:
        take += [f"elif len(leaves) == {n}:", f"    {each_leaf}= leaves", *copies,
                 "    stats.bytes_allocated += charge"]
    nullaries = {}  # by name, each nullary constructor that a Recursive field may take
    if kids:
        take += [f"elif len(leaves) == {ctor.arity}:", f"    {every}= leaves"]
        for v, (_, kind) in zip(kids, ctor.kids):
            takes = {f"nullary{id(c)}": c for c in registry.shape(kind.type_id).ctors if not c.arity}
            nullaries.update(takes)
            tests = " and ".join([f"{v} is not ...", *(f"{v} is not {name}" for name in takes)])
            take += [f"    if {tests}:", f"        {_GENERIC}"]
        take += [
            *copies,
            f"    nested = {' + '.join(f'({v} is not ...)' for v in kids)}",
            *(f"    {v} = hole if {v} is ... else {v}.make()" for v in kids),
            f"    stats.bytes_allocated += charge + {WORD} * nested",
            "    stats.cells_allocated += nested",
            "    region.outstanding_holes -= nested",
        ]
    take += ["else:", f"    {_GENERIC}"]
    build = ["obj = new(make)" if names else "obj = make()"]
    for v, name in zip(fields, names):
        build.append(f"obj.{name} = {v}" if plain else f"put(obj, {name!r}, {v})")
    holes = ctor.arity - n - 1
    source = _ALLOCATOR.format(
        generic=_GENERIC,
        take="\n".join(f"    {line}" for line in take),
        build="\n".join(f"    {line}" for line in build),
        size=WORD * (1 + ctor.arity),
        holes=f"    region.outstanding_holes += {holes}" if holes else "",
        result="obj" if names else "None",
    )
    namespace = dict(
        globals(), ctor=ctor, make=ctor.make, new=object.__new__, put=object.__setattr__,
        host_fields=registry.host_fields, setters=registry.setters,
        **nullaries,
    )
    exec(source, namespace)
    return namespace["alloc"]


def _hole(region: Region, cell, index: int):
    """Where field ``index`` of ``cell`` is stored, once that field is a hole
    of live ``region``: the index into the slots of a raw cell or receiver,
    or the field name of a host object that a fill built."""
    if not region.alive:
        region._require_alive()
    if type(cell) is CellRef:
        if cell.region_id != region.region_id:
            raise region._foreign(cell, "cell")
        names, arity = None, len(cell.slots)
    else:
        try:
            names = region.registry.host_fields[type(cell)]
        except KeyError:
            raise TypeError(
                f"expected a CellRef or a host object built in place, "
                f"got {type(cell).__name__}"
            ) from None
        arity = len(names)
    if 0 <= index < arity:
        slot = cell.slots[index] if names is None else getattr(cell, names[index])
        if slot is region.hole:
            return index if names is None else names[index]
    what = repr(cell) if names is None else f"a {type(cell).__name__}"
    if not 0 <= index < arity:
        raise FieldIndexOutOfRange(f"field {index} out of range for {what} (arity {arity})")
    if type(slot) is Hole:  # another region's: a raw cell's region is checked above
        raise RegionMismatch(f"{what} of another region used in region {region.region_id}")
    raise DoubleFill(f"field {index} of {what} already written")


def write_field(region: Region, cell, index: int, value) -> None:
    """Write one hole of a ``CellRef``, or of a host object that a fill of
    this same region built (else RegionMismatch), forever, with a ``Leaf``
    or a cell. The field keeps a scalar payload as given and deep-copies
    any other, which raises DestinationInLeaf on a hole, region cell or
    handle inside it, and LeafTooDeep on one too deep to copy. It refers
    to a raw cell of this region (else RegionMismatch), and holds a
    receiver's value in its place. TypeError on anything else, an empty
    receiver, or a raw cell into a host object."""
    key = _hole(region, cell, index)
    if isinstance(value, Leaf):
        (value,), charge = _leaf_copies((value.payload,))
        region.stats.bytes_allocated += charge
        region.stats.leaf_copies += 1
    elif type(value) is CellRef:
        if value.ctor is _INDIRECTION and type(value.slots[0]) is Hole:
            raise TypeError(f"empty receiver {value!r} has no value to write")
        if value.region_id != region.region_id:
            raise region._foreign(value, "reference")
        if value.ctor is _INDIRECTION:
            value = value.slots[0]
        if type(value) is CellRef and type(cell) is not CellRef:
            raise TypeError(f"a {type(cell).__name__} cannot hold a region cell")
    else:
        raise TypeError(f"expected a CellRef or a Leaf, got {type(value).__name__}")
    if type(cell) is CellRef:
        cell.slots[key] = value
    else:
        region.registry.setters[type(cell)](cell, key, value)
    region.outstanding_holes -= 1


_ON_PATH = object()  # value of a cell while its children are decoded


def _scan_hosts(region: Region, values) -> None:
    """Raise IncompleteRead if a host object among ``values``, or reached
    from one through the fields of host objects, holds ``region.hole``."""
    host_fields = region.registry.host_fields
    seen: set[int] = set()
    stack = list(values)
    while stack:
        v = stack.pop()
        names = host_fields.get(type(v))
        if names is None or id(v) in seen:
            continue
        seen.add(id(v))
        for n in names:
            x = getattr(v, n)
            if x is region.hole:
                raise IncompleteRead(f"hole at field {n!r} of a {type(v).__name__}")
            stack.append(x)


def read_value(region: Region, root: CellRef):
    """Decode the value rooted at raw cell ``root`` back into a host value.

    A receiver holding anything but a raw cell returns it at once. Otherwise
    an iterative depth-first walk in slot order; raises IncompleteRead on
    any reachable hole and CyclicStructure if a cell is reachable from
    itself, whichever it meets first. A cell reached twice decodes to one
    object; any other slot content is the finished value and is returned as
    stored, not re-copied. Work and memory are proportional to the value
    read, not to the region. While the region has outstanding holes, the
    host objects returned or met in a slot are also scanned for one
    (IncompleteRead); with none outstanding, no hole can be reached.
    """
    if not isinstance(root, CellRef):
        raise TypeError(f"read_value expects a CellRef, got {type(root).__name__}")
    if root.region_id != region.region_id:
        raise region._foreign(root, "cell")
    hosts = [] if region.outstanding_holes else None  # what to scan for a hole
    if root.ctor is _INDIRECTION:
        content = root.slots[0]
        if content is region.hole:
            raise IncompleteRead(f"hole at field 0 of receiver cell {root.handle}")
        if type(content) is not CellRef:
            if hosts is not None:
                _scan_hosts(region, (content,))
            return content
        root = content
    values: dict = {}  # by handle: _ON_PATH, then the decoded value
    # Entries: a cell to enter, (cell, index) of a hole, in slot order, or
    # (cell, None) to complete an entered cell once its children are done.
    stack: list = [root]
    while stack:
        cell = stack.pop()
        if type(cell) is CellRef:
            if cell.handle in values:
                if values[cell.handle] is _ON_PATH:
                    raise CyclicStructure(f"cell {cell.handle} is reachable from itself")
                continue
            slots = cell.slots
            base = len(stack)
            for idx in range(len(slots) - 1, -1, -1):
                slot = slots[idx]
                if type(slot) is CellRef:
                    stack.append(slot)
                elif slot is region.hole:
                    stack.append((cell, idx))
                elif hosts is not None:
                    hosts.append(slot)
            if len(stack) > base:
                values[cell.handle] = _ON_PATH
                stack.insert(base, (cell, None))
                continue
        else:
            cell, idx = cell
            if idx is not None:
                raise IncompleteRead(
                    f"hole at field {idx} of {cell.ctor.name} cell {cell.handle}"
                )
        values[cell.handle] = cell.ctor.make(
            *[values[s.handle] if type(s) is CellRef else s for s in cell.slots]
        )
    if hosts:
        _scan_hosts(region, hosts)
    return values[root.handle]


def region_stats(region: Region) -> AllocStats:
    """Snapshot of the allocation counters."""
    return replace(region.stats)
