"""Arena heap of immovable, tagged, write-once cells.

A region counts the cells and bytes allocated in it but holds none of them:
a cell lives as long as something refers to it. A region is one slotted
object, and its counters are its own slots, which ``region_stats`` copies
into an ``AllocStats`` snapshot. A cell is one constructor
application: a constructor plus a fixed number of field slots, each of which
starts as a hole and is written exactly once, either with a reference to
another cell of the same region or with a leaf payload that is deep-copied
into the region at write time. A hole, a region cell and a linear handle
each refuse that copy (``DestinationInLeaf``), at any depth in the payload.

A raw cell is a single object, a ``CellRef``: its region, its constructor
and its slots. It is its own name, as a region is: neither is numbered.
Cells never move, so a cell stays valid for the region's whole lifetime.

A field, of a raw cell or of a host object, holds what a host object's
field holds. A hole that a builder operation opened holds its ``Dest``, its
one writer, and any other its region's own ``Hole``, ``region.hole`` (so no
other region can write it). A written field holds a raw cell of the region,
which it refers to, or the finished value itself: a leaf's payload (the
region's copy), a nullary constructor's ``make()``, or the value of a filled
receiver, never a raw cell in a host object's field.

A root receiver, whose one hole takes an incomplete's whole value, is one
``Receiver``: its region, that one field, and the builder's union-find node
of the incomplete's lineage, of which it is the root. It stands for what it
holds: ``write_field`` stores that value in its place.
Written into a receiver or into a host object, a constructor that builds in
place (see ``shapes``) is allocated as its final host object, its
``__init__`` never run, each field written with the setter the registry
records for its class; it is charged exactly as a raw cell. The function
generated for each such constructor (``_compile``) is its whole fill, given
the builder ``Dest`` of the hole, which is defined here for that reason: a
fill is one region call, and its ``Dest`` is the one name of its hole.

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
import linecache
from dataclasses import dataclass

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
    UseAfterConsume,
)
from .shapes import (
    DEFAULT_REGISTRY,
    CtorDescriptor,
    FieldKind,
    LeafType,
    Recursive,
    ShapeRegistry,
)

WORD = 8


class _NotALeaf:
    """What no leaf may hold: deep-copying one raises DestinationInLeaf. A
    copy or a pickle would be a second handle of the same hole, cell or
    count, so it raises TypeError."""

    __slots__ = ()

    def __deepcopy__(self, memo):
        raise DestinationInLeaf(f"a leaf payload cannot hold {self!r}")

    def __reduce_ex__(self, protocol):
        raise TypeError(f"{type(self).__name__} cannot be copied or pickled")


# The marker in every unwritten field; each region has its own.
Hole = type("Hole", (_NotALeaf,), {"__repr__": lambda self: "HOLE", "__slots__": ()})

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


def _minted_only_by(operations: str):
    """The ``__init__`` of a handle that only ``operations`` mint, with
    ``object.__new__`` and one store per slot: a call raises TypeError."""

    def __init__(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is minted only by {operations}, not called")

    return __init__


class CellRef(_NotALeaf):
    """One cell of one region: its ``Region``, its constructor and its
    field slots. Minted only by the operations that account for it.

    Compared and hashed by identity; ``handle`` is ``id(cell)``.
    """

    __slots__ = ("region", "ctor", "slots")
    __init__ = _minted_only_by("alloc_hollow, alloc and into_incomplete")

    @property
    def handle(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        return f"<CellRef {self.ctor.name} at {id(self):#x}>"


class Receiver(_NotALeaf):
    """The root of one value, and of its incomplete's lineage: its
    ``Region``; ``value``, its one field, which ``read_value`` returns and
    ``write_field`` stores where the receiver is written; and the builder's
    union-find node of the holes the value owes. ``parent`` is None on a
    root; ``holes``, meaningful on a root only, counts the lineage's live
    destinations (``fill_comp`` adds a child's count to the parent's and
    links the child's root under it); ``type_id`` is the type of what filled
    ``value``, None for a leaf or while empty.

    Minted only by the operations that account for it; compared and hashed
    by identity.
    """

    __slots__ = ("region", "value", "parent", "holes", "type_id")
    __init__ = _minted_only_by("alloc, into_incomplete and _alloc_receiver")

    def find(self) -> "Receiver":
        node = self
        while node.parent is not None:
            node = node.parent
        # path compression
        walk = self
        while walk.parent is not None:
            walk.parent, walk = node, walk.parent
        return node


class Dest(_NotALeaf):
    """The builder's handle to exactly one unfilled hole of one region;
    consumable exactly once (see ``builder``), and minted only by the
    operations that open that hole.

    ``region`` is the hole's region; ``cell`` is a region cell, a receiver
    or a host object under construction; ``kind`` is None exactly when the
    hole is a receiver's; ``lineage`` is a receiver whose lineage counts it.
    """

    __slots__ = ("region", "cell", "index", "kind", "lineage", "alive")
    __init__ = _minted_only_by("alloc and fill (alloc_hollow into a Dest)")

    def __repr__(self) -> str:
        state = "live" if self.alive else "consumed"
        cell = self.cell
        where = cell.ctor.name if isinstance(cell, CellRef) else type(cell).__name__
        return f"<Dest cell={where}[{self.index}] {state}>"


def _no_region(region) -> TypeError:
    return TypeError(f"expected a Region, got {type(region).__name__}")


def _check_fillable(kind: FieldKind | None, type_id: str | None, what: str) -> None:
    """Raise UnknownCtor unless a value of type ``type_id`` (None for a
    leaf), made by ``what``, may fill a hole of ``kind`` (None for any)."""
    # Registration is checked by alloc_hollow, before it changes anything.
    if type_id is None:
        if isinstance(kind, Recursive):
            raise UnknownCtor(f"hole expects type {kind.type_id!r}, not a leaf")
    elif isinstance(kind, LeafType):
        raise UnknownCtor(
            f"hole expects a leaf of {kind.type_id!r}; {what} cannot fill it"
        )
    elif isinstance(kind, Recursive) and kind.type_id != type_id:
        raise UnknownCtor(
            f"hole expects type {kind.type_id!r}, {what} builds {type_id!r}"
        )


@dataclass
class AllocStats:
    """A snapshot of a region's monotone allocation counters, as
    ``region_stats`` returns it."""

    cells_allocated: int = 0
    bytes_allocated: int = 0
    leaf_copies: int = 0
    receiver_cells: int = 0


class Region:
    """The scope of a set of immovable cells: counts and checks them, while
    the host heap holds each one and reclaims it once unreferenced. Its
    counters are its own slots, which every charge bumps in place:
    ``cells_allocated`` (constructor cells, stored nullary ones included),
    ``receiver_cells``, ``leaf_copies`` (leaf fields written) and
    ``bytes_allocated`` (the words of every cell and each leaf's charge)."""

    __slots__ = (
        "hole", "registry", "outstanding_holes", "cells_allocated", "bytes_allocated",
        "leaf_copies", "receiver_cells", "alive", "_tokens_alive", "_incompletes_alive",
    )

    def __init__(self, registry: ShapeRegistry) -> None:
        if not isinstance(registry, ShapeRegistry):
            raise TypeError(f"expected a ShapeRegistry, got {type(registry).__name__}")
        self.hole = Hole()
        self.registry = registry
        self.outstanding_holes = self.cells_allocated = self.bytes_allocated = 0
        self.leaf_copies = self.receiver_cells = 0
        self.alive = True
        # Live tokens and incompletes minted against this region, counted
        # by the builder for its scope audit.
        self._tokens_alive = self._incompletes_alive = 0

    def __repr__(self) -> str:
        return (
            f"<Region at {id(self):#x}: "
            f"{self.cells_allocated + self.receiver_cells} cells, "
            f"{self.outstanding_holes} holes>"
        )

    # -- internal helpers ---------------------------------------------------

    def _require_alive(self):
        if not self.alive:
            raise RegionClosed(f"{self!r} is closed")

    def _alloc_receiver(self) -> Receiver:
        """Allocate and charge an empty root receiver (not a user cell)."""
        self.receiver_cells += 1
        self.bytes_allocated += 2 * WORD
        self.outstanding_holes += 1
        receiver = object.__new__(Receiver)
        receiver.region = self
        receiver.value = self.hole
        receiver.parent = None
        receiver.holes = 0
        receiver.type_id = None
        return receiver

    def _foreign(self, what: str) -> RegionMismatch:
        return RegionMismatch(f"{what} of another region used in {self!r}")

    def _close(self) -> None:
        self.alive = False

    def copy_value(self, value, type_id: str) -> Receiver:
        """Structurally copy a complete host value into fresh region cells.

        Returns an uncharged receiver, a lineage root that owes nothing and
        was filled by ``type_id``, whose hole holds the copy, written
        exactly as the fills of a build would write it: host objects for a
        type that builds in place, else raw cells. Leaf fields become
        region-owned leaf copies; a node reached twice is copied twice.
        Iterative depth-first; a node reachable from itself raises
        CyclicStructure. A copy that fails part way, as on a leaf that holds a
        hole or a handle, is unreachable and owes no writes, so its holes and
        charges are taken back out of ``outstanding_holes`` and the counters.
        """
        self._require_alive()
        saved = (self.outstanding_holes, self.cells_allocated, self.bytes_allocated,
                 self.leaf_copies, self.receiver_cells)
        holder = object.__new__(Receiver)  # uncharged
        holder.region, holder.value, holder.parent, holder.holes = self, self.hole, None, 0
        holder.type_id = type_id
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
                if any(parts[i] is ... for i in ctor.leaves):
                    raise TypeError("... marks a hole; a copied leaf cannot be one")
                args = [... if type(k) is Recursive else parts[i] for i, k in ctor.places]
                cell = alloc_hollow(self, ctor, parent, idx, args)
                if not ctor.kids:  # nothing below it
                    continue
                on_path.add(id(node))
                stack.append((None, None, node, None))
                for i, kind in reversed(ctor.kids):
                    stack.append((cell, i, parts[i], kind.type_id))
        except BaseException:
            (self.outstanding_holes, self.cells_allocated, self.bytes_allocated,
             self.leaf_copies, self.receiver_cells) = saved
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
                    raise TypeError("... is a hole only in the node a fill writes")
                try:
                    v = copy.deepcopy(v)
                except RecursionError:
                    raise LeafTooDeep("a leaf payload is nested too deep to copy") from None
            charge += _nominal_size(v)
        copies.append(v)
    return copies, charge


# -- public operations -------------------------------------------------------


def region_new(*, registry: ShapeRegistry | None = None) -> Region:
    """Create an empty region whose constructors come from ``registry``, by
    default ``DEFAULT_REGISTRY`` (TypeError unless it is a ``ShapeRegistry``)."""
    return Region(DEFAULT_REGISTRY if registry is None else registry)


def alloc_hollow(region: Region, ctor: CtorDescriptor, into=None, index: int = 0, args=()):
    """Allocate a cell for the constructor context ``ctor(*args)``, spelled
    as ``builder.fill`` documents: ``args`` none or one per field, ``...`` a
    hole; a leaf kept, copied, refused and charged as ``write_field`` does a
    ``Leaf``'s payload; at a ``Recursive`` field a registered nullary
    constructor or a complete nested context (else TypeError, or UnknownCtor
    for a descriptor of another type or an unregistered one). Each node is
    built, stored and charged as its own fill would be. A ``region`` that is
    no ``Region`` or a ``ctor`` that is no descriptor raises TypeError.

    With ``into``, the new cell is also written into hole ``index`` of
    ``into``: a raw cell, a receiver, or a host object that a fill of this
    same region built (else RegionMismatch). Every check, at every depth,
    runs before anything changes: the target's first, then the context's,
    depth first in declaration order, each leaf copied where it stands. A
    nullary constructor is stored as its ``make()``, charged as one cell,
    and None is returned. Otherwise the new cell is returned: a raw cell
    into a raw cell or for a constructor that does not build in place, else
    its host object; a nested node is built as its parent is. A host
    object's field takes no raw cell (TypeError).

    An ``into`` that is a ``Dest`` names its region and its hole alone,
    ``index`` unused, and the call is that hole's fill: a consumed ``Dest``
    raises UseAfterConsume, then the hole's kind is checked (UnknownCtor, or
    TypeError for no descriptor), a ``Dest`` of another region is refused
    as a raw write into its cell is (RegionMismatch), and once the cell is
    written the ``Dest`` is consumed, its lineage root counts the holes
    opened and closed, and the ``Dest``s of the new cell's holes are
    returned as ``fill`` returns them.
    """
    try:
        compiled = region.registry.allocators[ctor]
    except KeyError:
        compiled = None
    except AttributeError:  # from 3.11 a try costs nothing until it catches
        raise _no_region(region) from None
    if compiled is None or type(into) is not Dest or into.region is not region:
        return _alloc_generic(region, ctor, into, index, args)
    return compiled(region, into, args)


def _alloc_generic(region: Region, ctor: CtorDescriptor, into, index: int, args):
    """``alloc_hollow``'s checks, in order, and what it builds and returns,
    for every call without a ``Dest`` and every fill that no generated fill
    builds: a context of any depth is walked with a stack, not by
    recursion."""
    registry = region.registry
    dest = None
    if type(into) is Dest:
        dest, into, index = into, into.cell, into.index
        if not dest.alive:
            raise UseAfterConsume("alloc_hollow on an already-consumed Dest")
    want = dest and dest.kind  # what a fill's hole takes; None for anything
    try:
        if want is not None and (type(want) is not Recursive or want.type_id != ctor.type_id):
            _check_fillable(want, ctor.type_id, f"constructor {ctor.name}")
    except AttributeError:  # no descriptor; resolve refuses one at a receiver
        raise TypeError(f"fill expects a CtorDescriptor, got {type(ctor).__name__}") from None
    if into is None:
        region._require_alive()
        layout = registry.resolve(ctor)
    else:
        key = _hole(region, dest or into, index)
        layout = registry.resolve(ctor)
        if layout is None and type(into) is not CellRef and type(into) is not Receiver:
            raise TypeError(f"a {type(into).__name__} cannot hold a region cell")
    hole = region.hole
    top = [hole]  # the one field the context's root goes in
    nodes = []  # (ctor, its field values, the field values and index that take it), parents first
    charge = cells = copies = 0
    holes = -1 if into is not None else 0  # the hole the root fills
    # Fields still to check, next last: (constructor, its field values,
    # index, kind, argument); the root's kind is None.
    todo = [(None, top, 0, None, (ctor, *args))]
    while todo:
        parent, fields, i, kind, a = todo.pop()
        if a is ... and fields is nodes[0][1]:  # a hole of the root
            continue
        if kind is not None and type(kind) is not Recursive:  # a leaf field
            (fields[i],), c = _leaf_copies((a,))
            charge += c
            copies += 1
            holes -= 1
            continue
        if type(a) is CtorDescriptor:
            c, sub = a, None
        elif type(a) is tuple and a and type(a[0]) is CtorDescriptor:
            c, sub = a[0], a[1:]
        else:  # a nested node has no hole
            raise TypeError(
                f"field {i} of {parent.name} takes a constructor, a context or, in the root, ..."
            )
        if kind is not None:
            if c.type_id != kind.type_id or sub is None and c.arity:
                raise UnknownCtor(
                    f"field {i} of {parent.name} takes a nullary {kind.type_id} or a context"
                )
            registry.resolve(c)
            if sub is not None and len(sub) != c.arity:
                raise TypeError(f"a nested {c.name} takes one value per field, {c.arity}")
        elif len(sub) not in (0, c.arity):
            raise TypeError(f"{c.name} takes no arguments or one per field, {c.arity}")
        cells += 1
        charge += WORD * (1 + c.arity)
        holes += c.arity - (kind is not None)
        if not c.arity and (kind is not None or into is not None):
            fields[i] = c.make()
            continue
        node = [hole] * c.arity
        nodes.append((c, node, fields, i))
        if sub:
            todo.extend((c, node, j, k, v) for (j, k), v in reversed(list(zip(c.places, sub))))
    # Nothing is refused past this point. A fill's holes hold their Dests. A
    # node is built as the root's target takes it: in place, else raw cells.
    dests = []
    if dest is not None:
        lineage = dest.lineage.find()
        for i, k in ctor.places:  # a root with fields is nodes[0]
            if not args or args[i] is ...:
                nodes[0][1][i] = d = object.__new__(Dest)
                d.region, d.index, d.kind, d.lineage, d.alive = region, i, k, lineage, True
                dests.append(d)
    in_place = into is not None and layout is not None and type(into) is not CellRef
    for c, node, fields, i in reversed(nodes):  # children first
        if in_place:
            obj = object.__new__(c.make)
            put = registry.setters[c.make]
            for name, v in zip(registry.host_fields[c.make], node):
                put(obj, name, v)
        else:
            obj = object.__new__(CellRef)
            obj.region, obj.ctor, obj.slots = region, c, node
        fields[i] = obj
    region.bytes_allocated += charge
    region.cells_allocated += cells
    region.leaf_copies += copies
    region.outstanding_holes += holes
    value = top[0]
    if into is None:
        return value
    _store(region, into, key, value)
    if dest is None:
        return value if ctor.arity else None
    dest.alive = False
    if want is None:  # a receiver's hole
        lineage.type_id = ctor.type_id
    lineage.holes += holes
    for d in dests:
        d.cell = value
    return dests[0] if len(dests) == 1 else tuple(dests) or None


# What a fill does with a call that it does not build.
_GENERIC = "return _alloc_generic(region, ctor, dest, 0, args)"
# The fill of one in-place constructor, given the Dest of its hole, and its
# plug, which _compile completes. Each arm of {take} sets the fields' locals
# (``...`` a hole) and what the node and any nested ones are charged; {plug}
# does the same or returns None; {dests} returns the Dests {build} stores.
_ALLOCATOR = """\
def fill(region, dest, args):
    kind = dest.kind
    if not dest.alive or kind is not None and (type(kind) is not Recursive or kind.type_id != type_id):
        {generic}
    into = dest.cell
    if not region.alive or type(into) is CellRef:
        {generic}
    name = None if type(into) is Receiver else host_fields[type(into)][dest.index]
{take}
    lineage = dest.lineage
    if lineage.parent is not None:
        lineage = lineage.find()
{build}
    region.bytes_allocated += charge
    region.cells_allocated += cells
    if copies:
        region.leaf_copies += copies
    region.outstanding_holes += holes
    if name is None:
        into.value = obj
    else:
        setters[type(into)](into, name, obj)
    dest.alive = False
    if kind is None:
        lineage.type_id = type_id
    lineage.holes += holes
{dests}
"""
_PLUG = """
def plug(leaves):
{plug}
{build}
    return obj, charge, cells, copies
"""


def _compile(ctor: CtorDescriptor, names: tuple[str, ...], registry: ShapeRegistry):
    """The fill of ``ctor``, which builds in place with fields ``names``,
    and its plug or None, generated from source at registration as
    ``dataclasses`` generates an ``__init__``, with its field names and
    kinds, charges and setter, the nullary constructors of each
    ``Recursive`` field and the plugs of that field's type as constants.

    The fill is given a ``Dest`` of its region, which only the region's
    fills mint, so its cell and index name a hole they opened, which holds
    it while it is live. It checks that the ``Dest`` is live, that the hole
    takes ``ctor``, that the region is open and that the hole is no raw
    cell's. It builds in an arm of constants given no arguments, else in
    one arm for one per field: ``...``, a leaf (kept if its type is in
    ``_ONE_WORD``, else through ``_leaf_copies``), a nullary constructor or
    a context that a plug builds. It makes the ``Dest`` of each field left a
    hole, which that field then holds; once the node is written it consumes
    the Dest and counts the holes on its lineage root. The plug builds the
    node of a complete context ``(ctor, *args)`` nested in a parent's fill,
    with its charges, and changes nothing, or returns None unless its leaves
    are scalars and its ``Recursive`` fields nullary constructors, so
    ``ctor`` has none when a field's type has no nullary constructor. Any
    fill that the generated code or a plug does not build goes, unchanged,
    to ``_alloc_generic``, as does every call without a ``Dest`` of the
    region."""
    fields = [f"v{i}" for i in range(ctor.arity)]  # the local that holds each field
    leaves = [fields[i] for i in ctor.leaves]
    n, size = len(leaves), WORD * (1 + ctor.arity)
    charged = size + WORD * n  # the node and its leaves' words

    def assign(targets, value):
        return [f"{''.join(f'{v}, ' for v in targets)}= {value}"] if targets else []

    # A nested leaf is kept as given, or the plug leaves its context.
    plug = [f"if len(leaves) != {1 + ctor.arity}:", "    return None",
            *assign(["_", *fields], "leaves"), f"charge, cells, copies = {charged}, 1, {n}"]
    plug += [line for v in leaves for line in (
        f"if type({v}) not in _ONE_WORD:",
        f"    if type({v}) is not bytes and type({v}) is not str: return None",
        f"    charge += (len({v}) + {WORD - 1}) // {WORD} * {WORD}",
    )]
    given, constants = [], {}  # the argument arm's checks of each field, Recursive ones first
    for j, (i, kind) in enumerate(ctor.kids):
        v = fields[i]
        ctors = registry.shape(kind.type_id).ctors
        nullaries = {f"nullary{j}_{t}": c for t, c in enumerate(ctors) if not c.arity}
        constants.update(nullaries)
        constants[f"plugs{j}"] = registry.plugs.setdefault(kind.type_id, {})
        nullary = " or ".join(f"{v} is {name}" for name in nullaries)
        made = [f"{v} = {v}.make()", f"charge += {WORD}; cells += 1"]
        given += [
            f"if {v} is ...:", "    holes += 1",
            *([f"elif {nullary}:", *(f"    {line}" for line in made)] if nullary else ()),
            f"elif type({v}) is tuple and {v} and (p := plugs{j}.get(id({v}[0]))) "
            f"and (got := p({v})):",
            f"    {v}, c, m, k = got", "    charge += c; cells += m; copies += k",
            "else:", f"    {_GENERIC}",
        ]
        if plug is not None:  # None once a field's type has no nullary constructor
            plug = [*plug, f"if not ({nullary}):", "    return None", *made] if nullary else None
    given += [line for v in leaves for line in (
        f"if type({v}) not in _ONE_WORD:",
        f"    if {v} is ...: holes += 1; charge -= {WORD}; copies -= 1",
        f"    else: ({v},), c = _leaf_copies(({v},)); charge += c - {WORD}",
    )]
    take = [
        "if not args:",
        *(f"    {line}" for line in assign(fields, "..., " * ctor.arity)),
        f"    charge, cells, copies, holes = {size}, 1, 0, {ctor.arity - 1}",
        f"elif len(args) == {ctor.arity}:",
        *(f"    {line}" for line in assign(fields, "args")),
        f"    charge, cells, copies, holes = {charged}, 1, {n}, -1",
        *(f"    {line}" for line in given),
        "else:", f"    {_GENERIC}",
    ]

    # A fill's Dest of each field left a hole, which it stores there, and what
    # it returns: the one or none, all, all but one or some, as far as the arity reaches.
    ds = [f"d{i}" for i in range(ctor.arity)]
    every = "".join(f"{d}, " for d in ds)
    but = [f"({''.join(f'{e}, ' for e in ds if e != d)}) if {d} is None else " for d in ds]
    mint = [line for i in range(ctor.arity) for line in (
        f"d{i} = None",
        f"if v{i} is ...: v{i} = d{i} = new(Dest); d{i}.region = region; d{i}.cell = obj; "
        f"d{i}.index = {i}; d{i}.kind = kind{i}; d{i}.lineage = lineage; d{i}.alive = True",
    )]
    dests = [
        f"if holes < 1: return {' or '.join(ds) or None}",
        f"if holes == {ctor.arity - 1}: return {every}",
        f"if holes == {ctor.arity - 2}: return {''.join(but)}None",
        f"return tuple([d for d in ({every}) if d is not None])",
    ][: max(1, ctor.arity)]
    plain = registry.setters.get(ctor.make) is setattr
    made = "obj = new(make)" if names else "obj = make()"
    stores = [
        f"obj.{name} = {v}" if plain else f"put(obj, {name!r}, {v})"
        for v, name in zip(fields, names)
    ]
    indent = lambda lines: "\n".join(f"    {line}" for line in lines)  # noqa: E731
    namespace = dict(
        globals(), ctor=ctor, type_id=ctor.type_id, make=ctor.make, new=object.__new__,
        put=object.__setattr__, host_fields=registry.host_fields, setters=registry.setters,
        **{f"kind{i}": k for i, k in ctor.places}, **constants,
    )
    fill = _define("fill", ctor, namespace, _ALLOCATOR.format(
        generic=_GENERIC, take=indent(take), build=indent([made, *mint, *stores]),
        dests=indent(dests),
    ))
    if plug is not None:
        plug = _define("plug", ctor, namespace, _PLUG.format(
            plug=indent(plug), build=indent([made, *stores])))
    return fill, plug


def _define(what: str, ctor: CtorDescriptor, namespace: dict, source: str):
    """Define the function ``what`` of ``source`` in ``namespace``, compiled
    under a filename that names it and ``ctor``, such as ``<destpass fill
    list.cons>`` (numbered if another source has that name), with its lines
    in ``linecache`` for tracebacks and ``inspect``."""
    lines, label = source.splitlines(True), f"{ctor.type_id}.{ctor.name}"
    filename, n = f"<destpass {what} {label}>", 1
    while linecache.cache.setdefault(filename, (len(source), None, lines, filename))[2] != lines:
        n += 1
        filename = f"<destpass {what} {label} #{n}>"
    exec(compile(source, filename, "exec"), namespace)
    namespace[what].__qualname__ = f"{label}.{what}"
    return namespace[what]


def _hole(region: Region, cell, index: int):
    """Where the hole that ``cell`` names is stored (a slot index or a host
    object's field name) once it is a hole of live ``region``: a live
    ``Dest``'s own, or raw hole ``index`` (TypeError if a Dest holds it)."""
    try:
        if not region.alive:
            region._require_alive()
        if type(cell) is Dest:
            if cell.region is not region:
                raise region._foreign("a Dest")
            if not cell.alive:
                raise UseAfterConsume("a write through an already-consumed Dest")
            cell, index = cell.cell, cell.index
            if type(cell) is CellRef or type(cell) is Receiver:
                return index
            return region.registry.host_fields[type(cell)][index]
        if type(cell) is CellRef or type(cell) is Receiver:
            if cell.region is not region:
                raise region._foreign("cell")
            names = None
            slots = cell.slots if type(cell) is CellRef else (cell.value,)
            arity = len(slots)
        else:
            names = region.registry.host_fields.get(type(cell))
            if names is None:
                raise TypeError(
                    f"expected a CellRef or a host object built in place, "
                    f"got {type(cell).__name__}"
                )
            arity = len(names)
    except AttributeError:  # from 3.11 a try costs nothing until it catches
        raise _no_region(region) from None
    try:
        if 0 <= index < arity:
            slot = slots[index] if names is None else getattr(cell, names[index])
            if slot is region.hole:
                return index if names is None else names[index]
    except TypeError:  # from 3.11 a try costs nothing until it catches
        raise TypeError(f"a field index is an int, not a {type(index).__name__}") from None
    what = repr(cell) if names is None else f"a {type(cell).__name__}"
    if not 0 <= index < arity:
        raise FieldIndexOutOfRange(f"field {index} out of range for {what} (arity {arity})")
    if type(slot) is Dest and slot.region is region:
        raise TypeError(f"field {index} of {what} is the hole of {slot!r}; only it writes there")
    if type(slot) is Hole or type(slot) is Dest:  # another region's: a raw cell's is checked above
        raise region._foreign(what)
    raise DoubleFill(f"field {index} of {what} already written")


def _store(region: Region, cell, key, value) -> None:
    """Write ``value`` where ``_hole`` found the hole of ``cell``."""
    if type(cell) is CellRef:
        cell.slots[key] = value
    elif type(cell) is Receiver:
        cell.value = value
    else:
        region.registry.setters[type(cell)](cell, key, value)


def write_field(region: Region, cell, index: int, value) -> None:
    """Write one hole of this region forever (else RegionMismatch), with a
    ``Leaf`` or a cell: a live ``Dest``'s (UseAfterConsume once consumed;
    first of all, UnknownCtor for a ``Leaf`` into a ``Recursive`` hole), which the write
    consumes and counts closed on its lineage root, or field ``index`` of a
    raw cell, a receiver or a host object that no ``Dest`` holds (else
    TypeError). The field keeps a scalar payload as given and deep-copies
    any other, which raises DestinationInLeaf on a hole, region cell or
    handle inside it, and LeafTooDeep on one too deep to copy. It refers to
    a raw cell of this region (else RegionMismatch), and holds a receiver's
    value in its place. TypeError on anything else, an empty receiver, a
    raw cell into a host object, or an index that is no int."""
    if type(cell) is Dest and type(cell.kind) is Recursive and isinstance(value, Leaf):
        _check_fillable(cell.kind, None, "a leaf")  # first, as a fill checks its kind
    key = _hole(region, cell, index)
    dest, cell = (cell, cell.cell) if type(cell) is Dest else (None, cell)
    if isinstance(value, Leaf):
        value = value.payload
        if type(value) in _ONE_WORD:
            charge = WORD
        else:
            (value,), charge = _leaf_copies((value,))
        region.bytes_allocated += charge
        region.leaf_copies += 1
    elif type(value) is CellRef or type(value) is Receiver:
        if type(value) is Receiver and isinstance(value.value, (Hole, Dest)):
            raise TypeError(f"empty receiver {value!r} has no value to write")
        if value.region is not region:
            raise region._foreign("reference")
        if type(value) is Receiver:
            value = value.value
        if type(value) is CellRef and type(cell) is not CellRef and type(cell) is not Receiver:
            raise TypeError(f"a {type(cell).__name__} cannot hold a region cell")
    else:
        raise TypeError(f"expected a CellRef or a Leaf, got {type(value).__name__}")
    _store(region, cell, key, value)
    region.outstanding_holes -= 1
    if dest is not None:
        dest.alive = False
        lineage = dest.lineage if dest.lineage.parent is None else dest.lineage.find()
        lineage.holes -= 1


_ON_PATH = object()  # value of a cell while its children are decoded


def _scan_hosts(region: Region, values) -> None:
    """Raise IncompleteRead if a host object among ``values``, or reached
    from one through host objects' fields, holds ``region.hole`` or a Dest."""
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
            if x is region.hole or type(x) is Dest:
                raise IncompleteRead(f"hole at field {n!r} of a {type(v).__name__}")
            stack.append(x)


def read_value(region: Region, root: CellRef | Receiver):
    """Decode the value rooted at raw cell or receiver ``root`` back into a
    host value.

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
    if not isinstance(root, (CellRef, Receiver)):
        raise TypeError(f"read_value expects a CellRef, got {type(root).__name__}")
    if not isinstance(region, Region):
        raise _no_region(region)
    if root.region is not region:
        raise region._foreign("cell")
    hosts = [] if region.outstanding_holes else None  # what to scan for a hole
    if type(root) is Receiver:
        content = root.value
        if content is region.hole or type(content) is Dest:
            raise IncompleteRead(f"hole at field 0 of receiver {root!r}")
        if type(content) is not CellRef:
            if hosts is not None:
                _scan_hosts(region, (content,))
            return content
        root = content
    values: dict = {}  # by cell: _ON_PATH, then the decoded value
    # Entries: a cell to enter, (cell, index) of a hole, in slot order, or
    # (cell, None) to complete an entered cell once its children are done.
    stack: list = [root]
    while stack:
        cell = stack.pop()
        if type(cell) is CellRef:
            if cell in values:
                if values[cell] is _ON_PATH:
                    raise CyclicStructure(f"{cell!r} is reachable from itself")
                continue
            slots = cell.slots
            base = len(stack)
            for idx in range(len(slots) - 1, -1, -1):
                slot = slots[idx]
                if type(slot) is CellRef:
                    stack.append(slot)
                elif slot is region.hole or type(slot) is Dest:
                    stack.append((cell, idx))
                elif hosts is not None:
                    hosts.append(slot)
            if len(stack) > base:
                values[cell] = _ON_PATH
                stack.insert(base, (cell, None))
                continue
        else:
            cell, idx = cell
            if idx is not None:
                raise IncompleteRead(f"hole at field {idx} of {cell!r}")
        values[cell] = cell.ctor.make(
            *[values[s] if type(s) is CellRef else s for s in cell.slots]
        )
    if hosts:
        _scan_hosts(region, hosts)
    return values[root]


def region_stats(region: Region) -> AllocStats:
    """A new snapshot of the region's allocation counters."""
    if not isinstance(region, Region):
        raise _no_region(region)
    return AllocStats(
        cells_allocated=region.cells_allocated, bytes_allocated=region.bytes_allocated,
        leaf_copies=region.leaf_copies, receiver_cells=region.receiver_cells,
    )
