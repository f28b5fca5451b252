"""Top-down data construction through write-once destinations.

The API follows one discipline: tokens, destinations, and incompletes are
*linear* — each accepts exactly one consuming operation. The host language
cannot enforce that statically, so every linear value carries a liveness
flag, every consuming operation checks and flips it, and ``with_region``
audits at scope exit that nothing live was dropped (else ``LinearityLeak``).
Each operation first admits every handle it takes: TypeError for a wrong
type, ``UseAfterConsume`` once consumed, ``RegionClosed`` once its region is
closed, for once ``with_region`` has closed a region and read its counts, no
operation may change them. A refused call changes nothing, so violations
never corrupt the region.

Besides the flags, the ledger is one hole count per lineage (``_Lineage``)
and two tallies on the region, of live tokens and live incompletes. Live
destinations need no tally of their own: every unfilled hole of a builder
region has exactly one live ``Dest``, so the region's ``outstanding_holes``
counts them.

Handles are minted with ``object.__new__`` and one store per slot, as the
generated fill mints its ``Dest``s (see ``region``), and only by the
operations that account for them: calling ``Dest``, ``Incomplete`` or
``CellRef``, or copying or pickling any handle, raises TypeError;
``Token(region)`` is public, and counts itself. A live incomplete's lineage
is always a root: only ``fill_comp`` links a root under another, and it
consumes the incomplete whose root that was. So only a destination's
lineage may need ``find``.

Consuming operations:

==============  =====================================================
value           consumed by
==============  =====================================================
Token           alloc, into_incomplete, token_consume, token_dup2
Dest            fill, fill_leaf, fill_comp (as the target)
Incomplete      map_b, from_incomplete_, from_incomplete,
                fill_comp (as the child)
==============  =====================================================

Each incomplete's value sits in the hole of its root receiver, a plain
region cell whose lineage root records what filled it, and a fill builds a
constructor that qualifies (see ``shapes``) as its final host object in
place. So a release reads the receiver's one slot in O(1) and decodes
nothing; only a value of a type that does not qualify is decoded from region
cells.

Values returned out of ``with_region`` are ordinary host values with no
linear obligations: the scope-exit audit finds no live handle into the dead
region, and no leaf can hold a handle, a region cell or a hole at all, for
none of them can be deep-copied (``DestinationInLeaf``).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from types import ModuleType
from typing import Any, Callable

from . import region as _region
from .errors import (
    LinearityLeak,
    SelfPlug,
    UnfilledHoles,
    UseAfterConsume,
)
from .region import (
    _SCALARS,
    Dest,
    Leaf,
    Region,
    _check_fillable,
    _minted_only_by,
    _NotALeaf,
    region_new,
)
from .shapes import CtorDescriptor, Recursive, ShapeRegistry

_new = object.__new__  # mints a handle without an __init__ frame; every slot is set after


class _Lineage:
    """Union-find node counting one incomplete's outstanding obligations.

    ``holes`` is the number of live destinations of the lineage, and is only
    meaningful on a root; ``fill_comp`` adds the child's count to the
    parent's and links the child's root under the parent's, so each lineage
    has one count.

    A root also stands for its incomplete's one receiver: ``type_id`` is the
    type of what filled the receiver's hole (None for a leaf or while empty)
    and ``dest`` the live destination of that hole while it is empty.
    """

    __slots__ = ("parent", "holes", "type_id", "dest")

    def __init__(self, type_id: str | None = None) -> None:
        self.parent: _Lineage | None = None
        self.holes = 0
        self.type_id = type_id
        self.dest: Dest | None = None

    def find(self) -> "_Lineage":
        node = self
        while node.parent is not None:
            node = node.parent
        # path compression
        walk = self
        while walk.parent is not None:
            walk.parent, walk = node, walk.parent
        return node


class Token(_NotALeaf):
    """Linear capability to mint one incomplete in its region."""

    __slots__ = ("region", "alive")

    def __init__(self, region: Region) -> None:
        if not isinstance(region, Region):
            raise TypeError(f"a Token belongs to a Region, not a {type(region).__name__}")
        self.region = region
        self.alive = True
        region._tokens_alive += 1

    def __repr__(self) -> str:
        state = "live" if self.alive else "consumed"
        return f"<Token region={self.region.region_id} {state}>"


class Incomplete(_NotALeaf):
    """A structure under construction plus the payload that must be consumed
    before it becomes readable."""

    __slots__ = ("region", "root", "payload", "lineage", "alive")
    __init__ = _minted_only_by("alloc, into_incomplete and map_b")

    @property
    def holes_outstanding(self) -> int:
        return self.lineage.find().holes

    def __repr__(self) -> str:
        state = "live" if self.alive else "consumed"
        return (
            f"<Incomplete root={self.root.handle} "
            f"holes={self.holes_outstanding} {state}>"
        )


# -- linear-value scanning ----------------------------------------------------

_CONTAINERS = (tuple, list, set, frozenset, deque)


def _collect_linear(value) -> set:
    """All Token/Dest/Incomplete objects reachable through tuples, lists,
    sets, frozensets, deques, dict keys and values, dataclass fields and the
    ``__dict__`` of any other object that is not a class or a module; an
    object with only slots that is not a dataclass is not searched.
    Identity-based; iterative, so depth does not matter."""
    found: set = set()
    seen: set[int] = set()
    stack = [value]
    while stack:
        v = stack.pop()
        if type(v) in _SCALARS:
            continue
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, (Token, Dest, Incomplete)):
            found.add(v)
        elif isinstance(v, dict):
            stack.extend(v.keys())
            stack.extend(v.values())
        elif isinstance(v, _CONTAINERS):
            stack.extend(v)
        elif dataclasses.is_dataclass(v) and not isinstance(v, type):
            for f in dataclasses.fields(v):
                stack.append(getattr(v, f.name))
        elif hasattr(v, "__dict__") and not isinstance(v, (type, ModuleType)):
            stack.extend(vars(v).values())
    return found


# -- admission and consumption ---------------------------------------------------


def _admit(x, cls: type, op: str) -> None:
    """Admit handle ``x`` to ``op``: TypeError unless it is a ``cls``, else
    UseAfterConsume once consumed and RegionClosed once its region is."""
    if not isinstance(x, cls):
        raise TypeError(f"{op} expects {cls.__name__}, got {type(x).__name__}")
    if not x.alive:
        raise UseAfterConsume(f"{op} on an already-consumed {cls.__name__}")
    x.region._require_alive()


def _consume_token(t: Token, op: str) -> None:
    if type(t) is not Token or not t.alive or not t.region.alive:
        _admit(t, Token, op)
    t.alive = False
    t.region._tokens_alive -= 1


def _consume_incomplete(i: Incomplete, op: str) -> None:
    if type(i) is not Incomplete or not i.alive or not i.region.alive:
        _admit(i, Incomplete, op)
    i.alive = False
    i.region._incompletes_alive -= 1


# -- scope ---------------------------------------------------------------------


def with_region(
    body: Callable[[Token], Any], *, registry: ShapeRegistry | None = None
) -> Any:
    """Run ``body`` with a fresh region and a fresh token bound to it; a
    ``registry`` that is no ``ShapeRegistry`` raises TypeError first.

    Only ordinary (non-linear) values may leave the scope. At exit the audit
    checks that the body left no live token, destination, or incomplete and
    raises LinearityLeak otherwise. The region is closed either way.
    """
    region = region_new(registry=registry)
    token = _new(Token)
    token.region, token.alive = region, True
    region._tokens_alive += 1
    try:
        result = body(token)
    finally:
        region._close()
    if region._tokens_alive or region.outstanding_holes or region._incompletes_alive:
        counts = (
            (region._tokens_alive, "token"),
            (region.outstanding_holes, "destination"),
            (region._incompletes_alive, "incomplete"),
        )
        leaks = [f"{n} live {what}(s)" for n, what in counts if n]
        raise LinearityLeak(
            "scope exit with unconsumed linear values: " + ", ".join(leaks)
        )
    return result


def token_consume(t: Token) -> None:
    """Discard a token. RegionClosed once its region is closed."""
    _consume_token(t, "token_consume")


def token_dup2(t: Token) -> tuple[Token, Token]:
    """Exchange a token for two fresh ones of its region; RegionClosed once closed."""
    if type(t) is not Token or not t.alive or not t.region.alive:
        _admit(t, Token, "token_dup2")
    t.alive = False
    region = t.region
    region._tokens_alive += 1  # one consumed, two minted
    t1 = _new(Token)
    t1.region, t1.alive = region, True
    t2 = _new(Token)
    t2.region, t2.alive = region, True
    return t1, t2


# -- creating incompletes --------------------------------------------------------


def alloc(t: Token) -> Incomplete:
    """Exchange a token for an empty incomplete.

    Allocates a root-receiver cell in the region; the returned payload is the
    single destination pointing at its hole, so whatever fills the
    destination is exactly the value the incomplete will hold.
    """
    if type(t) is not Token or not t.alive or not t.region.alive:
        _admit(t, Token, "alloc")
    t.alive = False
    region = t.region
    region._tokens_alive -= 1
    receiver = region._alloc_receiver()
    lineage = _new(_Lineage)
    dest = _new(Dest)
    lineage.parent = None
    lineage.holes = 1
    lineage.type_id = None
    lineage.dest = dest
    dest.region = region
    dest.cell = receiver
    dest.index = 0
    dest.kind = None
    dest.lineage = lineage
    dest.alive = True
    i = _new(Incomplete)
    i.region = region
    i.root = receiver
    i.payload = dest
    i.lineage = lineage
    i.alive = True
    region._incompletes_alive += 1
    return i


def into_incomplete(t: Token, value, type_id: str) -> Incomplete:
    """Copy a complete host value of registered type ``type_id`` into the
    region and wrap it as an incomplete with nothing left to consume.

    No receiver cell is charged: the root is an uncharged receiver that
    holds the copy, built as host objects when the type qualifies. The token
    is consumed only if the copy succeeds. RegionClosed on a closed region.
    """
    _admit(t, Token, "into_incomplete")
    root = t.region.copy_value(value, type_id)
    _consume_token(t, "into_incomplete")
    i = _new(Incomplete)
    i.region, i.root, i.payload, i.lineage, i.alive = t.region, root, None, _Lineage(type_id), True
    i.region._incompletes_alive += 1
    return i


# -- transforming and releasing ---------------------------------------------------


def map_b(i: Incomplete, f: Callable[[Any], Any]) -> Incomplete:
    """Replace the payload of ``i`` with ``f(payload)``.

    ``f`` must consume its argument exactly once: every live destination of
    this incomplete's lineage must, after ``f`` returns, either have been
    consumed or be reachable from the new payload, as ``_collect_linear``
    searches it. Orphaned destinations raise LinearityLeak immediately. On a
    closed region RegionClosed is raised before ``f`` runs, and an ``f``
    that is not callable raises TypeError and consumes nothing; once ``f``
    runs, ``i`` is consumed even if ``f`` raises.
    """
    if type(i) is not Incomplete or not i.alive or not i.region.alive:
        _admit(i, Incomplete, "map_b")
    i.alive = False
    region = i.region
    region._incompletes_alive -= 1
    try:
        new_payload = f(i.payload)
    except TypeError:  # from 3.11 a try costs nothing until it catches
        if callable(f):
            raise
        i.alive = True
        region._incompletes_alive += 1
        raise TypeError(f"map_b expects a callable, got {type(f).__name__}") from None
    root = i.lineage  # a live incomplete's lineage is a root
    if root.holes:
        if type(new_payload) is Dest:
            lineage = new_payload.lineage
            if lineage.parent is not None:
                lineage = lineage.find()
            kept = new_payload.alive and lineage is root
        else:
            kept = sum(
                1
                for x in _collect_linear(new_payload)
                if isinstance(x, Dest) and x.alive and x.lineage.find() is root
            )
        if kept < root.holes:
            raise LinearityLeak(
                f"map_b callback dropped {root.holes - kept} live "
                f"destination(s) of its own lineage"
            )
    out = _new(Incomplete)
    out.region = region
    out.root = i.root
    out.payload = new_payload
    out.lineage = root
    out.alive = True
    region._incompletes_alive += 1
    return out


def _check_release(i: Incomplete, op: str) -> None:
    """Checks shared by both releases. They change nothing, so a failed
    release leaves ``i`` alive."""
    if type(i) is not Incomplete or not i.alive or not i.region.alive:
        _admit(i, Incomplete, op)
    holes = i.lineage.holes  # a live incomplete's lineage is a root
    if holes > 0:
        raise UnfilledHoles(f"incomplete still has {holes} unfilled destination(s)")


def from_incomplete_(i: Incomplete):
    """Release a finished incomplete whose payload is unit (None).

    On failure the incomplete is left alive, so the caller can finish the
    remaining holes and try again. RegionClosed once the region is closed.
    """
    _check_release(i, "from_incomplete_")
    if i.payload is not None:
        raise TypeError(
            f"from_incomplete_ needs a unit payload, got {type(i.payload).__name__}"
        )
    value = _region.read_value(i.region, i.root)
    _consume_incomplete(i, "from_incomplete_")
    return value


def from_incomplete(i: Incomplete):
    """Release a finished incomplete together with its (unrestricted) payload.

    Returns ``(value, payload)``. LinearityLeak if a live handle is reachable
    from the payload, as ``_collect_linear`` searches it. RegionClosed once
    the region is closed.
    """
    _check_release(i, "from_incomplete")
    payload = i.payload  # a scalar holds no handle
    if type(payload) not in _SCALARS and any(
        getattr(x, "alive", False) for x in _collect_linear(payload)
    ):
        raise LinearityLeak(
            "from_incomplete payload still carries live linear values"
        )
    value = _region.read_value(i.region, i.root)
    _consume_incomplete(i, "from_incomplete")
    return value, payload


# -- filling destinations -----------------------------------------------------------


def fill(d: Dest, ctor: CtorDescriptor, *args):
    """Plug the constructor context ``ctor(*args)`` into the hole behind
    ``d``; return the destinations of its holes, in declaration order: None
    for none, a single Dest for one, a tuple otherwise.

    ``args`` are one per field, in declaration order, or none, which is
    ``...`` at every field (else TypeError). ``...`` at any field is a hole.
    A leaf field takes its value, written exactly as ``fill_leaf`` would. A
    ``Recursive`` field takes a registered nullary constructor of its type
    or a complete nested context ``(c, *args)`` of that type, by this same
    rule but with no ``...`` (else TypeError). So ``Cons(x, _)``,
    ``Node(x, Nil, _)`` and ``Cons(SInteger(0, 7), Nil)`` are
    ``fill(d, CONS, x, ...)``, ``fill(d, NODE, x, NIL, ...)`` and
    ``fill(d, CONS, (SINTEGER, 0, 7), NIL)``. Each node is written and
    charged as its own fill would be, in one region call that does all but
    the admission of ``d``: ``alloc_hollow`` into ``d``. A refused fill
    changes nothing: every check comes first, RegionClosed before any leaf
    is copied. A ``ctor`` that is no descriptor raises TypeError.
    """
    if type(d) is not Dest or not d.alive:  # its region: alloc_hollow checks
        _admit(d, Dest, "fill")
    return _region.alloc_hollow(d.region, ctor, d, 0, args)


def fill_leaf(value, d: Dest) -> None:
    """Fill the hole behind ``d`` with a leaf copy of ``value``.

    The value is copied into the region, so later mutation of the source
    cannot affect the structure. That copy raises DestinationInLeaf, a
    TypeError, and changes nothing if the value holds a token, destination,
    incomplete, region cell or hole anywhere: none of them can be copied.
    A value nested too deep to copy raises LeafTooDeep and changes nothing.
    """
    if type(d) is not Dest or not d.alive:  # its region: write_field checks
        _admit(d, Dest, "fill_leaf")
    if type(d.kind) is Recursive:
        _check_fillable(d.kind, None, "a leaf")
    _region.write_field(d.region, d.cell, d.index, Leaf(value))
    d.alive = False
    lineage = d.lineage
    if lineage.parent is not None:
        lineage = lineage.find()
    if d.kind is None:  # a receiver's hole
        lineage.dest = None
    lineage.holes -= 1


def fill_comp(child: Incomplete, d: Dest):
    """Plug ``child`` into the hole behind ``d`` and return child's payload.

    No cell is allocated and nothing is copied: child's receiver is written
    into the hole, which takes its value, or, while child is still empty,
    the live destination of child's receiver is re-pointed at the hole. The
    value must fit the hole's kind as a fill would (else UnknownCtor); an
    empty child is checked when its destination is filled. The child's
    remaining destinations re-home into d's lineage before this returns.
    """
    if type(child) is not Incomplete or not child.alive or not child.region.alive:
        _admit(child, Incomplete, "fill_comp")
    if type(d) is not Dest or not d.alive or not d.region.alive:
        _admit(d, Dest, "fill_comp")
    parent_root = d.lineage
    if parent_root.parent is not None:
        parent_root = parent_root.find()
    child_root = child.lineage  # a live incomplete's lineage is a root
    if parent_root is child_root:
        raise SelfPlug("incomplete plugged into a destination of its own lineage")
    region = d.region
    receiver = child.root
    if child.region is not region:
        raise region._foreign(receiver, "incomplete")
    kind = d.kind
    content = receiver.slots[0]
    if content is region.hole:
        moved = child_root.dest
        moved.cell, moved.index, moved.kind = d.cell, d.index, kind
        if kind is None:
            parent_root.dest = moved
        region.outstanding_holes -= 1  # child's receiver hole is given up
    else:
        if kind is not None and (
            type(kind) is not Recursive or kind.type_id != child_root.type_id
        ):
            _check_fillable(kind, child_root.type_id, "the plugged incomplete")
        _region.write_field(region, d.cell, d.index, receiver)
        if kind is None:
            parent_root.type_id, parent_root.dest = child_root.type_id, None
    parent_root.holes += child_root.holes - 1
    child_root.holes = 0
    child_root.parent = parent_root
    d.alive = False
    child.alive = False
    region._incompletes_alive -= 1
    return child.payload
