"""Top-down data construction through write-once destinations.

The API follows one discipline: tokens, destinations, and incompletes are
*linear* — each accepts exactly one consuming operation. The host language
cannot enforce that statically, so every linear value carries a liveness
flag, every consuming operation checks and flips it, and ``with_region``
audits at scope exit that nothing live was dropped. Violations surface as
``UseAfterConsume`` or ``LinearityLeak``; they never corrupt the region.

Besides the flags, the ledger is one hole count per lineage (``_Lineage``)
and two tallies on the region, of live tokens and live incompletes. Live
destinations need no tally of their own: every unfilled hole of a builder
region has exactly one live ``Dest``, so the region's ``outstanding_holes``
counts them.

Consuming operations:

==============  =====================================================
value           consumed by
==============  =====================================================
Token           alloc, into_incomplete, token_consume, token_dup2
Dest            fill, fill_leaf, fill_comp (as the target)
Incomplete      map_b, from_incomplete_, from_incomplete,
                fill_comp (as the child)
==============  =====================================================

Values returned out of ``with_region`` are ordinary host values with no
linear obligations; the scope-exit audit is what guarantees they contain no
live handles into the dead region.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Callable

from . import region as _region
from .errors import (
    DestinationInLeaf,
    LinearityLeak,
    RegionMismatch,
    SelfPlug,
    UnfilledHoles,
    UnknownCtor,
    UseAfterConsume,
)
from .region import _SCALARS, CellRef, Leaf, Ref, Region, region_new
from .shapes import CtorDescriptor, FieldKind, LeafType, Recursive, ShapeRegistry


class _Lineage:
    """Union-find node counting one incomplete's outstanding obligations.

    ``holes`` is the number of live destinations of the lineage, and is only
    meaningful on a root; ``fill_comp`` adds the child's count to the
    parent's and links the child's root under the parent's, so each lineage
    has one count.
    """

    __slots__ = ("parent", "holes")

    def __init__(self) -> None:
        self.parent: _Lineage | None = None
        self.holes = 0

    def find(self) -> "_Lineage":
        node = self
        while node.parent is not None:
            node = node.parent
        # path compression
        walk = self
        while walk.parent is not None:
            walk.parent, walk = node, walk.parent
        return node


class Token:
    """Linear capability to mint one incomplete in its region."""

    __slots__ = ("region", "alive")

    def __init__(self, region: Region) -> None:
        self.region = region
        self.alive = True
        region._tokens_alive += 1

    def __repr__(self) -> str:
        state = "live" if self.alive else "consumed"
        return f"<Token region={self.region.region_id} {state}>"


class Dest:
    """Handle to exactly one unfilled hole; consumable exactly once."""

    __slots__ = ("region", "cell", "index", "kind", "lineage", "alive")

    def __init__(
        self,
        region: Region,
        cell: CellRef,
        index: int,
        kind: FieldKind | None,
        lineage: _Lineage,
    ) -> None:
        self.region = region
        self.cell = cell
        self.index = index
        self.kind = kind
        self.lineage = lineage
        self.alive = True

    def __repr__(self) -> str:
        state = "live" if self.alive else "consumed"
        return f"<Dest cell={self.cell.handle}[{self.index}] {state}>"


class Incomplete:
    """A structure under construction plus the payload that must be consumed
    before it becomes readable."""

    __slots__ = ("region", "root", "payload", "lineage", "alive")

    def __init__(
        self, region: Region, root: CellRef, payload, lineage: _Lineage
    ) -> None:
        self.region = region
        self.root = root
        self.payload = payload
        self.lineage = lineage
        self.alive = True
        region._incompletes_alive += 1

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
    """All Token/Dest/Incomplete objects reachable through ordinary containers
    and dataclasses. Identity-based; iterative, so depth does not matter."""
    found: set = set()
    seen: set[int] = set()
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, _SCALARS):
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
    return found


# -- consumption bookkeeping ---------------------------------------------------


def _consume_token(t: Token, op: str) -> None:
    if not isinstance(t, Token):
        raise TypeError(f"{op} expects a Token, got {type(t).__name__}")
    if not t.alive:
        raise UseAfterConsume(f"{op} on an already-consumed token")
    t.alive = False
    t.region._tokens_alive -= 1


def _consume_incomplete(i: Incomplete, op: str) -> None:
    if not isinstance(i, Incomplete):
        raise TypeError(f"{op} expects an Incomplete, got {type(i).__name__}")
    if not i.alive:
        raise UseAfterConsume(f"{op} on an already-consumed incomplete")
    i.alive = False
    i.region._incompletes_alive -= 1


# -- scope ---------------------------------------------------------------------


def with_region(
    body: Callable[[Token], Any],
    *,
    block_size: int = _region.DEFAULT_BLOCK_SIZE,
    registry: ShapeRegistry | None = None,
) -> Any:
    """Run ``body`` with a fresh region and a fresh token bound to it.

    Only ordinary (non-linear) values may leave the scope. At exit the audit
    checks that the body left no live token, destination, or incomplete and
    raises LinearityLeak otherwise. The region is closed either way.
    """
    region = region_new(block_size, registry=registry)
    token = Token(region)
    try:
        result = body(token)
    except BaseException:
        region._close()
        raise
    region._close()
    counts = (
        (region._tokens_alive, "token"),
        (region.outstanding_holes, "destination"),
        (region._incompletes_alive, "incomplete"),
    )
    leaks = [f"{n} live {what}(s)" for n, what in counts if n]
    if leaks:
        raise LinearityLeak(
            "scope exit with unconsumed linear values: " + ", ".join(leaks)
        )
    return result


def token_consume(t: Token) -> None:
    """Discard a token."""
    _consume_token(t, "token_consume")


def token_dup2(t: Token) -> tuple[Token, Token]:
    """Exchange one token for two fresh ones bound to the same region."""
    _consume_token(t, "token_dup2")
    return Token(t.region), Token(t.region)


# -- creating incompletes --------------------------------------------------------


def alloc(t: Token) -> Incomplete:
    """Exchange a token for an empty incomplete.

    Allocates a root-receiver cell in the region; the returned payload is the
    single destination pointing at its hole, so whatever fills the
    destination is exactly the value the incomplete will hold.
    """
    _consume_token(t, "alloc")
    region = t.region
    receiver = region._alloc_receiver()
    lineage = _Lineage()
    lineage.holes = 1
    dest = Dest(region, receiver, 0, None, lineage)
    return Incomplete(region, receiver, dest, lineage)


def into_incomplete(t: Token, value, type_id: str) -> Incomplete:
    """Copy a complete host value of registered type ``type_id`` into the
    region and wrap it as an incomplete with nothing left to consume.

    No root receiver is allocated; the root refers directly to the copy.
    """
    _consume_token(t, "into_incomplete")
    region = t.region
    root = region.copy_value(value, type_id)
    return Incomplete(region, root, None, _Lineage())


# -- transforming and releasing ---------------------------------------------------


def map_b(i: Incomplete, f: Callable[[Any], Any]) -> Incomplete:
    """Replace the payload of ``i`` with ``f(payload)``.

    ``f`` must consume its argument exactly once: every live destination of
    this incomplete's lineage must, after ``f`` returns, either have been
    consumed or be reachable from the new payload. Orphaned destinations
    raise LinearityLeak immediately.
    """
    _consume_incomplete(i, "map_b")
    new_payload = f(i.payload)
    root = i.lineage.find()
    if root.holes:
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
    return Incomplete(i.region, i.root, new_payload, root)


def _check_release(i: Incomplete, op: str) -> None:
    """Checks shared by both releases. They change nothing, so a failed
    release leaves ``i`` alive."""
    if not isinstance(i, Incomplete):
        raise TypeError(f"{op} expects an Incomplete, got {type(i).__name__}")
    if not i.alive:
        raise UseAfterConsume(f"{op} on an already-consumed incomplete")
    holes = i.lineage.find().holes
    if holes > 0:
        raise UnfilledHoles(f"incomplete still has {holes} unfilled destination(s)")


def from_incomplete_(i: Incomplete):
    """Release a finished incomplete whose payload is unit (None).

    On failure the incomplete is left alive, so the caller can finish the
    remaining holes and try again.
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

    Returns ``(value, payload)``.
    """
    _check_release(i, "from_incomplete")
    smuggled = [x for x in _collect_linear(i.payload) if getattr(x, "alive", False)]
    if smuggled:
        raise LinearityLeak(
            "from_incomplete payload still carries live linear values"
        )
    value = _region.read_value(i.region, i.root)
    payload = i.payload
    _consume_incomplete(i, "from_incomplete")
    return value, payload


# -- filling destinations -----------------------------------------------------------


def _check_fillable(kind: FieldKind, ctor: CtorDescriptor) -> None:
    # Registration is checked by alloc_hollow, before it changes anything.
    if isinstance(kind, LeafType):
        raise UnknownCtor(
            f"hole expects a leaf of {kind.type_id!r}; "
            f"constructor {ctor.name} cannot fill it"
        )
    if isinstance(kind, Recursive) and kind.type_id != ctor.type_id:
        raise UnknownCtor(
            f"hole expects type {kind.type_id!r}, "
            f"constructor {ctor.name} builds {ctor.type_id!r}"
        )


def fill(d: Dest, ctor: CtorDescriptor):
    """Plug a hollow constructor into the hole behind ``d``.

    Returns the destinations for the constructor's fields in declaration
    order: None for arity 0, a single Dest for arity 1, a tuple otherwise.
    """
    if not isinstance(d, Dest):
        raise TypeError(f"fill expects a Dest, got {type(d).__name__}")
    if not d.alive:
        raise UseAfterConsume("fill on an already-consumed destination")
    kind = d.kind
    if kind is not None and (type(kind) is not Recursive or kind.type_id != ctor.type_id):
        _check_fillable(kind, ctor)
    region = d.region
    cell = _region.alloc_hollow(region, ctor)
    _region.write_field(region, d.cell, d.index, Ref(cell))
    d.alive = False
    lineage = d.lineage
    if lineage.parent is not None:
        lineage = lineage.find()
    arity = ctor.arity
    lineage.holes += arity - 1
    if arity == 0:
        return None
    if arity == 1:
        return Dest(region, cell, 0, ctor.fields[0], lineage)
    return tuple([Dest(region, cell, i, k, lineage) for i, k in enumerate(ctor.fields)])


def fill_leaf(value, d: Dest) -> None:
    """Fill the hole behind ``d`` with a leaf copy of ``value``.

    The value is copied into the region, so later mutation of the source
    cannot affect the structure. Leaf payloads must not contain live linear
    values; destination-backed structures cannot store destinations.
    """
    if not isinstance(d, Dest):
        raise TypeError(f"fill_leaf expects a Dest, got {type(d).__name__}")
    if not d.alive:
        raise UseAfterConsume("fill_leaf on an already-consumed destination")
    if not isinstance(value, _SCALARS) and _collect_linear(value):
        raise DestinationInLeaf(
            "leaf payload contains tokens, destinations, or incompletes"
        )
    _region.write_field(d.region, d.cell, d.index, Leaf(value))
    d.alive = False
    lineage = d.lineage
    if lineage.parent is not None:
        lineage = lineage.find()
    lineage.holes -= 1


def fill_comp(child: Incomplete, d: Dest):
    """Plug ``child`` into the hole behind ``d`` and return child's payload.

    Only a field write: no cell is allocated, nothing moves. The child's
    remaining destinations re-home into d's lineage before this returns.
    """
    if not isinstance(child, Incomplete):
        raise TypeError(f"fill_comp expects an Incomplete child, got {type(child).__name__}")
    if not child.alive:
        raise UseAfterConsume("fill_comp on an already-consumed incomplete")
    if not isinstance(d, Dest):
        raise TypeError(f"fill_comp expects a Dest, got {type(d).__name__}")
    if not d.alive:
        raise UseAfterConsume("fill_comp on an already-consumed destination")
    if child.region is not d.region:
        raise RegionMismatch(
            "fill_comp child and destination belong to different regions"
        )
    parent_root = d.lineage.find()
    child_root = child.lineage.find()
    if parent_root is child_root:
        raise SelfPlug("incomplete plugged into a destination of its own lineage")
    _region.write_field(d.region, d.cell, d.index, Ref(child.root))
    parent_root.holes += child_root.holes - 1
    child_root.holes = 0
    child_root.parent = parent_root
    d.alive = False
    _consume_incomplete(child, "fill_comp")
    return child.payload
