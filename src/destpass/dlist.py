"""Destination-backed difference lists.

A difference list here is an incomplete linked list whose payload is the
destination of the final tail hole. Appending fills that hole with the
context ``Cons(x, _)``, ``fill(d, LIST_CONS, x, ...)``, and keeps the new
tail hole; concatenating two difference lists writes the second one's root
into the first one's tail hole — one field write, no allocation, no
copying. ``to_list`` plugs nil into the last hole and releases the finished
list. Each operation fills the tail hole before ``map_b`` consumes the
list, so one that is refused changes nothing.

Two baselines used by the benchmark harness live here as well: plain
linked-list concatenation (quadratic when nested to the left) and the
classic function-backed difference list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from .builder import (
    Incomplete,
    Token,
    _admit,
    alloc,
    fill,
    fill_comp,
    from_incomplete_,
    map_b,
)
from .region import _leaf_copies
from .shapes import DEFAULT_REGISTRY, CtorDescriptor, LeafType, Recursive, TypeShape


@dataclass(eq=False, repr=False)
class Nil:
    """Empty linked list."""

    __slots__ = ()

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Nil)

    __hash__ = None

    def __iter__(self) -> Iterator:
        return iter(())

    def __repr__(self) -> str:
        return "Nil()"


@dataclass(eq=False, repr=False)
class Cons:
    """Linked list node. Equality and iteration walk the spine iteratively,
    so long lists are safe."""

    __slots__ = ("head", "tail")

    head: Any
    tail: Any

    def __eq__(self, other: Any) -> bool:
        a, b = self, other
        while isinstance(a, Cons) and isinstance(b, Cons):
            if a.head != b.head:
                return False
            a, b = a.tail, b.tail
        return isinstance(a, Nil) and isinstance(b, Nil)

    __hash__ = None

    def __iter__(self) -> Iterator:
        node = self
        while isinstance(node, Cons):
            yield node.head
            node = node.tail

    def __repr__(self) -> str:
        items = ", ".join(repr(x) for x in self)
        return f"linked([{items}])"


NIL = Nil()


def from_pylist(xs: Iterable) -> Nil | Cons:
    out = NIL
    for x in reversed(list(xs)):
        out = Cons(x, out)
    return out


def to_pylist(lst: Nil | Cons) -> list:
    return list(lst)


LIST_NIL = CtorDescriptor("list", "nil", (), lambda: NIL)
LIST_CONS = CtorDescriptor("list", "cons", (LeafType("value"), Recursive("list")), Cons)
LIST_SHAPE = TypeShape("list", (LIST_NIL, LIST_CONS))
DEFAULT_REGISTRY.register(LIST_SHAPE)


# -- destination-backed difference lists ---------------------------------------

DList = Incomplete  # payload: the Dest of the final tail hole


def dlist_new(t: Token) -> DList:
    """Empty difference list: one hole, which is also the root."""
    return alloc(t)


def dlist_append(i: DList, x) -> DList:
    """Add ``x`` at the tail position; still exactly one hole. ``x`` is
    written as ``fill_leaf`` writes a leaf, so ``...`` is no element."""
    if type(i) is not Incomplete or not i.alive or not i.region.alive:
        _admit(i, Incomplete, "dlist_append")
    if x is ...:
        raise TypeError("... marks a hole; a list element cannot be one")
    tail = fill(i.payload, LIST_CONS, x, ...)
    return map_b(i, lambda _: tail)


def dlist_concat(i1: DList, i2: DList) -> DList:
    """Concatenate: write i2's root into i1's tail hole. One field write,
    zero allocations; the result keeps i1's root and inherits i2's hole."""
    if type(i1) is not Incomplete or not i1.alive or not i1.region.alive:
        _admit(i1, Incomplete, "dlist_concat")
    tail = fill_comp(i2, i1.payload)
    return map_b(i1, lambda _: tail)


def dlist_to_list(i: DList) -> Nil | Cons:
    """Plug nil into the tail hole and release the finished list."""
    if type(i) is not Incomplete or not i.alive or not i.region.alive:
        _admit(i, Incomplete, "dlist_to_list")
    fill(i.payload, LIST_NIL)
    return from_incomplete_(map_b(i, lambda _: None))


def dlist_from_list(t: Token, xs: Iterable) -> DList:
    """Build a difference list holding the elements of ``xs``. ``t`` and
    then every element, as ``fill_leaf`` checks a leaf, are checked before
    ``t`` is consumed, so a refused build changes nothing."""
    _admit(t, Token, "dlist_from_list")
    xs, _ = _leaf_copies(xs)
    out = dlist_new(t)
    for x in xs:
        out = dlist_append(out, x)
    return out


# -- baselines -------------------------------------------------------------------


def list_concat_naive(a: Nil | Cons, b: Nil | Cons) -> Nil | Cons:
    """Plain ``++``: rebuilds every cons cell of ``a``. Left-nested chains of
    this are the quadratic case difference lists exist to avoid."""
    items = []
    node = a
    while isinstance(node, Cons):
        items.append(node.head)
        node = node.tail
    out = b
    for x in reversed(items):
        out = Cons(x, out)
    return out


class FunDList:
    """Function-backed difference list: a list is represented by the function
    that prepends it. Concatenation is O(1) composition.

    Composition is kept as a tree and applied with an explicit stack rather
    than nested closures; the host's call-stack limit makes literal closure
    nesting unusable at benchmark sizes.
    """

    __slots__ = ("_node",)

    # _node: ("leaf", pylist) | ("comp", FunDList, FunDList)

    def __init__(self, node=("leaf", ())) -> None:
        self._node = node

    @classmethod
    def empty(cls) -> "FunDList":
        return cls()

    @classmethod
    def from_items(cls, xs: Iterable) -> "FunDList":
        return cls(("leaf", tuple(xs)))

    def concat(self, other: "FunDList") -> "FunDList":
        return FunDList(("comp", self, other))

    def __call__(self, ys: list) -> list:
        # self applied to ys == prefix ++ ys, leaves collected left to right
        out: list = []
        stack = [self._node]
        while stack:
            node = stack.pop()
            if node[0] == "leaf":
                out.extend(node[1])
            else:
                stack.append(node[2]._node)
                stack.append(node[1]._node)
        out.extend(ys)
        return out

    def to_list(self) -> list:
        return self([])
