"""Stateful test of the raw region API over two regions.

A hypothesis state machine allocates cells with and without ``into``, leaf
values and, one argument per field, nullary constructors and nested
contexts at ``Recursive`` fields, which are refused unless complete, with
no hole at any depth, writes a ``Leaf`` or a cell into holes,
reads values back and
copies host values in with ``copy_value``, wrong calls included: a hole of the other
region, an index out of range, a written field, an unregistered
constructor, a raw cell into a host object, an empty receiver, a value
that is neither a cell nor a ``Leaf``, a leaf that holds a cell or a hole, a
malformed, cyclic or handle-holding copy. It keeps a model of every cell
and host object it was given: its region and what each field holds. A call the model says must
fail raises a ``DpsError`` or ``TypeError`` and leaves ``region_stats`` and
``outstanding_holes`` of both regions as they were; after every step the
hole, cell, leaf-copy, receiver and byte counts match the model.
"""

from dataclasses import dataclass
from typing import Any

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from destpass import DpsError, Leaf, read_value, region_new, region_stats, write_field
from destpass.dlist import LIST_CONS, LIST_NIL, LIST_SHAPE, NIL, Cons, from_pylist
from destpass.region import WORD, CellRef, Hole, Receiver, alloc_hollow
from destpass.shapes import CtorDescriptor, LeafType, Recursive, ShapeRegistry, TypeShape

from support import structurally_equal

# "list" builds host objects in place, as does "frozen", whose fields are
# written with object.__setattr__; "pair" does not (its make is no
# dataclass), so it is always a raw cell.


@dataclass(frozen=True)
class Frozen:
    n: Any
    rest: Any


_FROZEN = CtorDescriptor("frozen", "frozen", (LeafType("int"), Recursive("list")), Frozen)
_PAIR = (
    CtorDescriptor("pair", "unit", (), list),
    CtorDescriptor(
        "pair",
        "pair",
        (Recursive("list"), Recursive("pair"), LeafType("int")),
        lambda *fields: fields,
    ),
)
REGISTRY = ShapeRegistry()
REGISTRY.register(LIST_SHAPE, TypeShape("pair", _PAIR), TypeShape("frozen", (_FROZEN,)))
_UNREGISTERED = CtorDescriptor("list", "cons", LIST_CONS.fields, LIST_CONS.make)
# What a Recursive field of each type takes in a fill with one argument per
# field: ..., its nullary constructor or a nested context of one of its
# constructors; and what it refuses: no descriptor, not nullary, of another
# type, unregistered, and contexts with no descriptor, an unregistered one,
# one of another type, a wrong count, ... at a leaf or a hole in a leaf.
# A nested context also refuses a hole: ... at a Recursive field, no
# arguments or leaves only, for a constructor with fields to leave open.
# A leaf field takes 7, or ... outside a nested context, and refuses a leaf
# that holds a hole.
_NULLARY = {"list": LIST_NIL, "pair": _PAIR[0]}
_OF_TYPE = {"list": (LIST_NIL, LIST_CONS), "pair": _PAIR}
_UNREGISTERED_NIL = CtorDescriptor("list", "nil", (), LIST_NIL.make)
_CONTEXT = object()  # draws a nested context
CTORS = (LIST_NIL, LIST_CONS, _FROZEN, *_PAIR, _UNREGISTERED, "receiver")
# Bytes charged for each leaf payload that write_leaf writes: a word per
# scalar or host object, and a word per container plus one per element.
_LEAF_BYTES = {"int": WORD, "tuple": 9 * WORD, "node": 3 * WORD}
_CYCLIC = Cons(1, NIL)
_CYCLIC.tail = _CYCLIC


class _Node:
    """A cell or host object the machine was given, and its model: the index
    of its region, whether it is a raw cell, and each field's content: None
    for a hole, ("node", _Node) or ("value", the value as stored)."""

    def __init__(self, obj, region: int, arity: int) -> None:
        self.obj = obj
        self.region = region
        self.receiver = type(obj) is Receiver
        self.raw = type(obj) is CellRef or self.receiver
        self.fields: list = [None] * arity


def _refused(x) -> bool:
    """Whether a deep copy of ``x`` meets a hole or a raw cell."""
    seen: set[int] = set()
    stack = [x]
    while stack:
        x = stack.pop()
        if isinstance(x, _Node):
            if x.raw:
                return True
            if id(x) in seen:
                continue
            seen.add(id(x))
            for f in x.fields:
                if f is None:
                    return True
                stack.append(f[1])
        elif isinstance(x, (Hole, CellRef)):
            return True
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
    return False


class _Fails(Exception):
    pass


def _complete(node: _Node):
    """The object of host ``node``, or _Fails where a hole is reachable
    from it: a read scans host objects while its region has holes."""
    seen: set[int] = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        for f in n.fields:
            if f is None:
                raise _Fails
            if f[0] == "node":
                stack.append(f[1])
    return node.obj


def _decode(node: _Node):
    """What read_value returns for raw ``node``, or _Fails where it raises."""
    if node.receiver:
        content = node.fields[0]
        if content is None:
            raise _Fails
        if content[0] == "value" or not content[1].raw:
            return _complete(content[1]) if content[0] == "node" else content[1]
        node = content[1]
    on_path: set[int] = set()

    def walk(n: _Node):
        if id(n) in on_path:
            raise _Fails
        on_path.add(id(n))
        parts = []
        for f in n.fields:
            if f is None:
                raise _Fails
            kind, x = f
            parts.append(x if kind == "value" else walk(x) if x.raw else _complete(x))
        on_path.discard(id(n))
        return n.obj.ctor.make(*parts)

    return walk(node)


class RegionMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.regions = [region_new(registry=REGISTRY), region_new(registry=REGISTRY)]
        self.nodes: list[_Node] = []
        # per region: outstanding holes, cells, leaf copies, receivers, bytes
        self.counts = [[4, 2, 0, 1, 8 * WORD], [4, 2, 0, 1, 8 * WORD]]
        for r, region in enumerate(self.regions):  # each starts with every kind of cell
            receiver = _Node(region._alloc_receiver(), r, 1)
            host = _Node(alloc_hollow(region, LIST_CONS, receiver.obj, 0), r, 2)
            receiver.fields[0] = ("node", host)
            self.nodes += [receiver, host, _Node(alloc_hollow(region, LIST_CONS), r, 2)]

    def _state(self):
        return [(r.outstanding_holes, region_stats(r)) for r in self.regions]

    def _call(self, fails: bool, call):
        """Run ``call``; if the model says it fails, check that it raises a
        DpsError or TypeError and changes neither region."""
        if not fails:
            return call()
        before = self._state()
        with pytest.raises((DpsError, TypeError)):
            call()
        assert self._state() == before
        return None

    def _target(self, data):
        """A node (None one time in eight), the object to write into (not a
        cell when the node is None) and an index, sometimes out of range."""
        if not data.draw(st.integers(0, 7)):
            return None, object(), 0
        node = data.draw(st.sampled_from(self.nodes))
        index = data.draw(st.integers(-1, len(node.fields)))
        return node, node.obj, index

    def _open(self, node, r: int, index: int) -> bool:
        return (
            node is not None
            and node.region == r
            and 0 <= index < len(node.fields)
            and node.fields[index] is None
        )

    def _stored(self, node: _Node, index: int):
        """What field ``index`` of ``node``'s object holds."""
        obj = node.obj
        if node.receiver:
            return obj.value
        if node.raw:
            return obj.slots[index]
        return getattr(obj, REGISTRY.host_fields[type(obj)][index])

    # -- rules ---------------------------------------------------------------

    def _new(self, cell, r: int, c, args) -> _Node:
        """The model of a new cell for the context ``c(*args)``, and of
        each node nested in it, each checked to hold what the context
        gives at each field: every leaf is 7."""
        new = _Node(cell, r, c.arity)
        assert cell.ctor is c if new.raw else type(cell) is c.make
        self.nodes.append(new)
        counts = self.counts[r]
        counts[0] += c.arity
        counts[1] += 1
        counts[4] += WORD * (1 + c.arity)
        for i in range(c.arity):
            a, stored = args[i] if args else ..., self._stored(new, i)
            if a is ...:
                assert stored is self.regions[r].hole
                continue
            counts[0] -= 1
            if not isinstance(c.fields[i], Recursive):
                assert stored == a
                counts[2] += 1
                counts[4] += WORD
                new.fields[i] = ("value", stored)
                continue
            nested, nested_args = (a, ()) if type(a) is CtorDescriptor else (a[0], a[1:])
            if nested.arity:  # built as its parent is
                assert (type(stored) is CellRef) == new.raw
                new.fields[i] = ("node", self._new(stored, r, nested, nested_args))
            else:
                assert stored == nested.make()
                counts[1] += 1
                counts[4] += WORD
                new.fields[i] = ("value", stored)
        return new

    def _fields(self, data, r: int, c, depth: int, nested: bool = False):
        """One argument per field of ``c``, each refused one time in eight,
        nested contexts ``depth`` deep at most; and whether any is refused,
        as a hole in a nested context (``nested``) is."""
        args, bad = [], False
        for kind in c.fields:
            if isinstance(kind, Recursive):
                t = kind.type_id
                other = "pair" if t == "list" else "list"
                cons = _OF_TYPE[t][1]  # one leaf, then Recursive fields, or the reverse
                good = (_NULLARY[t], ..., *((_CONTEXT,) * bool(depth)))
                wrong = (
                    "x", LIST_CONS, _NULLARY[other], _UNREGISTERED_NIL, ("x",),
                    (_UNREGISTERED, 7), (_OF_TYPE[other][1],), (cons, 7, 8, 9, 10),
                    (cons, *[...] * cons.arity), (cons, [self.regions[r].hole]),
                )
            else:
                good, wrong = (7, ...), ([self.regions[r].hole],)
            refused = not data.draw(st.integers(0, 7))
            a = data.draw(st.sampled_from(wrong if refused else good))
            refused = refused or nested and a is ...
            if a is _CONTEXT:
                inner = data.draw(st.sampled_from(_OF_TYPE[t]))
                form = data.draw(st.sampled_from(("none", "leaves", "fields")))
                if form == "fields":
                    inner_args, refused = self._fields(data, r, inner, depth - 1, True)
                else:
                    inner_args = [7] * len(inner.leaves) if form == "leaves" else []
                    refused = len(inner_args) != inner.arity
                a = (inner, *inner_args)
            args.append(a)
            bad = bad or refused
        return args, bad

    @rule(
        data=st.data(),
        r=st.integers(0, 1),
        c=st.sampled_from(CTORS),
        into=st.booleans(),
        given=st.sampled_from(("none", "right", "one too many", "fields", "fields")),
    )
    def alloc(self, data, r, c, into, given):
        """The cell takes no arguments; one per field, a leaf at a leaf
        field and ``...`` at a Recursive one, or one too many; or one per
        field: a leaf or ``...`` at a leaf field, and ``...``, a nullary
        constructor or a nested context at a Recursive one, each refused one
        time in eight."""
        region, counts = self.regions[r], self.counts[r]
        if c == "receiver":
            cell = region._alloc_receiver()
            self.nodes.append(_Node(cell, r, 1))
            counts[0] += 1
            counts[3] += 1
            counts[4] += 2 * WORD
            return
        bad = c is _UNREGISTERED or given == "one too many"
        args = [] if given == "none" else [
            ... if isinstance(k, Recursive) else 7 for k in c.fields
        ] + [8] * (given == "one too many")
        if given == "fields":
            args, refused = self._fields(data, r, c, 2)
            bad = bad or refused
        if not into:
            cell = self._call(bad, lambda: alloc_hollow(region, c, None, 0, args))
            if not bad:
                self._new(cell, r, c, args)
            return
        # Half the time, a hole of a receiver or host object: where a fill
        # builds in place.
        holes = [(n, i) for n in self.nodes if n.receiver or not n.raw for i in range(len(n.fields))]
        holes = [(n, i) for n, i in holes if n.region == r and n.fields[i] is None]
        if holes and data.draw(st.booleans()):
            node, index = data.draw(st.sampled_from(holes))
            obj = node.obj
        else:
            node, obj, index = self._target(data)
        fails = bad or not self._open(node, r, index)
        # A host object's field takes no raw cell.
        fails = fails or c.arity and REGISTRY.resolve(c) is None and not node.raw
        cell = self._call(fails, lambda: alloc_hollow(region, c, obj, index, args))
        if fails:
            return
        counts[0] -= 1
        if c.arity:
            # In place into a receiver or host object, when c builds in place.
            in_place = (node.receiver or not node.raw) and REGISTRY.resolve(c) is not None
            assert (type(cell) is CellRef) != in_place
            node.fields[index] = ("node", self._new(cell, r, c, args))
        else:
            counts[1] += 1
            counts[4] += WORD
            node.fields[index] = ("value", self._stored(node, index))

    @rule(
        data=st.data(),
        r=st.integers(0, 1),
        what=st.sampled_from(("int", "tuple", "int", "node", "hole", "other hole")),
    )
    def write_leaf(self, data, r, what):
        node, obj, index = self._target(data)
        if what == "node":
            payload = [data.draw(st.sampled_from(self.nodes))]
            refused = _refused(payload)
            payload = [payload[0].obj]
        else:
            payload = {
                "int": 7,
                "tuple": (1, (2, 3)),
                "hole": [self.regions[r].hole],
                "other hole": {"x": self.regions[1 - r].hole},
            }[what]
            refused = what.endswith("hole")
        fails = refused or not self._open(node, r, index)
        self._call(fails, lambda: write_field(self.regions[r], obj, index, Leaf(payload)))
        if not fails:
            node.fields[index] = ("value", self._stored(node, index))
            self.counts[r][0] -= 1
            self.counts[r][2] += 1
            self.counts[r][4] += _LEAF_BYTES[what]

    @rule(
        data=st.data(),
        r=st.integers(0, 1),
        what=st.sampled_from(("node", "node", "hole", "value")),
    )
    def write_ref(self, data, r, what):
        node, obj, index = self._target(data)
        stored = None  # what the field holds after the write
        if what == "node":
            to = data.draw(st.sampled_from(self.nodes))
            target = to.obj
            # A receiver stands for what it holds; a host object is no cell.
            stored = to.fields[0] if to.receiver else ("node", to) if to.raw else None
            bad = stored is None or to.region != r
        elif what == "hole":
            target, bad = self.regions[data.draw(st.integers(0, 1))].hole, True
        else:
            target, bad = from_pylist([1]), True
        fails = bad or not self._open(node, r, index)
        fails = fails or not node.raw and stored[0] == "node" and stored[1].raw
        self._call(fails, lambda: write_field(self.regions[r], obj, index, target))
        if not fails:
            node.fields[index] = stored
            self.counts[r][0] -= 1

    @rule(data=st.data(), r=st.integers(0, 1))
    def read(self, data, r):
        node = data.draw(st.sampled_from(self.nodes))
        try:
            expected, fails = _decode(node) if node.raw else None, not node.raw
        except _Fails:
            expected, fails = None, True
        fails = fails or node.region != r
        value = self._call(fails, lambda: read_value(self.regions[r], node.obj))
        if not fails:
            assert structurally_equal(value, expected)

    @rule(
        data=st.data(),
        r=st.integers(0, 1),
        what=st.sampled_from(("list", "malformed", "cyclic", "node", "deep hole")),
    )
    def copy(self, data, r, what):
        region, counts = self.regions[r], self.counts[r]
        if what == "node":
            held = data.draw(st.sampled_from(self.nodes))
            value, fails = Cons(held.obj, NIL), _refused(held)
        else:
            value = {
                "list": from_pylist([4, (5, 6)]),
                "malformed": Cons(1, "x"),
                "cyclic": _CYCLIC,
                "deep hole": from_pylist([1, 2, [region.hole]]),
            }[what]
            fails = what != "list"
        holder = self._call(fails, lambda: region.copy_value(value, "list"))
        if fails:
            return
        copied = 2 if what == "node" else 3
        counts[1] += copied
        counts[2] += copied - 1
        # Two cells of 3 words and a nil of 1, and the leaves: a copied host
        # object is 1 word, 4 and (5, 6) are 1 and 5.
        counts[4] += 5 * WORD if what == "node" else 13 * WORD
        node = _Node(holder, r, 1)
        node.fields[0] = ("value", holder.value)
        self.nodes.append(node)
        # A held host object may be cyclic, which structurally_equal cannot walk.
        assert what == "node" or structurally_equal(holder.value, value)

    # -- invariants ----------------------------------------------------------

    @invariant()
    def counts_match_model(self):
        for r, (holes, cells, copies, receivers, size) in zip(self.regions, self.counts):
            stats = region_stats(r)
            assert r.outstanding_holes == holes
            assert (stats.cells_allocated, stats.leaf_copies) == (cells, copies)
            assert (stats.receiver_cells, stats.bytes_allocated) == (receivers, size)


RegionMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
test_region_machine = RegionMachine.TestCase
