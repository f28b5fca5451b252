"""Builder API: tokens, incompletes, destinations, and the consume-once rules."""

import copy
import pickle
import random
from dataclasses import dataclass
from enum import IntEnum
from types import SimpleNamespace
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import destpass.region
from destpass import (
    CyclicStructure,
    DestinationInLeaf,
    DoubleFill,
    DpsError,
    FieldIndexOutOfRange,
    IncompleteRead,
    LeafTooDeep,
    LinearityLeak,
    RegionClosed,
    RegionMismatch,
    SelfPlug,
    UnfilledHoles,
    UnknownCtor,
    UseAfterConsume,
    alloc,
    fill,
    fill_comp,
    fill_leaf,
    from_incomplete,
    from_incomplete_,
    into_incomplete,
    map_b,
    read_value,
    region_stats,
    token_consume,
    token_dup2,
    with_region,
)
from destpass.bfs import TREE_NIL, TREE_NODE, Node
from destpass.builder import Dest, Incomplete, Token
from destpass.region import (
    _INDIRECTION,
    WORD,
    CellRef,
    Hole,
    Leaf,
    alloc_hollow,
    region_new,
    write_field,
)
from destpass.shapes import (
    DEFAULT_REGISTRY,
    CtorDescriptor,
    LeafType,
    Recursive,
    ShapeRegistry,
    TypeShape,
)
from destpass.dlist import LIST_CONS, LIST_NIL, NIL, Cons, from_pylist, to_pylist
from destpass.sexpr import (
    SEXPR_LIST_CONS,
    SEXPR_LIST_NIL,
    SEXPR_SINTEGER,
    SEXPR_SLIST,
    SInteger,
    SList,
)

from support import (
    CASE_TYPES,
    build_top_down,
    ledger_state,
    random_value,
    structurally_equal,
    too_deep_leaf,
)


def close_with(x):
    """Callback plugging a leaf into the last hole, leaving a unit payload."""

    def f(d):
        fill_leaf(x, d)
        return None

    return f


def test_with_region_consume_and_return():
    def body(t):
        token_consume(t)
        return 42

    assert with_region(body) == 42


def test_with_region_flags_dropped_token():
    with pytest.raises(LinearityLeak):
        with_region(lambda t: 42)


def test_with_region_flags_dropped_incomplete():
    def body(t):
        alloc(t)
        return 0

    with pytest.raises(LinearityLeak):
        with_region(body)


def test_with_region_propagates_body_errors():
    class Boom(Exception):
        pass

    def body(t):
        raise Boom()

    with pytest.raises(Boom):
        with_region(body)


def test_dup2_kills_original_and_mints_two():
    def body(t):
        t1, t2 = token_dup2(t)
        with pytest.raises(UseAfterConsume):
            token_consume(t)
        t3, t4 = token_dup2(t1)
        for tok in (t2, t3, t4):  # three live after two dups
            token_consume(tok)
        return "ok"

    assert with_region(body) == "ok"


def _slots(obj) -> dict:
    """Every slot of ``obj``'s class and its bases, by name; one never set
    reads as ``"<unset>"``."""
    names = [n for c in type(obj).__mro__ for n in getattr(c, "__slots__", ())]
    return {n: getattr(obj, n, "<unset>") for n in names}


def test_minted_handles_set_every_slot_to_its_value():
    """Each path that mints a token, incomplete, destination, lineage or
    cell sets every one of its slots, to the value it stands for."""

    def expect(obj, **slots):
        assert _slots(obj) == slots

    def body(t):
        region, hole = t.region, t.region.hole
        expect(t, region=region, alive=True)
        t1, t2 = token_dup2(t)
        expect(t1, region=region, alive=True)
        expect(t2, region=region, alive=True)
        i = alloc(t1)
        receiver, d, root = i.root, i.payload, i.lineage
        expect(receiver, region_id=region.region_id, handle=0, ctor=_INDIRECTION, slots=[hole])
        expect(i, region=region, root=receiver, payload=d, lineage=root, alive=True)
        expect(d, region=region, cell=receiver, index=0, kind=None, lineage=root, alive=True)
        expect(root, parent=None, holes=1, type_id=None, dest=d)
        i = map_b(i, lambda d: fill(d, TREE_NODE, 1, ..., ...))  # by the generated fill
        node = receiver.slots[0]
        left, right = i.payload
        expect(i, region=region, root=receiver, payload=(left, right), lineage=root, alive=True)
        for d, index in ((left, 1), (right, 2)):
            expect(d, region=region, cell=node, index=index, kind=TREE_NODE.fields[index],
                   lineage=root, alive=True)
        expect(root, parent=None, holes=2, type_id="tree", dest=None)
        # A nested leaf that is no scalar leaves the plugs: the generic path.
        value = fill(left, TREE_NODE, ..., (TREE_NODE, [2], TREE_NIL, TREE_NIL), TREE_NIL)
        expect(value, region=region, cell=node.left, index=0, kind=TREE_NODE.fields[0],
               lineage=root, alive=True)
        fill_leaf(3, value)
        j = into_incomplete(t2, Node(4, None, None), "tree")
        expect(j.root, region_id=region.region_id, handle=-1, ctor=_INDIRECTION,
               slots=[Node(4, None, None)])
        expect(j, region=region, root=j.root, payload=None, lineage=j.lineage, alive=True)
        expect(j.lineage, parent=None, holes=0, type_id="tree", dest=None)
        assert fill_comp(j, right) is None
        return from_incomplete(i)[0]  # its payload: the two consumed Dests

    assert with_region(body) == Node(1, Node(3, Node([2]), None), Node(4))

    def raw_cell(t):  # a constructor that does not build in place
        i = alloc(t)
        tail = fill(i.payload, _LAMBDA_PAIR, 1, ...)
        expect(tail.cell, region_id=t.region.region_id, handle=1, ctor=_LAMBDA_PAIR,
               slots=[1, t.region.hole])
        expect(tail, region=t.region, cell=tail.cell, index=1, kind=_LAMBDA_PAIR.fields[1],
               lineage=i.lineage, alive=True)
        fill(tail, _LAMBDA_NIL)
        return from_incomplete(i)[0]

    assert with_region(raw_cell, registry=_LAMBDA_REGISTRY) == (1, None)
    region = region_new()
    expect(alloc_hollow(region, LIST_CONS), region_id=region.region_id, handle=0,
           ctor=LIST_CONS, slots=[region.hole] * 2)


# -- only the library mints a handle ---------------------------------------------


@pytest.mark.parametrize("cls", [Dest, Incomplete, CellRef], ids=lambda c: c.__name__)
@pytest.mark.parametrize("how", ["no arguments", "its slots", "keywords"])
def test_a_handle_class_refuses_every_call(cls, how):
    """``Dest``, ``Incomplete`` and ``CellRef`` are minted only by the
    operations that account for them: a call raises TypeError, names them,
    and changes nothing."""
    region = region_new()
    i = alloc(Token(region))
    d = i.payload
    args = {
        "no arguments": ((), {}),
        "its slots": ({
            Dest: (region, d.cell, d.index, d.kind, d.lineage),
            Incomplete: (region, i.root, None, i.lineage),
            CellRef: (region, 0, LIST_NIL),
        }[cls], {}),
        "keywords": ((), {"region": region}),
    }[how]
    before = ledger_state([region], [i, d])
    with pytest.raises(TypeError, match=f"{cls.__name__} is minted only by alloc"):
        cls(*args[0], **args[1])
    assert ledger_state([region], [i, d]) == before


@pytest.mark.parametrize("copy_of", [copy.copy, pickle.dumps], ids=["copy", "pickle"])
def test_a_handle_is_neither_copied_nor_pickled(copy_of):
    """A copy of a token, destination, incomplete or cell would be a second
    handle of the same count, hole or cell, outside the ledger: a shallow
    copy of a Token once took the live-token tally to -1 when both were
    consumed."""
    region = region_new()
    t1, t2 = token_dup2(Token(region))
    i = alloc(t2)
    before = ledger_state([region], [t1, i, i.payload])
    for handle in (t1, i, i.payload, i.root, region.hole):
        with pytest.raises(TypeError, match="cannot be copied or pickled"):
            copy_of(handle)
    assert ledger_state([region], [t1, i, i.payload]) == before


def test_a_fill_takes_no_hand_made_dest():
    """A hand-made receiver Dest once made a fill write the receiver, then
    raise AttributeError."""
    region = region_new()
    receiver = region._alloc_receiver()
    before = region_stats(region), region.outstanding_holes
    with pytest.raises(TypeError, match="minted only"):
        alloc_hollow(region, LIST_NIL, Dest(region, receiver, 0, None, None))
    assert (region_stats(region), region.outstanding_holes) == before
    assert receiver.slots == [region.hole]


def test_a_live_hole_has_one_dest():
    """A second Dest of a live hole once filled it, so the real one raised
    DoubleFill and the scope exited with no LinearityLeak."""

    def body(t):
        i = alloc(t)
        d = i.payload
        with pytest.raises(TypeError):
            Dest(d.region, d.cell, d.index, d.kind, d.lineage)
        fill(d, LIST_NIL)
        return from_incomplete(i)[0]

    assert with_region(body) is NIL


def test_an_incomplete_is_released_once():
    """A hand-made Incomplete of a finished one once let from_incomplete_
    release the same value twice."""

    def body(t):
        i = map_b(alloc(t), lambda d: fill(d, LIST_CONS, 1, LIST_NIL))
        with pytest.raises(TypeError):
            Incomplete(i.region, i.root, None, i.lineage)
        assert t.region._incompletes_alive == 1
        value = from_incomplete_(i)
        with pytest.raises(UseAfterConsume):
            from_incomplete_(i)
        return value

    assert to_pylist(with_region(body)) == [1]


def test_a_cell_has_one_cell_ref():
    """A hand-made CellRef of a live cell's handle, written into that
    cell's tail, once made read_value raise a false CyclicStructure."""
    region = region_new()
    c1 = alloc_hollow(region, LIST_CONS)
    write_field(region, c1, 0, Leaf(1))
    with pytest.raises(TypeError):
        CellRef(region, c1.handle, LIST_NIL)
    write_field(region, c1, 1, alloc_hollow(region, LIST_NIL))
    assert structurally_equal(read_value(region, c1), Cons(1, NIL))


def test_consume_twice_fails():
    def body(t):
        token_consume(t)
        with pytest.raises(UseAfterConsume):
            token_consume(t)
        with pytest.raises(UseAfterConsume):
            token_dup2(t)
        return None

    with_region(body)


def test_alloc_identity_through_hole():
    def body(t):
        i = alloc(t)
        assert i.holes_outstanding == 1
        return from_incomplete_(map_b(i, close_with(5)))

    assert with_region(body) == 5


def test_release_without_filling_is_unfilled_holes():
    def body(t):
        i = alloc(t)
        with pytest.raises(UnfilledHoles):
            from_incomplete_(i)
        # the failed release left i alive; finish it properly
        return from_incomplete_(map_b(i, close_with(1)))

    assert with_region(body) == 1


def test_into_incomplete_round_trip():
    xs = from_pylist([1, 2])

    def body(t):
        return from_incomplete_(into_incomplete(t, xs, "list"))

    assert structurally_equal(with_region(body), xs)


def test_into_incomplete_copies_structure_without_receiver():
    xs = from_pylist([1, 2, 3])

    def body(t):
        region = t.region
        i = into_incomplete(t, xs, "list")
        s = region_stats(region)
        # one cell per constructor (3 cons + 1 nil), one leaf per element
        assert s.cells_allocated == 4
        assert s.leaf_copies == 3
        assert s.receiver_cells == 0
        assert i.holes_outstanding == 0
        return from_incomplete_(i)

    assert list(with_region(body)) == [1, 2, 3]


def test_fill_comp_of_complete_value_splices():
    sub = from_pylist([7, 8])

    def body(t):
        t1, t2 = token_dup2(t)
        i = alloc(t1)

        def f(d):
            dh, dt = fill(d, LIST_CONS)
            fill_leaf(0, dh)
            child = into_incomplete(t2, sub, "list")
            assert fill_comp(child, dt) is None  # inherits the unit payload
            return None

        return from_incomplete_(map_b(i, f))

    # splice oracle: same value as reading the child and leafing it in
    assert list(with_region(body)) == [0, 7, 8]


def test_map_b_identity_observational():
    def build(with_identity):
        def body(t):
            i = alloc(t)
            if with_identity:
                i = map_b(i, lambda d: d)
            return from_incomplete_(map_b(i, close_with(3)))

        return with_region(body)

    assert build(True) == build(False) == 3


def test_map_b_composition_observational():
    def append_one(d):
        dh, dt = fill(d, LIST_CONS)
        fill_leaf(1, dh)
        return dt

    def close(d):
        return fill(d, LIST_NIL)

    def staged(t):
        return from_incomplete_(map_b(map_b(alloc(t), append_one), close))

    def fused(t):
        return from_incomplete_(map_b(alloc(t), lambda d: close(append_one(d))))

    assert structurally_equal(with_region(staged), with_region(fused))


def test_map_b_dropped_root_dest_flagged():
    def body(t):
        map_b(alloc(t), lambda d: None)
        return 0

    with pytest.raises(LinearityLeak):
        with_region(body)


def test_map_b_dropped_fill_dests_flagged():
    def body(t):
        map_b(alloc(t), lambda d: (fill(d, LIST_CONS), None)[1])
        return 0

    with pytest.raises(LinearityLeak):
        with_region(body)


def test_map_b_on_consumed_incomplete():
    def body(t):
        i = alloc(t)
        i2 = map_b(i, lambda d: d)
        with pytest.raises(UseAfterConsume):
            map_b(i, lambda d: d)
        return from_incomplete_(map_b(i2, close_with(1)))

    assert with_region(body) == 1


def test_fill_returns_dests_in_declaration_order():
    def body(t):
        def f(d):
            dh, dt = fill(d, LIST_CONS)
            assert dh.cell is dt.cell
            assert (dh.index, dt.index) == (0, 1)
            fill_leaf(11, dh)
            assert fill(dt, LIST_NIL) is None  # 0-ary: no dests
            return None

        return from_incomplete_(map_b(alloc(t), f))

    assert list(with_region(body)) == [11]


def test_fill_twice_fails():
    def body(t):
        def f(d):
            fill(d, LIST_NIL)
            with pytest.raises(UseAfterConsume):
                fill(d, LIST_NIL)
            return None

        return from_incomplete_(map_b(alloc(t), f))

    assert with_region(body) == NIL


def test_fill_type_mismatches_are_unknown_ctor():
    def body(t):
        def f(d):
            dh, dt = fill(d, LIST_CONS)
            with pytest.raises(UnknownCtor):
                fill(dt, TREE_NODE)  # tail hole expects a list
            with pytest.raises(UnknownCtor):
                fill(dh, LIST_NIL)  # head hole expects a leaf
            fill_leaf(1, dh)
            fill(dt, LIST_NIL)
            return None

        return from_incomplete_(map_b(alloc(t), f))

    assert list(with_region(body)) == [1]


def test_fill_leaf_deep_copies():
    source = [1, [2]]

    def body(t):
        def f(d):
            fill_leaf(source, d)
            source[1].append(99)  # must not reach the region copy
            return None

        return from_incomplete_(map_b(alloc(t), f))

    assert with_region(body) == [1, [2]]


def test_fill_leaf_twice_fails():
    def body(t):
        def f(d):
            fill_leaf(1, d)
            with pytest.raises(UseAfterConsume):
                fill_leaf(2, d)
            return None

        return from_incomplete_(map_b(alloc(t), f))

    assert with_region(body) == 1


def test_fill_leaf_rejects_linear_payload():
    def body(t):
        def f(d):
            dh, dt = fill(d, LIST_CONS)
            with pytest.raises(DestinationInLeaf):
                fill_leaf([dt], dh)  # destination hiding in the payload
            with pytest.raises(DestinationInLeaf):
                fill_leaf({"tail": dt}, dh)  # or among a dict's values
            fill_leaf(1, dh)
            fill(dt, LIST_NIL)
            return None

        return from_incomplete_(map_b(alloc(t), f))

    assert list(with_region(body)) == [1]


def test_a_region_cell_is_refused_as_a_leaf_payload():
    """A field holding a CellRef is a reference, so no leaf may be one."""
    other = alloc_hollow(region_new(), LIST_NIL)
    r = region_new()
    hollow = alloc_hollow(r, LIST_CONS, r._alloc_receiver(), 0)
    for into in (alloc_hollow(r, LIST_CONS), r._alloc_receiver(), hollow):
        before = (region_stats(r), r.outstanding_holes)
        with pytest.raises(TypeError):
            write_field(r, into, 0, Leaf(other))
        assert (region_stats(r), r.outstanding_holes) == before

    def body(t):
        region = t.region

        def refused(d, field):
            def state():
                return region_stats(region), region.outstanding_holes, d.lineage.find().holes

            before = state()
            with pytest.raises(TypeError):
                fill_leaf(other, d)
            assert d.alive and field() is region.hole and state() == before

        def f(d):
            refused(d, lambda: d.cell.slots[0])  # a receiver's hole
            dh, dt = fill(d, LIST_CONS)
            refused(dh, lambda: dh.cell.head)  # a host object's field
            fill_leaf(1, dh)
            fill(dt, LIST_NIL)
            return None

        return from_incomplete_(map_b(alloc(t), f))

    assert list(with_region(body)) == [1]


def _refused(call, regions, handles, error=DestinationInLeaf):
    """``call`` raises ``error`` and leaves ``ledger_state`` as it was."""
    before = ledger_state(regions, handles)
    with pytest.raises(error):
        call()
    assert ledger_state(regions, handles) == before


@pytest.mark.parametrize(
    "what",
    ["hollow host object", "incomplete root", "own hole", "other region's hole", "fresh hole"],
)
def test_a_leaf_refuses_what_holds_a_hole(what):
    """A leaf copy of any of these would release a hole in another
    incomplete's value: a Cons whose head is still a hole, the receiver
    cell of an empty incomplete, or a hole marker itself."""
    other = region_new()

    def body(t):
        region = t.region
        t1, t2 = token_dup2(t)
        i, j = alloc(t1), alloc(t2)
        dh, dt = fill(i.payload, LIST_CONS)
        e = j.payload
        payload = {
            "hollow host object": lambda: dh.cell,
            "incomplete root": lambda: [j.root],
            "own hole": lambda: region.hole,
            "other region's hole": lambda: (1, other.hole),
            "fresh hole": lambda: {"x": Hole()},
        }[what]()
        _refused(lambda: fill_leaf(payload, e), [region, other], [i, j, dh, dt, e])
        assert e.cell.slots[0] is region.hole
        fill_leaf(1, dh)
        fill(dt, LIST_NIL)
        fill_leaf(2, e)
        return from_incomplete(i)[0], from_incomplete(j)[0]

    out, leaf = with_region(body)
    assert list(out) == [1] and leaf == 2


@pytest.mark.parametrize(
    "what, error",
    [
        ("malformed", TypeError),
        ("cyclic", CyclicStructure),
        ("live destination", DestinationInLeaf),
        ("hole deep inside", DestinationInLeaf),
        ("cell deep inside", DestinationInLeaf),
    ],
)
def test_a_failed_copy_changes_nothing(what, error):
    """into_incomplete copies cells and leaves before it fails; the copy is
    unreachable, so its region charges nothing for it, and a destination in
    a leaf would have been released as a live clone."""
    cyclic = Cons(1, NIL)
    cyclic.tail = cyclic

    def body(t):
        region = t.region
        t1, t2 = token_dup2(t)
        other = alloc(t2)
        d = other.payload
        value = {
            "malformed": Cons(1, "x"),
            "cyclic": cyclic,
            "live destination": Cons(d, NIL),
            "hole deep inside": from_pylist([1, 2, (3, region.hole)]),
            "cell deep inside": from_pylist([1, {"cell": other.root}]),
        }[what]
        _refused(lambda: into_incomplete(t1, value, "list"), [region], [t1, other, d], error)
        token_consume(t1)
        fill_leaf(0, d)
        return from_incomplete(other)[0]

    assert with_region(body) == 0


@pytest.mark.parametrize("what", ["cons list", "nested list"])
def test_fill_leaf_of_a_too_deep_payload_changes_nothing(what):
    payload = too_deep_leaf(what)

    def body(t):
        i = alloc(t)
        d = i.payload
        _refused(lambda: fill_leaf(payload, d), [t.region], [i, d], LeafTooDeep)
        assert d.cell.slots[0] is t.region.hole
        fill_leaf(1, d)
        return from_incomplete(i)[0]

    assert with_region(body) == 1


@pytest.mark.parametrize("what", ["cons list", "nested list"])
def test_into_incomplete_of_a_too_deep_leaf_changes_nothing(what):
    value = Cons(too_deep_leaf(what), NIL)

    def body(t):
        t1, t2 = token_dup2(t)
        _refused(lambda: into_incomplete(t1, value, "list"), [t.region], [t1, t2], LeafTooDeep)
        token_consume(t1)
        return from_incomplete_(into_incomplete(t2, Cons(1, NIL), "list"))

    assert list(with_region(body)) == [1]


@pytest.mark.parametrize("op", ["write_field", "alloc_hollow"])
def test_a_host_object_of_another_region_refuses_its_writes(op):
    """A hollow Cons that a fill of one region built takes no write through
    another region: its live destination stays the one way to fill it."""
    other = region_new()
    call = {
        "write_field": lambda dh: write_field(other, dh.cell, 0, Leaf(5)),
        "alloc_hollow": lambda dh: alloc_hollow(other, LIST_NIL, dh.cell, 1),
    }[op]

    def body(t):
        region = t.region
        i = alloc(t)
        dh, dt = fill(i.payload, LIST_CONS)
        _refused(lambda: call(dh), [region, other], [i, dh, dt], RegionMismatch)
        assert dh.cell.head is region.hole and dh.cell.tail is region.hole
        fill_leaf(1, dh)
        fill(dt, LIST_NIL)
        return from_incomplete(i)[0]

    assert list(with_region(body)) == [1]


def test_fill_comp_across_regions_rejected():
    seen = {}

    def outer(t):
        def f(d):
            def inner(t2):
                child = alloc(t2)

                def state():
                    return (
                        d.alive,
                        child.alive,
                        d.region.outstanding_holes,
                        child.region.outstanding_holes,
                        d.lineage.find().holes,
                        child.holes_outstanding,
                    )

                seen["before"] = state()
                try:
                    fill_comp(child, d)  # d belongs to the outer region
                finally:
                    seen["after"] = state()

            with_region(inner)

        map_b(alloc(t), f)
        return None

    with pytest.raises(RegionMismatch):
        with_region(outer)
    # rejected before anything changed: both stay alive, counts unchanged
    assert seen["after"] == seen["before"]
    assert seen["before"][:2] == (True, True)


def test_writes_into_closed_region_rejected():
    kept = {}

    def body(t):
        t1, t2 = token_dup2(t)
        kept.update(d=alloc(t1).payload, child=alloc(t2))
        raise RuntimeError("leave the scope with both still live")

    with pytest.raises(RuntimeError):
        with_region(body)
    d, child = kept["d"], kept["child"]
    assert not d.region.alive
    with pytest.raises(RegionClosed):
        fill_leaf(5, d)
    with pytest.raises(RegionClosed):
        fill_comp(child, d)
    with pytest.raises(RegionClosed):
        destpass.region.write_field(d.region, d.cell, d.index, Leaf(5))
    assert d.alive and child.alive
    assert d.cell.slots == [d.region.hole]


_TOKEN_OPS = {
    "alloc": alloc,
    "into_incomplete": lambda t: into_incomplete(t, Cons(1, NIL), "list"),
    "token_dup2": token_dup2,
    "token_consume": token_consume,
}


@pytest.mark.parametrize("op", list(_TOKEN_OPS))
def test_a_closed_region_refuses_to_mint_and_keeps_the_token(op):
    kept = {}

    def body(t):
        kept["t"] = t
        raise RuntimeError("leave the scope with the token still live")

    with pytest.raises(RuntimeError):
        with_region(body)
    t = kept["t"]
    region = t.region

    def state():
        return t.alive, region._tokens_alive, region.outstanding_holes, region_stats(region)

    before = state()
    with pytest.raises(RegionClosed):
        _TOKEN_OPS[op](t)
    assert state() == before
    assert t.alive


@pytest.mark.parametrize("op", ["map_b", "from_incomplete_", "from_incomplete"])
def test_a_closed_region_refuses_a_finished_incomplete(op):
    kept = {}

    def body(t):
        kept["i"] = map_b(alloc(t), close_with(5))
        raise RuntimeError("leave the scope with a finished incomplete")

    with pytest.raises(RuntimeError):
        with_region(body)
    i, ran = kept["i"], []
    region = i.region

    def state():
        return (
            i.alive,
            i.holes_outstanding,
            (region._tokens_alive, region._incompletes_alive, region.outstanding_holes),
            region_stats(region),
        )

    calls = {
        "map_b": lambda: map_b(i, ran.append),
        "from_incomplete_": lambda: from_incomplete_(i),
        "from_incomplete": lambda: from_incomplete(i),
    }
    before = state()
    with pytest.raises(RegionClosed):
        calls[op]()
    assert state() == before
    assert i.alive and not ran


# Each builder operation given a handle of the wrong type, as
# call(live token, live empty incomplete, its root destination).
_WRONG_HANDLE = [
    ("token_consume", lambda t, i, d: token_consume(i)),
    ("token_dup2", lambda t, i, d: token_dup2(d)),
    ("alloc", lambda t, i, d: alloc(i)),
    ("into_incomplete", lambda t, i, d: into_incomplete(d, NIL, "list")),
    ("map_b", lambda t, i, d: map_b(t, lambda p: p)),
    ("from_incomplete_", lambda t, i, d: from_incomplete_(d)),
    ("from_incomplete", lambda t, i, d: from_incomplete(t)),
    ("fill", lambda t, i, d: fill(i, LIST_NIL)),
    ("fill_leaf", lambda t, i, d: fill_leaf(1, t)),
    ("fill_comp", lambda t, i, d: fill_comp(d, d)),
    ("fill_comp", lambda t, i, d: fill_comp(i, t)),
]


@pytest.mark.parametrize(
    "op, call", _WRONG_HANDLE, ids=[f"{op}-{n}" for n, (op, _) in enumerate(_WRONG_HANDLE)]
)
def test_a_wrong_typed_handle_is_a_type_error_naming_the_operation(op, call):
    def body(t):
        t1, t2 = token_dup2(t)
        i = alloc(t1)
        d, region = i.payload, t.region

        def state():
            return (
                (t2.alive, i.alive, d.alive, i.holes_outstanding),
                (region._tokens_alive, region._incompletes_alive, region.outstanding_holes),
                region_stats(region),
            )

        before = state()
        with pytest.raises(TypeError, match=rf"^{op} "):
            call(t2, i, d)
        assert state() == before
        token_consume(t2)
        return from_incomplete_(map_b(i, close_with(1)))

    assert with_region(body) == 1


def test_fill_leaf_into_recursive_hole_rejected():
    def body(t):
        region = t.region

        def f(d):
            dh, dt = fill(d, LIST_CONS)
            before = (region.outstanding_holes, dt.lineage.find().holes)
            with pytest.raises(UnknownCtor):
                fill_leaf(5, dt)  # tail hole expects a list
            assert dt.alive
            assert (region.outstanding_holes, dt.lineage.find().holes) == before
            fill_leaf(1, dh)
            fill(dt, LIST_NIL)
            return None

        return from_incomplete_(map_b(alloc(t), f))

    assert list(with_region(body)) == [1]


def test_fill_comp_rejects_a_child_of_another_type():
    """A finished tree plugged into a list's tail hole fails at the plug,
    as fill and fill_leaf fail on a mismatch, and changes nothing."""

    def body(t):
        region = t.region
        t1, t2 = token_dup2(t)
        tree = map_b(alloc(t2), lambda d: fill(d, TREE_NIL))

        def f(d):
            dh, dt = fill(d, LIST_CONS)
            fill_leaf(1, dh)

            def state():
                return (dt.alive, tree.alive, region.outstanding_holes,
                        dt.lineage.find().holes, tree.holes_outstanding)

            before = state()
            with pytest.raises(UnknownCtor):
                fill_comp(tree, dt)
            assert state() == before
            assert dh.cell.tail is region.hole
            fill(dt, LIST_NIL)
            return None

        out = from_incomplete_(map_b(alloc(t1), f))
        assert from_incomplete_(tree) is None
        return out

    assert list(with_region(body)) == [1]


def test_fill_comp_rejects_a_copied_child_of_another_type():
    """A tree copied in by into_incomplete is typed as a filled one is: in a
    list's tail hole it fails at the plug and changes nothing."""
    copied = Node(1, Node(2), None)

    def body(t):
        region = t.region
        t1, t2 = token_dup2(t)
        tree = into_incomplete(t2, copied, "tree")

        def f(d):
            dh, dt = fill(d, LIST_CONS)
            fill_leaf(1, dh)

            def state():
                return (dt.alive, tree.alive, region.outstanding_holes,
                        dt.lineage.find().holes, tree.holes_outstanding,
                        region_stats(region))

            before = state()
            with pytest.raises(UnknownCtor):
                fill_comp(tree, dt)
            assert state() == before
            assert dh.cell.tail is region.hole
            fill(dt, LIST_NIL)
            return None

        out = from_incomplete_(map_b(alloc(t1), f))
        return out, from_incomplete_(tree)

    out, tree = with_region(body)
    assert list(out) == [1]
    assert structurally_equal(tree, copied)


def test_empty_child_dest_takes_the_holes_place_and_kind():
    def body(t):
        t1, t2 = token_dup2(t)
        child = alloc(t2)

        def f(d):
            dh, dt = fill(d, LIST_CONS)
            fill_leaf(1, dh)
            moved = fill_comp(child, dt)
            assert moved is child.payload and moved.alive
            assert (moved.cell, moved.index, moved.kind) == (dt.cell, 1, dt.kind)
            with pytest.raises(UnknownCtor):
                fill(moved, TREE_NIL)  # checked now, against the list hole
            fill(moved, LIST_NIL)
            return None

        return from_incomplete_(map_b(alloc(t1), f))

    assert list(with_region(body)) == [1]


def test_release_returns_the_object_the_fills_built():
    def body(t):
        built = []

        def f(d):
            dh, dt = fill(d, LIST_CONS)
            built.append(dh.cell)
            fill_leaf(1, dh)
            return fill(dt, LIST_NIL)

        value = from_incomplete_(map_b(alloc(t), f))
        assert value is built[0] and type(value) is Cons
        return value

    assert list(with_region(body)) == [1]


def test_fill_comp_self_plug_rejected():
    def body(t):
        t1, t2 = token_dup2(t)
        i3 = map_b(alloc(t1), lambda d1: fill_comp(alloc(t2), d1))
        # i3's payload dest now belongs to i3's own lineage
        with pytest.raises(SelfPlug):
            fill_comp(i3, i3.payload)
        return from_incomplete_(map_b(i3, close_with(1)))

    assert with_region(body) == 1


def test_from_incomplete_returns_value_and_payload():
    def body(t):
        i = map_b(alloc(t), lambda d: (fill_leaf(4, d), ("state", 9))[1])
        return from_incomplete(i)

    assert with_region(body) == (4, ("state", 9))


def test_from_incomplete_unit_payload():
    def body(t):
        i = map_b(alloc(t), lambda d: (fill_leaf(4, d), None)[1])
        return from_incomplete(i)

    assert with_region(body) == (4, None)


def test_from_incomplete_unit_release_refuses_a_payload():
    def body(t):
        i = map_b(alloc(t), lambda d: (fill_leaf(4, d), ("state", 9))[1])
        _refused(lambda: from_incomplete_(i), [t.region], [i], TypeError)
        assert i.alive
        return from_incomplete(i)

    assert with_region(body) == (4, ("state", 9))


def test_from_incomplete_rejects_smuggled_dest():
    def body(t):
        t1, t2 = token_dup2(t)
        i2 = alloc(t2)
        # i1 completes, but its payload carries i2's live destination
        i1 = map_b(alloc(t1), lambda d: (fill_leaf(1, d), i2.payload)[1])
        from_incomplete(i1)

    with pytest.raises(LinearityLeak):
        with_region(body)


def test_from_incomplete_twice_fails():
    def body(t):
        i = map_b(alloc(t), close_with(2))
        assert from_incomplete_(i) == 2
        with pytest.raises(UseAfterConsume):
            from_incomplete_(i)
        return None

    with_region(body)


def test_hole_count_ledger():
    def body(t):
        i = alloc(t)
        assert i.holes_outstanding == 1

        def f(d):
            dh, dt = fill(d, LIST_CONS)  # -1 consumed, +2 fresh
            fill_leaf(1, dh)  # -1
            return dt

        i2 = map_b(i, f)
        assert i2.holes_outstanding == 1
        i3 = map_b(i2, lambda d: fill(d, LIST_NIL))
        assert i3.holes_outstanding == 0
        return from_incomplete_(i3)

    assert list(with_region(body)) == [1]


def test_fill_comp_merges_hole_counts():
    def body(t):
        t1, t2 = token_dup2(t)
        i1, i2 = alloc(t1), alloc(t2)
        assert (i1.holes_outstanding, i2.holes_outstanding) == (1, 1)
        i3 = map_b(i1, lambda d1: fill_comp(i2, d1))
        # -1 for the plugged dest, +1 inherited from the child
        assert i3.holes_outstanding == 1
        return from_incomplete_(map_b(i3, close_with(0)))

    assert with_region(body) == 0


def test_map_b_reports_how_many_dests_it_dropped():
    def body(t):
        t1, t2 = token_dup2(t)
        other = alloc(t2)

        def f(d):
            dv, dl, dr = fill(d, TREE_NODE)
            fill_leaf(0, dv)
            # a consumed dest and another lineage's dest count as not kept
            return dv, dl, other.payload

        map_b(alloc(t1), f)

    with pytest.raises(LinearityLeak, match=r"dropped 1 live destination\(s\)"):
        with_region(body)


def test_map_b_finds_destinations_among_dict_keys_and_values():
    def body(t):
        def split(d):
            dh, dt = fill(d, LIST_CONS)
            return {"head": dh, dt: "tail"}

        def finish(p):
            (dt,) = [k for k in p if k != "head"]
            fill_leaf(1, p["head"])
            fill(dt, LIST_NIL)

        return from_incomplete_(map_b(map_b(alloc(t), split), finish))

    assert list(with_region(body)) == [1]


def test_map_b_counts_a_destination_kept_twice_once():
    def body(t):
        i = map_b(alloc(t), lambda d: [d, d])
        return from_incomplete_(map_b(i, lambda p: fill_leaf(1, p[0])))

    assert with_region(body) == 1


def test_map_b_finds_a_drop_beside_a_destination_kept_in_a_dict():
    def body(t):
        dests = []

        def f(d):
            dests.extend(fill(d, LIST_CONS))
            return {"tail": dests[1]}

        with pytest.raises(LinearityLeak, match=r"dropped 1 live destination\(s\)"):
            map_b(alloc(t), f)
        fill_leaf(1, dests[0])
        fill(dests[1], LIST_NIL)

    with_region(body)


def test_from_incomplete_refuses_a_token_in_a_dict():
    def body(t):
        t1, t2 = token_dup2(t)
        i = map_b(alloc(t1), lambda d: (fill_leaf(1, d), {"t": t2})[1])
        _refused(lambda: from_incomplete(i), [t.region], [i, t2], LinearityLeak)
        token_consume(t2)
        return from_incomplete(i)[0]

    assert with_region(body) == 1


def test_map_b_finds_a_destination_in_a_plain_object():
    def body(t):
        i = map_b(alloc(t), lambda d: SimpleNamespace(d=d))
        return from_incomplete_(map_b(i, lambda ns: fill(ns.d, LIST_NIL)))

    assert list(with_region(body)) == []


def test_from_incomplete_refuses_a_token_in_a_plain_object():
    def body(t):
        t1, t2 = token_dup2(t)
        i = map_b(alloc(t1), lambda d: (fill_leaf(1, d), SimpleNamespace(tok=t2))[1])
        _refused(lambda: from_incomplete(i), [t.region], [i, t2], LinearityLeak)
        token_consume(t2)
        return from_incomplete(i)[0]

    assert with_region(body) == 1


def test_scope_audit_counts_dests_merged_by_fill_comp():
    def body(t):
        t1, t2 = token_dup2(t)
        child = map_b(alloc(t2), lambda d: fill(d, LIST_CONS))
        map_b(alloc(t1), lambda d: fill_comp(child, d))
        return 0

    with pytest.raises(
        LinearityLeak, match=r": 2 live destination\(s\), 1 live incomplete\(s\)$"
    ):
        with_region(body)


def test_failed_into_incomplete_leaves_no_holes_to_audit():
    def body(t):
        with pytest.raises(TypeError):
            into_incomplete(t, Cons(1, "not a list"), "list")
        # the failed copy left the token live
        assert t.alive and t.region._tokens_alive == 1
        token_consume(t)
        return 0

    assert with_region(body) == 0


def test_into_incomplete_of_cyclic_value_is_cyclic_structure():
    c = Cons(1, NIL)
    c.tail = c

    def body(t):
        region = t.region
        with pytest.raises(CyclicStructure):
            into_incomplete(t, c, "list")
        assert t.alive and region._tokens_alive == 1
        token_consume(t)
        return region.outstanding_holes

    assert with_region(body) == 0


def test_into_incomplete_copies_shared_nodes_once_per_reference():
    shared = Node(1, Node(2), None)
    dag = Node(0, shared, Node(3, shared, shared))

    def body(t):
        value = from_incomplete_(into_incomplete(t, dag, "tree"))
        return value, region_stats(t.region).cells_allocated

    value, cells = with_region(body)
    assert structurally_equal(value, dag)
    assert value.left is not value.right.left
    # three copies of shared (2 nodes and 3 nils each), plus the 2 outer nodes
    assert cells == 3 * 5 + 2


# Same type, tag and fields as LIST_CONS, but never registered.
_UNREGISTERED = CtorDescriptor("list", "cons", (LeafType("int"), LeafType("int")), Cons)


@pytest.mark.parametrize(
    "bad, hole",
    [(_UNREGISTERED, 1), (TREE_NODE, 1), (LIST_NIL, 0)],
    ids=["unregistered", "wrong-type", "ctor-into-leaf-hole"],
)
def test_failed_fill_changes_nothing(bad, hole):
    def body(t):
        region = t.region

        def f(d):
            dh, dt = fill(d, LIST_CONS)
            target = (dh, dt)[hole]
            before = (region.outstanding_holes, target.lineage.find().holes)
            with pytest.raises(UnknownCtor):
                fill(target, bad)
            assert target.alive
            assert (region.outstanding_holes, target.lineage.find().holes) == before
            fill_leaf(1, dh)
            fill(dt, LIST_NIL)
            return None

        return from_incomplete_(map_b(alloc(t), f))

    assert list(with_region(body)) == [1]


def test_fill_leaf_of_self_containing_payload():
    x = []
    x.append(x)

    def body(t):
        def f(d):
            dh, dt = fill(d, LIST_CONS)
            fill_leaf(x, dh)
            fill(dt, LIST_NIL)
            return None

        return from_incomplete_(map_b(alloc(t), f))

    head = with_region(body).head
    assert head is not x and head[0] is head


@given(st.integers(0, 2**32), st.sampled_from(["list", "tree", "sexpr"]))
@settings(max_examples=60, deadline=None)
def test_random_build_matches_oracle(seed, type_id):
    rng = random.Random(seed)
    value = random_value(type_id, rng, depth=5)
    rebuilt = build_top_down(value, type_id, rng, splice_prob=0.2)
    assert structurally_equal(rebuilt, value)


@given(st.sampled_from(CASE_TYPES), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_fill_and_copy_charge_the_same(type_id, seed):
    """A value built through fill and the same value copied by
    into_incomplete decode alike and cost the same, but for the receiver."""
    rng = random.Random(seed)
    value = random_value(type_id, rng, depth=4)
    built, by_fill = build_top_down(value, type_id, rng, with_stats=True)

    def copy(t):
        out = from_incomplete_(into_incomplete(t, value, type_id))
        return out, region_stats(t.region)

    copied, by_copy = with_region(copy)
    assert structurally_equal(built, value) and structurally_equal(copied, value)
    assert by_fill.cells_allocated == by_copy.cells_allocated
    assert by_fill.leaf_copies == by_copy.leaf_copies
    assert by_fill.bytes_allocated - by_copy.bytes_allocated == 2 * WORD


# A type with one constructor of each arity 0..4; wN's fields are all "wide".
_WIDE_REGISTRY = ShapeRegistry()
_WIDE = tuple(
    CtorDescriptor("wide", f"w{n}", [Recursive("wide")] * n, (lambda *kids: kids) if n else list)
    for n in range(5)
)
_WIDE_REGISTRY.register(TypeShape("wide", _WIDE))


def _fill_wide(d, n, fills):
    """Fill ``d`` with wN, whose holes get w(N-1), down to w0."""
    pending = [(d, n)]
    while pending:
        d, n = pending.pop()
        fills.append(n)
        out = fill(d, _WIDE[n])
        dests = () if n == 0 else (out,) if n == 1 else out
        pending.extend((child, n - 1) for child in dests)


def test_each_fill_is_one_region_call(monkeypatch):
    # The region layer's spans come from wrapping this module attribute; a
    # fill that bypassed it would drop out of the trace without an error.
    calls, fills = [], []
    real = destpass.region.alloc_hollow

    def counted(region, c, *args):
        calls.append(c.arity)
        return real(region, c, *args)

    monkeypatch.setattr(destpass.region, "alloc_hollow", counted)

    def body(t):
        out = from_incomplete_(map_b(alloc(t), lambda d: _fill_wide(d, 4, fills)))
        return out, region_stats(t.region).cells_allocated

    value, cells = with_region(body, registry=_WIDE_REGISTRY)
    assert calls == fills and sorted(set(fills)) == [0, 1, 2, 3, 4]
    assert cells == len(fills) == 1 + 4 + 12 + 24 + 24
    assert len(value) == 4 and value[0][0][0] == ([],)


def test_each_nullary_occurrence_decodes_by_its_own_make():
    def body(t):
        return from_incomplete_(map_b(alloc(t), lambda d: _fill_wide(d, 2, [])))

    (a,), (b,) = with_region(body, registry=_WIDE_REGISTRY)
    assert a == b == [] and a is not b


# -- fill with leaf values -------------------------------------------------------


@pytest.mark.parametrize(
    "case, error",
    [
        ("one too many", TypeError),
        ("one too few", TypeError),
        ("nullary", TypeError),
        ("live dest", DestinationInLeaf),
        ("too deep", LeafTooDeep),
        ("closed", RegionClosed),
        ("filled", DoubleFill),
    ],
)
def test_a_refused_fill_with_leaves_changes_nothing(case, error):
    """On a closed region RegionClosed comes before the bad leaf is copied."""
    region = region_new()
    t1, t2 = token_dup2(Token(region))
    i, j = alloc(t1), alloc(t2)
    d, e = i.payload, j.payload
    ctor, leaves = LIST_CONS, (1, ...)
    if case == "one too many":
        leaves = (1, ..., 2)
    elif case == "one too few":
        ctor, leaves = SEXPR_SINTEGER, (1,)
    elif case == "nullary":
        ctor = LIST_NIL
    elif case == "live dest":
        leaves = ([e], ...)
    elif case == "too deep":
        leaves = (too_deep_leaf("nested list"), ...)
    elif case == "closed":
        region._close()
        leaves = ([e], ...)
    else:
        write_field(region, d.cell, d.index, Leaf(0))
    where = (d.cell, d.index, d.kind, d.cell.slots[0])
    _refused(lambda: fill(d, ctor, *leaves), [region], [i, j, d, e], error)
    assert d.alive and (d.cell, d.index, d.kind, d.cell.slots[0]) == where


# -- fill with one argument per field ---------------------------------------------

# Per parent, built in place (Node, Cons) or as a raw cell (w2): its registry,
# a fill of it with one argument per field, and a Recursive place and the
# nullary constructor of that place's type.
_CONTEXTS = {
    "Node": (DEFAULT_REGISTRY, TREE_NODE, (1, TREE_NIL, ...), 1, TREE_NIL),
    "Cons": (DEFAULT_REGISTRY, SEXPR_LIST_CONS, (..., SEXPR_LIST_NIL), 1, SEXPR_LIST_NIL),
    "w2": (_WIDE_REGISTRY, _WIDE[2], (_WIDE[0], ...), 0, _WIDE[0]),
}
_CONTEXT_REFUSALS = ("not a descriptor", "not nullary", "another type", "unregistered")


@pytest.mark.parametrize(
    "parent, refusal",
    [(p, r) for p in _CONTEXTS for r in _CONTEXT_REFUSALS]
    + [("Node", "... at a leaf place")],  # the one parent with a leaf place
)
def test_a_refused_context_fill_changes_nothing(parent, refusal):
    """Each refusal at a Recursive place changes nothing; ``...`` at a leaf
    place of the node a fill writes is no refusal, but a hole there."""
    registry, ctor, args, at, nil = _CONTEXTS[parent]
    region = region_new(registry=registry)
    t1, t2 = token_dup2(Token(region))
    i, j = alloc(t1), alloc(t2)
    d, e = i.payload, j.payload
    at, value, error = {
        "not a descriptor": (at, nil.make(), TypeError),
        "not nullary": (at, ctor, UnknownCtor),
        "another type": (at, LIST_NIL, UnknownCtor),
        "unregistered": (at, CtorDescriptor(nil.type_id, nil.name, (), nil.make), UnknownCtor),
        "... at a leaf place": (0, ..., None),
    }[refusal]
    args = (*args[:at], value, *args[at + 1 :])
    if error is None:
        holes = fill(d, ctor, *args)
        assert [(h.index, h.kind, h.alive) for h in holes] == [
            (0, ctor.fields[0], True), (2, ctor.fields[2], True)
        ]
        return
    where = (d.cell, d.index, d.kind, d.cell.slots[0])
    _refused(lambda: fill(d, ctor, *args), [region], [i, j, d, e], error)
    assert d.alive and (d.cell, d.index, d.kind, d.cell.slots[0]) == where


# Per parent, built in place (Node, Cons) or as a raw cell (w2): its
# registry, a fill of it with a complete nested context, the place of that
# context, and a refusal of each kind at that place; "second leaf" breaks a
# nested leaf that comes after a good one, "... at a leaf" puts ... at one,
# and the "nested ..." refusals leave a hole in the nested node: at a
# Recursive field, as no arguments, or as leaves only.
_NESTED = {
    "Node": (
        DEFAULT_REGISTRY, TREE_NODE, (1, (TREE_NODE, 2, TREE_NIL, TREE_NIL), ...), 1,
        {
            "first item": ("x", 2, TREE_NIL, TREE_NIL),
            "another type": (SEXPR_LIST_NIL,),
            "unregistered": (CtorDescriptor("tree", "node", TREE_NODE.fields, Node), 2),
            "argument count": (TREE_NODE, 2, TREE_NIL),
            "... at a leaf": (TREE_NODE, ..., TREE_NIL, TREE_NIL),
            "nested ...": (TREE_NODE, 2, TREE_NIL, ...),
            "nested no arguments": (TREE_NODE,),
            "nested leaves only": (TREE_NODE, 2),
        },
    ),
    "Cons": (
        DEFAULT_REGISTRY, SEXPR_LIST_CONS, ((SEXPR_SINTEGER, 3, 4), ...), 0,
        {
            "first item": (SInteger, 3, 4),
            "another type": (LIST_CONS, 3),
            "unregistered": (
                CtorDescriptor("sexpr", "SInteger", SEXPR_SINTEGER.fields, SInteger), 3, 4
            ),
            "argument count": (SEXPR_SINTEGER, 3),
            "... at a leaf": (SEXPR_SINTEGER, ..., 4),
            "nested ...": (SEXPR_SLIST, 3, ...),
            "nested no arguments": (SEXPR_SLIST,),
            "nested leaves only": (SEXPR_SLIST, 3),
        },
    ),
    "w2": (
        _WIDE_REGISTRY, _WIDE[2], ((_WIDE[1], _WIDE[0]), ...), 0,
        {
            "first item": ((), _WIDE[0]),
            "another type": (LIST_NIL,),
            "unregistered": (
                CtorDescriptor("wide", "w1", _WIDE[1].fields, _WIDE[1].make), _WIDE[0]
            ),
            "argument count": (_WIDE[1], _WIDE[0], _WIDE[0]),
            "nested ...": (_WIDE[1], ...),
            "nested no arguments": (_WIDE[1],),
        },
    ),
}
_NESTED_ERRORS = {
    "first item": TypeError,
    "another type": UnknownCtor,
    "unregistered": UnknownCtor,
    "argument count": TypeError,
    "... at a leaf": TypeError,
    "second leaf": DestinationInLeaf,
    "nested ...": TypeError,
    "nested no arguments": TypeError,
    "nested leaves only": TypeError,
}


@pytest.mark.parametrize(
    "parent, refusal",
    [(p, r) for p in _NESTED for r in _NESTED[p][4]]
    + [("Node", "second leaf"), ("Cons", "second leaf")],  # w2 has no leaf
)
def test_a_refused_nested_context_fill_changes_nothing(parent, refusal):
    """Every node of a context is checked before anything changes, on the
    generated allocators' path and on the raw-cell path alike; each fill
    here is good but for the one refusal at the nested place. Only the
    node a fill writes may have holes."""
    registry, ctor, args, at, refusals = _NESTED[parent]
    region = region_new(registry=registry)
    t1, t2 = token_dup2(Token(region))
    i, j = alloc(t1), alloc(t2)
    d, e = i.payload, j.payload
    if refusal == "second leaf":  # its first leaf is copied, its second holds a Dest
        bad = (*args[at][:2], [e], *args[at][3:])
        if ctor is TREE_NODE:  # one leaf per node: a second nested node's leaf
            args, at, bad = (1, args[1], ...), 2, (TREE_NODE, [e], TREE_NIL, TREE_NIL)
    else:
        bad = refusals[refusal]
    args = (*args[:at], bad, *args[at + 1 :])
    where = (d.cell, d.index, d.kind, d.cell.slots[0])
    _refused(lambda: fill(d, ctor, *args), [region], [i, j, d, e], _NESTED_ERRORS[refusal])
    assert d.alive and (d.cell, d.index, d.kind, d.cell.slots[0]) == where


@pytest.mark.parametrize("hole", ["receiver", "Recursive", "leaf", "raw", "raw into"])
@pytest.mark.parametrize(
    "ctor", ["x", Recursive("list"), None], ids=["str", "Recursive", "None"]
)
def test_a_fill_of_what_is_no_descriptor_is_a_type_error(hole, ctor):
    """At every kind of hole, and in a raw allocation with and without a
    target, a fill of no descriptor raises TypeError and changes nothing."""
    region = region_new()
    t1, t2 = token_dup2(Token(region))
    i, j = alloc(t1), alloc(t2)
    d, e = i.payload, j.payload
    if hole == "Recursive":
        _, e = fill(e, LIST_CONS)
    elif hole == "leaf":
        e, _ = fill(e, LIST_CONS)
    if hole.startswith("raw"):
        into = e.cell if hole == "raw into" else None
        call = lambda: alloc_hollow(region, ctor, into, e.index)  # noqa: E731
    else:
        call = lambda: fill(e, ctor)  # noqa: E731
    _refused(call, [region], [i, j, d, e], TypeError)
    assert e.alive


def test_a_raw_fill_names_its_hole_by_a_live_dest_alone():
    """A Dest beside another target is refused by arity, and a consumed
    Dest, whose hole fill_comp of an empty child left open behind the
    child's Dest, raises UseAfterConsume: neither changes anything, and
    the hole stays the live Dest's to fill."""
    region = region_new()
    t1, t2 = token_dup2(Token(region))
    i, j = alloc(t1), alloc(t2)
    d, e = i.payload, j.payload
    fill_comp(j, d)
    cons = alloc_hollow(region, LIST_CONS)
    handles = [i, j, d, e]
    _refused(lambda: alloc_hollow(region, LIST_NIL, cons, 1, (), e), [region], handles, TypeError)
    _refused(lambda: alloc_hollow(region, LIST_NIL, d, 0, ()), [region], handles, UseAfterConsume)
    assert fill(e, LIST_NIL) is None
    assert to_pylist(from_incomplete_(map_b(i, lambda _: None))) == []


def _holes(out) -> list:
    """The destinations a fill returned, as a list."""
    return [] if out is None else [out] if type(out) is not tuple else list(out)


def _finish(d, registry, leaf=0):
    """Fill ``d`` with ``leaf``, or with the first constructor of its type
    that has no Recursive field, its leaves all ``leaf``."""
    if type(d.kind) is LeafType:
        fill_leaf(leaf, d)
        return
    c = next(c for c in registry.shape(d.kind.type_id).ctors if not c.kids)
    fill(d, c, *[leaf] * len(c.leaves))


_WITH_KIDS = {
    "Node": (DEFAULT_REGISTRY, TREE_NODE),
    "Cons": (DEFAULT_REGISTRY, LIST_CONS),
    "sexpr Cons": (DEFAULT_REGISTRY, SEXPR_LIST_CONS),
    "SList": (DEFAULT_REGISTRY, SEXPR_SLIST),
    **{f"w{n}": (_WIDE_REGISTRY, _WIDE[n]) for n in range(1, 5)},
}
# Leaves a generated allocator keeps as given, and ones it leaves to the
# generic path when they stand in a nested context.
_LEAVES = st.one_of(st.integers(-5, 5), st.binary(max_size=9), st.tuples(st.integers(0, 3)))


def _draw_context(data, registry, ctor, depth, nested=False):
    """Arguments of ``ctor``, one per field: each leaf ``...`` or drawn from
    ``_LEAVES``, each Recursive field ``...``, a nullary constructor of its
    type or, while ``depth`` lasts, a nested context of any of the three
    forms; and whether a hole stands in a nested context, below the node
    that the fill writes."""
    args, holed = [], False
    for kind in ctor.fields:
        if type(kind) is not Recursive:
            args.append(data.draw(st.one_of(st.just(...), _LEAVES)))
            holed = holed or nested and args[-1] is ...
            continue
        ctors = registry.shape(kind.type_id).ctors
        pick = data.draw(st.sampled_from(
            [..., *(c for c in ctors if not c.arity), *(["context"] if depth > 1 else [])]
        ))
        if pick != "context":
            args.append(pick)
            holed = holed or nested and pick is ...
            continue
        c = data.draw(st.sampled_from(ctors))
        form = data.draw(st.sampled_from(["none", "leaves", "fields", "fields"]))
        if form == "none":
            args.append((c,))
            holed = holed or bool(c.arity)
        elif form == "leaves":
            args.append((c, *[data.draw(_LEAVES) for _ in c.leaves]))
            holed = holed or bool(c.kids)
        else:
            below, below_holed = _draw_context(data, registry, c, depth - 1, nested=True)
            args.append((c, *below))
            holed = holed or below_holed
    return args, holed


def _fill_depth_one(d, ctor, args) -> list:
    """Fill ``d`` with the context ``ctor(*args)`` one node per fill, with
    no arguments, and each leaf by ``fill_leaf``; return the holes left, in
    declaration order."""
    holes = []
    for (i, kind), hole in zip(ctor.places, _holes(fill(d, ctor))):
        if args[i] is ...:
            holes.append(hole)
        elif type(kind) is not Recursive:
            fill_leaf(args[i], hole)
        elif type(args[i]) is tuple:
            _fill_depth_one(hole, args[i][0], args[i][1:])
        else:
            fill(hole, args[i])
    return holes


@given(st.sampled_from(sorted(_WITH_KIDS)), st.data())
@settings(max_examples=150, deadline=None)
def test_a_context_fill_equals_its_depth_one_fills(name, data):
    """``fill`` with a context up to three nodes deep, ``...`` or a leaf at
    its leaf fields and ``...``, nullary constructors and complete nested
    contexts at its Recursive fields, leaves the same state as one fill per
    node with no arguments and a ``fill_leaf`` per leaf, and, once the holes
    left are filled in the order the fills returned them, releases an equal
    value, with an object from ``make`` per nullary occurrence. A context
    with a hole in a nested node is refused with TypeError and changes
    nothing. A fill with no arguments is one with ``...`` at every field."""
    registry, ctor = _WITH_KIDS[name]
    args, holed = _draw_context(data, registry, ctor, 3)
    if holed:
        region = region_new(registry=registry)
        i = alloc(Token(region))
        _refused(lambda: fill(i.payload, ctor, *args), [region], [i, i.payload], TypeError)
        return

    def run(build):
        def body(t):
            i = alloc(t)
            holes = build(i.payload)
            where = [  # each hole's node, field and kind, in the order returned
                (h.cell.ctor if type(h.cell) is CellRef else type(h.cell), h.index, h.kind)
                for h in holes
            ]
            before = ledger_state([t.region], [i])
            for n, hole in enumerate(holes):
                _finish(hole, registry, n)
            after = ledger_state([t.region], [i])
            done = from_incomplete_(map_b(i, lambda _: None))
            return done, where, before, after, ledger_state([t.region], [])

        return with_region(body, registry=registry)

    built, *states = run(lambda d: _holes(fill(d, ctor, *args)))
    expected, *expected_states = run(lambda d: _fill_depth_one(d, ctor, args))
    assert states == expected_states
    assert structurally_equal(built, expected)
    none, *none_states = run(lambda d: _holes(fill(d, ctor)))
    every, *every_states = run(lambda d: _holes(fill(d, ctor, *[...] * ctor.arity)))
    assert none_states == every_states and structurally_equal(none, every)
    if ctor.type_id == "wide":  # w0 makes a fresh list each time
        made, stack = [], [built]
        while stack:
            x = stack.pop()
            made += [x] if type(x) is list else []
            stack += x if type(x) is tuple else []
        assert len({id(x) for x in made}) == len(made)


@dataclass
class _Tri:
    a: Any
    b: Any
    c: Any


@dataclass
class _Quad:
    n: Any
    a: Any
    b: Any
    c: Any


# The case studies' shapes, one with three Recursive fields and one with a
# leaf and three Recursive fields, each built in place in
# _IN_PLACE_REGISTRY; and per constructor a twin that builds as raw cells,
# since its make is no class, so that every fill of it with fields takes
# the generic path.
_SHAPES = [DEFAULT_REGISTRY.shape(t) for t in ("list", "tree", "sexpr", "sexpr_list")] + [
    TypeShape("tri", (CtorDescriptor("tri", "nil", (), lambda: None),
                      CtorDescriptor("tri", "tri", (Recursive("tri"),) * 3, _Tri))),
    TypeShape("quad", (CtorDescriptor("quad", "nil", (), lambda: None),
                       CtorDescriptor("quad", "quad", (LeafType("int"), *(Recursive("quad"),) * 3),
                                      _Quad))),
]
_IN_PLACE_REGISTRY, _TWIN_REGISTRY = ShapeRegistry(), ShapeRegistry()
_IN_PLACE_REGISTRY.register(*_SHAPES)
_TWINS = {
    c: CtorDescriptor(c.type_id, c.name, c.fields, (lambda *a, m=c.make: m(*a)) if c.arity else c.make)
    for s in _SHAPES
    for c in s.ctors
}
_TWIN_REGISTRY.register(*(TypeShape(s.type_id, tuple(map(_TWINS.get, s.ctors))) for s in _SHAPES))
_IN_PLACE = [c for c in _TWINS if c.arity]
# Per type, a constructor with a hole of that type, and that hole's place.
_PARENTS = {k.type_id: (c, i) for c in _IN_PLACE for i, k in c.kids}
_FILL_REFUSALS = ["extra argument", "dest in a leaf", "closed", "filled", "wrong kind", "consumed"]


def _on_twin(a):
    """Fill arguments ``a`` with every descriptor replaced by its twin."""
    if type(a) is CtorDescriptor:
        return _TWINS[a]
    if type(a) is tuple and a and type(a[0]) is CtorDescriptor:
        return (_TWINS[a[0]], *map(_on_twin, a[1:]))
    return a


def _fill_once(registry, ctor, args, target, refusal):
    """Fill ``ctor(*args)`` into a receiver or into a hole of a parent, after
    ``refusal``. A refused fill must change nothing; return its error type.
    Else return what the fill returned and left, then the released value."""
    twin = _on_twin if registry is _TWIN_REGISTRY else lambda a: a
    ctor, args = twin(ctor), tuple(map(twin, args))
    region = region_new(registry=registry)
    t1, t2 = token_dup2(Token(region))
    i, j = alloc(t1), alloc(t2)
    d, e = i.payload, j.payload
    others = []
    if target == "field" or refusal == "wrong kind":  # a leaf takes no constructor
        parent, at = (TREE_NODE, 0) if refusal == "wrong kind" else _PARENTS[ctor.type_id]
        others = _holes(fill(d, twin(parent)))
        d = others.pop(at)
    if refusal == "extra argument":
        args = (*args, 0)
    elif refusal == "dest in a leaf":
        at = ctor.leaves[0]
        args = (*args[:at], [e], *args[at + 1 :])
    elif refusal == "closed":
        region._close()
    elif refusal == "filled":
        write_field(region, d.cell, d.index, Leaf(0))
    call = lambda: fill(d, ctor, *args)  # noqa: E731
    if refusal == "consumed":  # d's hole stays open, now behind e
        fill_comp(j, d)
        call = lambda: alloc_hollow(region, ctor, d, 0, args)  # noqa: E731
    handles = [i, j, d, e, *others]
    before = ledger_state([region], handles)
    try:
        out = call()
    except (DpsError, TypeError) as error:
        assert ledger_state([region], handles) == before
        return type(error)
    holes = _holes(out)
    returned = (
        type(out).__name__,
        [(h.index, h.kind, h.alive) for h in holes],
        [h.lineage.find().holes for h in holes],
        (i.lineage.type_id, i.lineage.dest),  # what filled the receiver, if anything
        ledger_state([region], handles),
    )
    for n, hole in enumerate(holes + others):
        _finish(hole, registry, n)
    fill_leaf(0, e)
    value = from_incomplete_(map_b(i, lambda _: None))
    from_incomplete_(map_b(j, lambda _: None))
    return returned, value, region_stats(region)


@given(st.sampled_from(_IN_PLACE), st.data())
@settings(max_examples=300, deadline=None)
def test_the_generated_fill_agrees_with_the_generic_path(ctor, data):
    """Every form of fill, into a receiver or into a host object's hole,
    leaves the same Dests, counts and stats, and releases an equal value,
    whether the generated fill of an in-place constructor builds it or the
    generic path builds its raw-cell twin; a refused fill raises the same
    error on both and changes nothing."""
    form = data.draw(st.sampled_from(["none", "leaves", "fields"]))
    args = ()
    if form == "leaves":
        args = tuple(... if type(k) is Recursive else data.draw(_LEAVES) for k in ctor.fields)
    elif form == "fields":
        args = tuple(_draw_context(data, _IN_PLACE_REGISTRY, ctor, 3)[0])
    refusal = data.draw(st.sampled_from([None] * 5 + _FILL_REFUSALS))
    if refusal == "dest in a leaf" and not (args and ctor.leaves):
        refusal = None
    target = data.draw(st.sampled_from(["receiver", "field"]))
    built = _fill_once(_IN_PLACE_REGISTRY, ctor, args, target, refusal)
    generic = _fill_once(_TWIN_REGISTRY, ctor, args, target, refusal)
    if type(built) is type:
        assert built is generic
        return
    assert built[0] == generic[0] and built[2] == generic[2]
    assert structurally_equal(built[1], generic[1])


_DEEP = 10**5


def _deep_context(case, e):
    """A context nested ``_DEEP`` deep, built without recursion: a list
    whose cells are built in place, or w1 nodes built as raw cells, ending
    in nil, in a hole, or in a refusal."""
    if case.startswith("raw"):
        bottom = {"raw refused": ("x",), "raw hole at the bottom": ...}
        context = bottom.get(case, _WIDE[0])
        for _ in range(_DEEP):
            context = (_WIDE[1], context)
        return _WIDE_REGISTRY, context
    bottom = {"in place": LIST_NIL, "hole at the bottom": ...}
    context = bottom.get(case, (LIST_CONS, [e], LIST_NIL))
    for x in range(_DEEP):
        context = (LIST_CONS, x, context)
    return DEFAULT_REGISTRY, context


_DEEP_REFUSALS = {
    "hole at the bottom": TypeError,
    "raw hole at the bottom": TypeError,
    "in place refused": DestinationInLeaf,
    "raw refused": TypeError,
}


@pytest.mark.parametrize("case", ["in place", "raw", *_DEEP_REFUSALS])
def test_a_context_nested_deep_builds_or_is_refused_without_recursion(case):
    """No part of a fill recurses on a context's depth: a context nested
    10^5 deep builds, or is refused and changes nothing, a hole at its
    bottom included."""
    region = region_new(registry=_deep_context(case, None)[0])
    t1, t2 = token_dup2(Token(region))
    i, j = alloc(t1), alloc(t2)
    d, e = i.payload, j.payload
    registry, (ctor, *args) = _deep_context(case, e)
    if case in _DEEP_REFUSALS:
        _refused(lambda: fill(d, ctor, *args), [region], [i, j, d, e], _DEEP_REFUSALS[case])
        return
    assert fill(d, ctor, *args) is None
    value = from_incomplete_(map_b(i, lambda _: None))
    stats = region_stats(region)
    assert (stats.cells_allocated, stats.leaf_copies) == (_DEEP + 1, 0 if case == "raw" else _DEEP)
    if case == "raw":
        for _ in range(_DEEP):
            (value,) = value
        assert value == []
    else:
        assert to_pylist(value) == list(reversed(range(_DEEP)))
    fill_leaf(0, e)
    from_incomplete_(map_b(j, lambda _: None))


# Per class, built in place as a plain object, with slots, and frozen: its
# constructor and leaves, and a parent constructor, with its leaves, whose
# first hole takes it.
_ALLOCATIONS = {
    "Node": (TREE_NODE, (1, ..., ...), TREE_NODE, (0, ..., ...)),
    "Cons": (LIST_CONS, (1, ...), LIST_CONS, (0, ...)),
    "SInteger": (SEXPR_SINTEGER, (3, 42), SEXPR_LIST_CONS, ()),
}


def _field(cell, index):
    if type(cell) is CellRef:
        return cell.slots[index]
    return getattr(cell, DEFAULT_REGISTRY.host_fields[type(cell)][index])


@pytest.mark.parametrize("cls", list(_ALLOCATIONS))
@pytest.mark.parametrize("target", ["receiver", "host parent"])
@pytest.mark.parametrize(
    "refusal, error",
    [
        ("closed region", RegionClosed),
        ("another region's hole", RegionMismatch),
        ("double fill", DoubleFill),
        ("index out of range", FieldIndexOutOfRange),
        ("unregistered constructor", UnknownCtor),
        ("wrong leaf count", TypeError),
        ("leaf holds a dest", DestinationInLeaf),
        ("too deep leaf", LeafTooDeep),
    ],
)
def test_a_refused_allocation_changes_nothing(cls, target, refusal, error):
    """The allocator generated for each class hands every call it does not
    build to the generic checks, which raise as they always have."""
    ctor, leaves, parent, parent_leaves = _ALLOCATIONS[cls]
    region, other = region_new(), region_new()
    t1, t2 = token_dup2(Token(region))
    i, j = alloc(t1), alloc(t2)
    d, e = i.payload, j.payload
    if target == "host parent":
        d = fill(d, parent, *parent_leaves)
        d = d[0] if type(d) is tuple else d
    into, index, at = d.cell, d.index, region
    if refusal == "closed region":
        region._close()
    elif refusal == "another region's hole":
        at = other
    elif refusal == "double fill":
        write_field(region, into, index, Leaf(0))
    elif refusal == "index out of range":
        index = 5
    elif refusal == "unregistered constructor":
        ctor = CtorDescriptor(ctor.type_id, ctor.name, ctor.fields, ctor.make)
    elif refusal == "wrong leaf count":
        leaves += (0,)
    else:
        payload = [e] if refusal == "leaf holds a dest" else too_deep_leaf("nested list")
        leaves = (payload, *leaves[1:])
    where = (d.cell, d.index, d.kind, _field(d.cell, d.index))
    _refused(
        lambda: alloc_hollow(at, ctor, into, index, leaves), [region, other], [i, j, d, e], error
    )
    assert d.alive and (d.cell, d.index, d.kind, _field(d.cell, d.index)) == where


def _build_list(xs, with_leaves, registry=None, cons=LIST_CONS, nil=LIST_NIL):
    """The released list of ``xs``, built one cons per fill, and its stats."""

    def body(t):
        def f(d):
            for x in xs:
                if with_leaves:
                    d = fill(d, cons, x, ...)
                else:
                    dh, d = fill(d, cons)
                    fill_leaf(x, dh)
            fill(d, nil)

        return from_incomplete_(map_b(alloc(t), f)), region_stats(t.region)

    return with_region(body, registry=registry)


@pytest.mark.parametrize(
    "xs", [list(range(50)), [1, "two", b"three", 4.0, None, True, (5, [6]), {"k": "v"}]]
)
def test_a_fill_with_leaves_builds_and_charges_as_fill_leaf_does(xs):
    built, by_leaves = _build_list(xs, with_leaves=True)
    same, by_fill_leaf = _build_list(xs, with_leaves=False)
    assert list(built) == list(same) == xs
    assert by_leaves == by_fill_leaf


def test_a_leaf_of_a_fill_is_a_copy():
    source = [1, [2]]

    def body(t):
        def f(d):
            fill(fill(d, LIST_CONS, source, ...), LIST_NIL)
            source[1].append(3)

        return from_incomplete_(map_b(alloc(t), f))

    assert with_region(body).head == [1, [2]]


class _Str(str):
    pass


class _Color(IntEnum):
    RED = 1


def test_a_scalar_subclass_in_a_leaf_is_copied_so_it_carries_no_handle():
    region = region_new()
    t1, t2 = token_dup2(Token(region))
    i, j = alloc(t1), alloc(t2)
    d, e = i.payload, j.payload
    smuggler = _Str("a")
    smuggler.smuggled = e
    where = (d.cell, d.index, d.kind, d.cell.slots[0])
    _refused(lambda: fill(d, LIST_CONS, smuggler, ...), [region], [i, j, d, e])
    _refused(lambda: fill_leaf(smuggler, d), [region], [i, j, d, e])
    assert d.alive and (d.cell, d.index, d.kind, d.cell.slots[0]) == where
    tagged = _Str("b")
    tagged.tags = [1]
    fill(fill(d, LIST_CONS, tagged, ...), LIST_NIL)
    tagged.tags.append(2)
    fill_leaf(_Color.RED, e)
    built, red = from_incomplete(i)[0], from_incomplete(j)[0]
    assert built.head == "b" and built.head is not tagged and built.head.tags == [1]
    assert red is _Color.RED


def test_an_int_subclass_fills_and_is_charged_as_an_int():
    built, stats = _build_list([_Color.RED], with_leaves=True)
    assert built.head is _Color.RED and stats == _build_list([1], with_leaves=True)[1]


def test_map_b_and_from_incomplete_look_inside_a_scalar_subclass():
    def body(t):
        t1, t2 = token_dup2(t)
        carrier = _Str("c")

        def keep(d):
            carrier.dest = d
            return carrier

        i = map_b(alloc(t1), keep)
        fill_leaf(0, carrier.dest)
        carrier.token = t2
        with pytest.raises(LinearityLeak):
            from_incomplete(i)
        token_consume(t2)
        return from_incomplete(i)[0]

    assert with_region(body) == 0


_LAMBDA_REGISTRY = ShapeRegistry()
_LAMBDA_NIL = CtorDescriptor("lp", "nil", (), lambda: None)
_LAMBDA_PAIR = CtorDescriptor(
    "lp", "pair", (LeafType("int"), Recursive("lp")), lambda a, b: (a, b)
)
_LAMBDA_REGISTRY.register(TypeShape("lp", (_LAMBDA_NIL, _LAMBDA_PAIR)))


def test_a_fill_with_leaves_writes_a_raw_cell():
    """A constructor whose make is a lambda is built as a raw cell."""

    def body(t):
        def f(d):
            tail = fill(d, _LAMBDA_PAIR, 1, ...)
            assert type(tail.cell) is CellRef and tail.cell.slots[0] == 1
            fill(fill(tail, _LAMBDA_PAIR, [2], ...), _LAMBDA_NIL)

        return from_incomplete_(map_b(alloc(t), f)), region_stats(t.region)

    built, stats = with_region(body, registry=_LAMBDA_REGISTRY)
    assert built == (1, ([2], None))
    xs = [1, [2]]
    assert _build_list(xs, False, _LAMBDA_REGISTRY, _LAMBDA_PAIR, _LAMBDA_NIL)[1] == stats


def test_a_fill_with_leaves_builds_frozen_dataclasses_in_place():
    """A frozen SList takes its leaf and the link to its children."""
    assert DEFAULT_REGISTRY.setters[SList] is object.__setattr__
    assert DEFAULT_REGISTRY.setters[Cons] is setattr

    def body(t):
        i = alloc(t)
        d_children = fill(i.payload, SEXPR_SLIST, 9, ...)
        d_head, d_tail = fill(d_children, SEXPR_LIST_CONS)
        assert fill(d_head, SEXPR_SINTEGER, 3, 42) is None
        fill(d_tail, SEXPR_LIST_NIL)
        return from_incomplete(i)[0]

    built = with_region(body)
    assert type(built) is SList and built == SList(9, Cons(SInteger(3, 42), NIL))


@dataclass
class _Guarded:
    a: Any
    b: Any

    def __setattr__(self, name, value):
        raise AssertionError("a fill ran __setattr__")


def test_a_class_with_its_own_setattr_builds_in_place_without_running_it():
    reg = ShapeRegistry()
    nil = CtorDescriptor("g", "nil", (), lambda: None)
    pair = CtorDescriptor("g", "pair", (LeafType("int"), Recursive("g")), _Guarded)
    reg.register(TypeShape("g", (nil, pair)))
    assert reg.resolve(pair) == ("a", "b") and reg.setters[_Guarded] is object.__setattr__

    def body(t):
        def f(d):
            da, db = fill(fill(d, pair, 1, ...), pair)  # written by leaf and by fill_leaf
            fill_leaf(2, da)
            fill(db, nil)

        return from_incomplete_(map_b(alloc(t), f))

    built = with_region(body, registry=reg)
    assert type(built) is _Guarded and (built.a, built.b.a, built.b.b) == (1, 2, None)


# -- a raw read meets no hole -----------------------------------------------------


def test_a_raw_read_of_a_receiver_refuses_a_hollow_host_object():
    def body(t):
        i = alloc(t)
        dh, dt = fill(i.payload, LIST_CONS)
        with pytest.raises(IncompleteRead):
            read_value(t.region, i.root)
        fill_leaf(0, dh)
        with pytest.raises(IncompleteRead):
            read_value(t.region, i.root)
        fill(dt, LIST_NIL)
        assert list(read_value(t.region, i.root)) == [0]
        return from_incomplete(i)[0]

    assert list(with_region(body)) == [0]


def test_a_raw_read_refuses_a_hollow_host_object_in_a_raw_slot():
    def body(t):
        region = t.region
        i = alloc(t)
        dh, dt = fill(i.payload, LIST_CONS)
        raw = alloc_hollow(region, LIST_CONS)
        write_field(region, raw, 0, Leaf(0))
        write_field(region, raw, 1, i.root)
        with pytest.raises(IncompleteRead):
            read_value(region, raw)
        fill_leaf(1, dh)
        fill(dt, LIST_NIL)
        assert list(read_value(region, raw)) == [0, 1]
        return from_incomplete(i)[0]

    assert list(with_region(body)) == [1]


def test_a_read_with_no_outstanding_hole_scans_nothing(monkeypatch):
    def scan(*args):
        raise AssertionError("a read scanned host objects")

    monkeypatch.setattr(destpass.region, "_scan_hosts", scan)
    assert list(_build_list(range(20), with_leaves=True)[0]) == list(range(20))
