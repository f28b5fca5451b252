"""Region core: allocation, write-once fields, decoding, stats."""

import contextlib
import gc
import random
import tracemalloc
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import destpass.region
from destpass import (
    CellRef,
    CyclicStructure,
    DoubleFill,
    FieldIndexOutOfRange,
    IncompleteRead,
    Leaf,
    LeafTooDeep,
    RegionClosed,
    Region,
    RegionMismatch,
    Token,
    UnknownCtor,
    UseAfterConsume,
    alloc,
    alloc_hollow,
    fill,
    fill_comp,
    read_value,
    region_new,
    region_stats,
    token_dup2,
    with_region,
    write_field,
)
from destpass.dlist import Cons, LIST_CONS, LIST_NIL, LIST_SHAPE, NIL
from destpass.region import WORD
from destpass.shapes import CtorDescriptor, LeafType, Recursive, ShapeRegistry, TypeShape

from support import structurally_equal, too_deep_leaf


def make_list_cells(region, items):
    """Bottom-up region build of a linked list; returns the root ref."""
    tail = alloc_hollow(region, LIST_NIL)
    for x in reversed(items):
        cell = alloc_hollow(region, LIST_CONS)
        write_field(region, cell, 0, Leaf(x))
        write_field(region, cell, 1, tail)
        tail = cell
    return tail


def test_new_region_is_empty():
    r = region_new()
    assert r.outstanding_holes == 0
    s = region_stats(r)
    assert (s.cells_allocated, s.bytes_allocated, s.leaf_copies) == (0, 0, 0)
    assert s.receiver_cells == 0


def test_handles_stay_valid_across_many_allocations():
    r = region_new()
    refs = [alloc_hollow(r, LIST_NIL) for _ in range(10_000)]
    # every earlier handle still decodes to the value it was created for
    for ref in refs:
        assert read_value(r, ref) == NIL


def test_alloc_hollow_cons_has_two_holes():
    r = region_new()
    alloc_hollow(r, LIST_CONS)
    assert r.outstanding_holes == 2


def test_alloc_hollow_nil_has_no_holes():
    r = region_new()
    alloc_hollow(r, LIST_NIL)
    assert r.outstanding_holes == 0


def test_alloc_hollow_returns_fresh_refs():
    r = region_new()
    assert alloc_hollow(r, LIST_CONS) != alloc_hollow(r, LIST_CONS)


def test_write_field_fills_hole():
    r = region_new()
    cell = alloc_hollow(r, LIST_CONS)
    assert r.outstanding_holes == 2
    write_field(r, cell, 0, Leaf(7))
    assert r.outstanding_holes == 1


def test_double_fill_rejected_and_field_unchanged():
    r = region_new()
    cell = alloc_hollow(r, LIST_CONS)
    nil = alloc_hollow(r, LIST_NIL)
    write_field(r, cell, 0, Leaf(7))
    write_field(r, cell, 1, nil)
    with pytest.raises(DoubleFill):
        write_field(r, cell, 0, Leaf(99))
    assert list(read_value(r, cell)) == [7]


def test_field_index_out_of_range():
    r = region_new()
    cell = alloc_hollow(r, LIST_CONS)
    with pytest.raises(FieldIndexOutOfRange):
        write_field(r, cell, 5, Leaf(1))


def test_cross_region_ref_rejected():
    r1, r2 = region_new(), region_new()
    cell = alloc_hollow(r1, LIST_CONS)
    foreign = alloc_hollow(r2, LIST_NIL)
    with pytest.raises(RegionMismatch):
        write_field(r1, cell, 1, foreign)


@pytest.mark.parametrize("into", ["raw", "receiver", "host"])
def test_a_hole_is_refused_as_a_reference_target(into):
    r = region_new()
    if into == "raw":
        cell, index = alloc_hollow(r, LIST_CONS), 1
    elif into == "receiver":
        cell, index = r._alloc_receiver(), 0
    else:
        cell, index = alloc_hollow(r, LIST_CONS, r._alloc_receiver(), 0), 1
    before = region_stats(r), r.outstanding_holes
    with pytest.raises(TypeError):
        write_field(r, cell, index, r.hole)
    assert (region_stats(r), r.outstanding_holes) == before
    write_field(r, cell, index, Leaf(1))
    with pytest.raises(DoubleFill):
        write_field(r, cell, index, Leaf(2))


@pytest.mark.parametrize("foreign", [False, True], ids=["same-region", "other-region"])
def test_a_receiver_is_refused_as_a_reference_target(foreign):
    r = region_new()
    receiver = (region_new() if foreign else r)._alloc_receiver()
    cell = alloc_hollow(r, LIST_CONS)
    write_field(r, cell, 0, Leaf(1))
    before = region_stats(r), r.outstanding_holes
    with pytest.raises(TypeError):
        write_field(r, cell, 1, receiver)
    assert (region_stats(r), r.outstanding_holes) == before
    assert cell.slots[1] is r.hole
    write_field(r, cell, 1, alloc_hollow(r, LIST_NIL))
    assert structurally_equal(read_value(r, cell), Cons(1, NIL))


# "pair" has no dataclass make, so it never builds in place: always a raw cell.
_PAIR = CtorDescriptor("pair", "pair", (Recursive("list"), LeafType("int")), lambda *f: f)
_PAIR_REGISTRY = ShapeRegistry()
_PAIR_REGISTRY.register(LIST_SHAPE, TypeShape("pair", (_PAIR,)))


def _refused_unchanged(call, error, regions, field):
    """``call`` raises ``error`` and leaves each region's stats and
    outstanding holes, and the target field, as they were."""

    def state():
        return [(region_stats(r), r.outstanding_holes) for r in regions], field()

    before = state()
    with pytest.raises(error):
        call()
    assert state() == before


@dataclass
class _OtherCons:
    head: object
    tail: object


# A list whose cons builds in place as another class, which _PAIR_REGISTRY's
# regions never hold.
_OTHER_LIST_CONS = CtorDescriptor("list", "cons", LIST_CONS.fields, _OtherCons)
_OTHER_LIST_REGISTRY = ShapeRegistry()
_OTHER_LIST_REGISTRY.register(TypeShape("list", (LIST_NIL, _OTHER_LIST_CONS)))


@pytest.mark.parametrize("target, ctor, registry, error", [
    ("receiver", LIST_CONS, _PAIR_REGISTRY, RegionMismatch),
    ("receiver", LIST_NIL, _PAIR_REGISTRY, RegionMismatch),
    ("receiver", _PAIR, _PAIR_REGISTRY, RegionMismatch),  # no generated fill
    ("host object", LIST_CONS, _PAIR_REGISTRY, RegionMismatch),
    ("host object", LIST_NIL, _PAIR_REGISTRY, RegionMismatch),
    ("raw cell", LIST_CONS, _PAIR_REGISTRY, RegionMismatch),
    ("raw cell", LIST_NIL, _PAIR_REGISTRY, RegionMismatch),
    ("receiver", _OTHER_LIST_CONS, _OTHER_LIST_REGISTRY, RegionMismatch),
    # A host object of a class that r2's registry does not build, as a raw call.
    ("host object", _OTHER_LIST_CONS, _OTHER_LIST_REGISTRY, TypeError),
], ids=lambda x: getattr(x, "__name__", None))
def test_a_fill_of_a_dest_of_another_region_changes_nothing(target, ctor, registry, error):
    """A raw fill into a live Dest of another region goes to the generic
    checks, which refuse it: no generated fill runs on it. A host object's
    hole takes no raw-cell constructor, so ``_PAIR`` fills a receiver only."""
    r1, r2 = region_new(registry=_PAIR_REGISTRY), region_new(registry=registry)
    i = alloc(Token(r1))
    d = {
        "receiver": lambda: i.payload,
        "host object": lambda: fill(i.payload, LIST_CONS)[1],
        "raw cell": lambda: fill(i.payload, _PAIR)[0],
    }[target]()

    def state():
        return [(region_stats(r), r.outstanding_holes) for r in (r1, r2)], d.alive

    before = state()
    with pytest.raises(error):
        alloc_hollow(r2, ctor, d)
    assert state() == before
    fill(d, LIST_NIL)  # the hole is still the live Dest's to fill


def test_a_hollow_host_object_of_another_region_is_no_reference():
    """Another region's hollow Cons cannot be plugged in uncopied, bare or
    through its filled receiver; a cell of the region can."""
    r1, r2 = region_new(), region_new()
    receiver = r1._alloc_receiver()
    hollow = alloc_hollow(r1, LIST_CONS, receiver, 0)
    cell = alloc_hollow(r2, LIST_CONS)
    write_field(r2, cell, 0, Leaf(1))

    def field():
        return cell.slots[1], hollow.head, hollow.tail

    for value, error in [(hollow, TypeError), (receiver, RegionMismatch)]:
        _refused_unchanged(lambda: write_field(r2, cell, 1, value), error, [r1, r2], field)
    write_field(r2, cell, 1, alloc_hollow(r2, LIST_NIL))
    assert r2.outstanding_holes == 0
    assert structurally_equal(read_value(r2, cell), Cons(1, NIL))


def test_a_host_object_takes_no_raw_cell_from_alloc_hollow():
    r, other = region_new(registry=_PAIR_REGISTRY), region_new(registry=_PAIR_REGISTRY)
    host = alloc_hollow(r, LIST_CONS, r._alloc_receiver(), 0)
    write_field(r, host, 0, Leaf(1))
    _refused_unchanged(
        lambda: alloc_hollow(r, _PAIR, host, 1), TypeError, [r, other], lambda: host.tail
    )
    # The same constructor goes into a raw cell's field, and a host one into the host.
    raw = alloc_hollow(r, LIST_CONS)
    assert type(alloc_hollow(r, _PAIR, raw, 1)) is CellRef
    alloc_hollow(r, LIST_NIL, host, 1)
    assert structurally_equal(host, Cons(1, NIL))


@pytest.mark.parametrize("via", ["cell", "receiver"])
def test_a_host_object_takes_no_raw_cell_from_write_field(via):
    r, other = region_new(registry=_PAIR_REGISTRY), region_new(registry=_PAIR_REGISTRY)
    host = alloc_hollow(r, LIST_CONS, r._alloc_receiver(), 0)
    write_field(r, host, 0, Leaf(1))
    pair = alloc_hollow(r, _PAIR)
    if via == "cell":
        value = pair
    else:  # a receiver stands for the raw cell it holds
        value = r._alloc_receiver()
        write_field(r, value, 0, pair)
    _refused_unchanged(
        lambda: write_field(r, host, 1, value), TypeError, [r, other], lambda: host.tail
    )
    # A raw cell's field takes the same value.
    raw = alloc_hollow(r, LIST_CONS)
    write_field(r, raw, 1, value)
    assert raw.slots[1] is pair and host.tail is r.hole


@pytest.mark.parametrize("holds", ["host object", "raw cell", "leaf"])
def test_a_filled_receiver_writes_what_it_holds(holds):
    r, other = region_new(registry=_PAIR_REGISTRY), region_new(registry=_PAIR_REGISTRY)
    cell = alloc_hollow(r, LIST_CONS)
    write_field(r, cell, 0, Leaf(1))

    def field():
        return cell.slots[1]

    # An empty receiver of either region is refused, as is another region's full one.
    for region, error in [(r, TypeError), (other, TypeError), (other, RegionMismatch)]:
        receiver = region._alloc_receiver()
        if error is RegionMismatch:
            alloc_hollow(other, LIST_NIL, receiver, 0)
        _refused_unchanged(
            lambda: write_field(r, cell, 1, receiver), error, [r, other], field
        )
    receiver = r._alloc_receiver()
    if holds == "host object":
        alloc_hollow(r, LIST_NIL, alloc_hollow(r, LIST_CONS, receiver, 0), 1)
    elif holds == "raw cell":
        alloc_hollow(r, _PAIR, receiver, 0)
    else:
        write_field(r, receiver, 0, Leaf((2, 3)))
    holes = r.outstanding_holes
    write_field(r, cell, 1, receiver)
    assert cell.slots[1] is receiver.slots[0]
    assert r.outstanding_holes == holes - 1


@pytest.mark.parametrize("into", ["raw", "receiver", "host"])
@pytest.mark.parametrize(
    "case, error",
    [("closed", RegionClosed), ("index", FieldIndexOutOfRange), ("bare", TypeError)],
)
def test_every_kind_of_hole_is_checked_alike(into, case, error):
    """A raw cell, a receiver and a host object refuse the same writes, and
    a refused write changes nothing."""
    r = region_new()
    if into == "raw":
        cell, index = alloc_hollow(r, LIST_CONS), 1
    elif into == "receiver":
        cell, index = r._alloc_receiver(), 0
    else:
        cell, index = alloc_hollow(r, LIST_CONS, r._alloc_receiver(), 0), 1

    def state():
        fields = cell.slots if into != "host" else [cell.head, cell.tail]
        return region_stats(r), r.outstanding_holes, list(fields)

    value = 7 if case == "bare" else Leaf(7)  # neither a CellRef nor a Leaf
    if case == "closed":
        r._close()
    elif case == "index":
        index += 1
    before = state()
    with pytest.raises(error):
        write_field(r, cell, index, value)
    if case != "bare":
        with pytest.raises(error):
            alloc_hollow(r, LIST_NIL, cell, index)
    assert state() == before


def test_read_value_refuses_a_foreign_root_and_an_empty_receiver():
    r = region_new()
    with pytest.raises(RegionMismatch):
        read_value(r, alloc_hollow(region_new(), LIST_NIL))
    with pytest.raises(IncompleteRead):
        read_value(r, r._alloc_receiver())


def test_read_value_matches_bottom_up_oracle():
    r = region_new()
    root = make_list_cells(r, [1])
    assert structurally_equal(read_value(r, root), Cons(1, NIL))


def test_read_value_with_hole_is_incomplete():
    r = region_new()
    cell = alloc_hollow(r, LIST_CONS)
    nil = alloc_hollow(r, LIST_NIL)
    write_field(r, cell, 1, nil)
    with pytest.raises(IncompleteRead):
        read_value(r, cell)


def test_read_value_nullary():
    r = region_new()
    assert read_value(r, alloc_hollow(r, LIST_NIL)) == NIL


def test_nullary_written_into_a_hole_is_charged_but_not_materialized():
    r = region_new()
    cell = alloc_hollow(r, LIST_CONS)
    write_field(r, cell, 0, Leaf(1))
    before = region_stats(r)
    assert alloc_hollow(r, LIST_NIL, cell, 1) is None
    after = region_stats(r)
    assert cell.slots[1] is NIL
    assert after.cells_allocated - before.cells_allocated == 1
    assert after.bytes_allocated - before.bytes_allocated == WORD
    assert r.outstanding_holes == 0
    assert read_value(r, cell).tail is NIL


def test_written_fields_do_not_alias_the_callers_wrappers():
    r = region_new()
    cell, nil = alloc_hollow(r, LIST_CONS), alloc_hollow(r, LIST_NIL)
    head = Leaf(7)
    write_field(r, cell, 0, head)
    write_field(r, cell, 1, nil)
    with contextlib.suppress(AttributeError):
        head.payload = 99
    assert structurally_equal(read_value(r, cell), Cons(7, NIL))


def test_raw_api_refuses_what_is_not_a_cell_with_type_error():
    r = region_new()
    t1, t2 = token_dup2(Token(r))
    _, consumed = fill(alloc(t1).payload, LIST_CONS)
    fill_comp(alloc(t2), consumed)  # consumed; its hole is open behind the child's Dest
    hollow = consumed.cell
    assert type(hollow) is Cons

    def state():
        return region_stats(r), r.outstanding_holes

    before = state()
    with pytest.raises(TypeError):
        alloc_hollow(r, LIST_NIL, object(), 0)
    for ctor in (LIST_NIL, LIST_CONS):  # a fill of a consumed Dest, its hole open
        with pytest.raises(UseAfterConsume):
            alloc_hollow(r, ctor, consumed, 0, ())
    with pytest.raises(TypeError):
        write_field(r, object(), 0, Leaf(1))
    with pytest.raises(TypeError):
        read_value(r, hollow)
    assert state() == before
    assert hollow.head is r.hole and hollow.tail is r.hole


def test_a_call_without_a_dest_takes_the_generic_path(monkeypatch):
    """Only a fill runs a generated function: a raw call, even into a
    receiver or a host object, goes to ``_alloc_generic``."""
    calls = []
    real = destpass.region._alloc_generic

    def counted(region, ctor, *args):
        calls.append(ctor)
        return real(region, ctor, *args)

    monkeypatch.setattr(destpass.region, "_alloc_generic", counted)
    r = region_new()
    hollow = alloc_hollow(r, LIST_CONS, r._alloc_receiver(), 0)
    alloc_hollow(r, LIST_NIL, hollow, 1)
    assert calls == [LIST_CONS, LIST_NIL] and type(hollow) is Cons


@pytest.mark.parametrize("target", ["raw cell", "receiver", "host object"])
@pytest.mark.parametrize("index", [0.5, "a", None, 0.0], ids=repr)
def test_a_field_index_that_is_no_int_is_named(target, index):
    r = region_new()
    cell = {
        "raw cell": lambda: alloc_hollow(r, LIST_CONS),
        "receiver": r._alloc_receiver,
        "host object": lambda: alloc_hollow(r, LIST_CONS, r._alloc_receiver(), 0),
    }[target]()
    before = region_stats(r), r.outstanding_holes
    with pytest.raises(TypeError, match="field index is an int"):
        write_field(r, cell, index, Leaf(1))
    for ctor in (LIST_NIL, LIST_CONS):
        with pytest.raises(TypeError, match="field index is an int"):  # no Dest: generic
            alloc_hollow(r, ctor, cell, index)
    assert (region_stats(r), r.outstanding_holes) == before


@pytest.mark.parametrize("registry",[5, 0, "x", LIST_SHAPE], ids=["int", "zero", "str", "shape"])
def test_a_region_refuses_a_registry_that_is_no_shape_registry(registry):
    with pytest.raises(TypeError):
        region_new(registry=registry)
    ran = []
    with pytest.raises(TypeError):
        with_region(ran.append, registry=registry)
    assert not ran


@pytest.mark.parametrize("registry", [5, None], ids=repr)
def test_a_region_checks_its_own_registry(registry):
    """``Region`` refuses what is no ShapeRegistry before it takes an id,
    so no region holds one, whose first fill would raise a TypeError that
    names a Region."""
    first = region_new().region_id
    with pytest.raises(TypeError, match="expected a ShapeRegistry, got"):
        Region(registry)
    assert region_new().region_id == first + 1


def test_read_cost_follows_the_value_not_the_region():
    r = region_new()
    for _ in range(200_000):
        alloc_hollow(r, LIST_NIL)
    one = alloc_hollow(r, LIST_NIL)
    tracemalloc.start()
    try:
        assert read_value(r, one) is NIL
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_region_keeps_no_unreferenced_cell_alive():
    r = region_new()
    tracemalloc.start()
    try:
        for _ in range(100_000):
            alloc_hollow(r, LIST_CONS)
        gc.collect()
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert region_stats(r).cells_allocated == 100_000
    assert current < 64 * 1024


# Same type, tag and fields as the registered list constructors, never registered.
_UNREGISTERED = {
    LIST_CONS: CtorDescriptor("list", "cons", LIST_CONS.fields, Cons),
    LIST_NIL: CtorDescriptor("list", "nil", (), lambda: NIL),
}


@pytest.mark.parametrize("new", [LIST_CONS, LIST_NIL], ids=["cons", "nil"])
@pytest.mark.parametrize(
    "case, error",
    [
        ("closed", RegionClosed),
        ("unregistered", UnknownCtor),
        ("foreign-into", RegionMismatch),
        ("index", FieldIndexOutOfRange),
        ("written", DoubleFill),
    ],
)
def test_one_call_fill_fails_atomically(case, error, new):
    """alloc_hollow with a target hole raises what alloc_hollow followed by
    write_field raises, and changes nothing."""

    def setup():
        r = region_new()
        into, c, index = alloc_hollow(r, LIST_CONS), new, 1
        if case == "closed":
            r._close()
        elif case == "unregistered":
            c = _UNREGISTERED[new]
        elif case == "foreign-into":
            into = alloc_hollow(region_new(), LIST_CONS)
        elif case == "index":
            index = 2
        else:
            write_field(r, into, index, Leaf(0))
        return r, into, c, index

    r, into, c, index = setup()
    with pytest.raises(error):
        write_field(r, into, index, alloc_hollow(r, c))

    r, into, c, index = setup()

    def state():
        slot = into.slots[index] if index < len(into.slots) else None
        return region_stats(r), r.outstanding_holes, slot

    before = state()
    with pytest.raises(error):
        alloc_hollow(r, c, into, index)
    assert state() == before


def test_read_value_detects_cycle():
    r = region_new()
    cell = alloc_hollow(r, LIST_CONS)
    write_field(r, cell, 0, Leaf(1))
    write_field(r, cell, 1, cell)
    with pytest.raises(CyclicStructure):
        read_value(r, cell)


def test_stats_after_one_cons():
    r = region_new()
    alloc_hollow(r, LIST_CONS)
    s = region_stats(r)
    assert s.cells_allocated == 1
    # header word plus one word per field
    assert s.bytes_allocated == WORD * (1 + 2)


def test_leaf_copies_counted_per_leaf_write():
    r = region_new()
    make_list_cells(r, [1, 2, 3])
    assert region_stats(r).leaf_copies == 3


def test_leaf_payloads_are_deep_copied():
    r = region_new()
    cell = alloc_hollow(r, LIST_CONS)
    nil = alloc_hollow(r, LIST_NIL)
    source = [1, [2, 3]]
    write_field(r, cell, 0, Leaf(source))
    write_field(r, cell, 1, nil)
    source[1].append(99)
    assert list(read_value(r, cell)) == [[1, [2, 3]]]


@pytest.mark.parametrize("what", ["cons list", "nested list"])
def test_a_leaf_too_deep_to_copy_is_refused(what):
    r = region_new()
    cell = alloc_hollow(r, LIST_CONS)
    before = (region_stats(r), r.outstanding_holes)
    with pytest.raises(LeafTooDeep):
        write_field(r, cell, 0, Leaf(too_deep_leaf(what)))
    assert (region_stats(r), r.outstanding_holes) == before
    assert cell.slots[0] is r.hole
    write_field(r, cell, 0, Leaf(1))
    write_field(r, cell, 1, alloc_hollow(r, LIST_NIL))
    assert list(read_value(r, cell)) == [1]


def test_shared_cell_decodes_to_one_object():
    r = region_new()
    shared = make_list_cells(r, [1, 2])
    pair = alloc_hollow(r, LIST_CONS)
    write_field(r, pair, 0, shared)
    write_field(r, pair, 1, shared)
    out = read_value(r, pair)
    assert out.head is out.tail
    assert list(out.head) == [1, 2]


@pytest.mark.parametrize(
    "payload, charged",
    [
        (7, WORD),
        (True, WORD),
        (2.5, WORD),
        (None, WORD),
        ("abc", WORD + WORD),
        (b"x" * 9, WORD + 2 * WORD),
        ((1, "ab"), (WORD + 2 * WORD) + WORD + (WORD + WORD)),
        ({"a": 1}, (WORD + 2 * WORD) + (WORD + WORD) + WORD),
    ],
    ids=["int", "bool", "float", "None", "str", "bytes", "tuple", "dict"],
)
def test_leaf_bytes_charged(payload, charged):
    r = region_new()
    cell = alloc_hollow(r, LIST_CONS)
    before = region_stats(r).bytes_allocated
    write_field(r, cell, 0, Leaf(payload))
    assert region_stats(r).bytes_allocated - before == charged


def test_stats_are_snapshots():
    r = region_new()
    before = region_stats(r)
    alloc_hollow(r, LIST_CONS)
    assert before.cells_allocated == 0
    assert region_stats(r).cells_allocated == 1


@given(st.lists(st.integers(0, 1), min_size=1, max_size=12), st.integers(0, 2**32))
@settings(max_examples=100)
def test_write_once_property(script, seed):
    """Any second write to the same slot fails with DoubleFill and leaves the
    slot as the first write made it."""
    rng = random.Random(seed)
    r = region_new()
    cells = [alloc_hollow(r, LIST_CONS)]
    written = {}
    for move in script:
        if move == 0:
            cells.append(alloc_hollow(r, LIST_CONS))
        cell = cells[rng.randrange(len(cells))]
        idx = rng.randrange(2)
        value = rng.randrange(1000)
        if (cell, idx) in written:
            with pytest.raises(DoubleFill):
                write_field(r, cell, idx, Leaf(value))
        else:
            write_field(r, cell, idx, Leaf(value))
            written[(cell, idx)] = value
    for (cell, idx), value in written.items():
        slot = cell.slots[idx]
        assert slot is not r.hole and slot == value


@given(st.integers(0, 2**32))
@settings(max_examples=60)
def test_hole_accounting(seed):
    """outstanding_holes == total arity allocated - successful writes."""
    rng = random.Random(seed)
    r = region_new()
    arity_sum = 0
    writes = 0
    open_slots = []
    for _ in range(rng.randrange(1, 40)):
        if open_slots and rng.random() < 0.5:
            cell, idx = open_slots.pop(rng.randrange(len(open_slots)))
            write_field(r, cell, idx, Leaf(0))
            writes += 1
        else:
            cell = alloc_hollow(r, LIST_CONS)
            arity_sum += 2
            open_slots += [(cell, 0), (cell, 1)]
        assert r.outstanding_holes == arity_sum - writes


@given(st.lists(st.integers(-50, 50), max_size=10), st.integers(0, 2**32))
@settings(max_examples=60)
def test_topdown_build_in_any_order_decodes_exactly(items, seed):
    """Hollow-allocate the whole spine first, then write fields in a random
    topological-compatible order; decoding must give the value exactly."""
    rng = random.Random(seed)
    r = region_new()
    cells = [alloc_hollow(r, LIST_CONS) for _ in items]
    cells.append(alloc_hollow(r, LIST_NIL))
    writes = []
    for ref, item, nxt in zip(cells, items, cells[1:]):
        writes.append((ref, 0, Leaf(item)))
        writes.append((ref, 1, nxt))
    rng.shuffle(writes)
    for ref, idx, value in writes:
        write_field(r, ref, idx, value)
    assert list(read_value(r, cells[0])) == items


@given(st.lists(st.integers(-50, 50), min_size=0, max_size=8), st.integers(0, 10**5))
@settings(max_examples=25, deadline=None)
def test_refs_stable_under_later_allocations(items, extra):
    """A ref taken early decodes to the same value after many allocations."""
    r = region_new()
    root = make_list_cells(r, items)
    before = read_value(r, root)
    for _ in range(min(extra, 10**5)):
        alloc_hollow(r, LIST_NIL)
    assert structurally_equal(read_value(r, root), before)
    assert list(before) == items
