"""Region core: allocation, write-once fields, decoding, stats."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from destpass import (
    CyclicStructure,
    DoubleFill,
    FieldIndexOutOfRange,
    HOLE,
    IncompleteRead,
    InvalidBlockSize,
    Leaf,
    Ref,
    RegionMismatch,
    alloc_hollow,
    read_value,
    region_new,
    region_stats,
    write_field,
)
from destpass.dlist import Cons, LIST_CONS, LIST_NIL, NIL
from destpass.region import WORD

from support import structurally_equal


def make_list_cells(region, items):
    """Bottom-up region build of a linked list; returns the root ref."""
    tail = alloc_hollow(region, LIST_NIL)
    for x in reversed(items):
        cell = alloc_hollow(region, LIST_CONS)
        write_field(region, cell, 0, Leaf(x))
        write_field(region, cell, 1, Ref(tail))
        tail = cell
    return tail


def test_new_region_is_empty():
    r = region_new(32768)
    assert r.outstanding_holes == 0
    s = region_stats(r)
    assert (s.cells_allocated, s.bytes_allocated, s.leaf_copies) == (0, 0, 0)
    assert s.receiver_cells == 0 and s.oversize_blocks == 0


def test_block_size_minimum():
    with pytest.raises(InvalidBlockSize):
        region_new(64)
    with pytest.raises(InvalidBlockSize):
        region_new(255)
    region_new(256)


def test_handles_stay_valid_across_block_growth():
    r = region_new(4096)
    refs = [alloc_hollow(r, LIST_NIL) for _ in range(10_000)]
    assert len(r.blocks) > 1
    # every earlier handle still decodes to the value it was created for
    for ref in refs:
        assert read_value(r, ref) == NIL


def test_alloc_hollow_cons_has_two_holes():
    r = region_new(1024)
    alloc_hollow(r, LIST_CONS)
    assert r.outstanding_holes == 2


def test_alloc_hollow_nil_has_no_holes():
    r = region_new(1024)
    alloc_hollow(r, LIST_NIL)
    assert r.outstanding_holes == 0


def test_alloc_hollow_returns_fresh_refs():
    r = region_new(1024)
    assert alloc_hollow(r, LIST_CONS) != alloc_hollow(r, LIST_CONS)


def test_write_field_fills_hole():
    r = region_new(1024)
    cell = alloc_hollow(r, LIST_CONS)
    assert r.outstanding_holes == 2
    write_field(r, cell, 0, Leaf(7))
    assert r.outstanding_holes == 1


def test_double_fill_rejected_and_field_unchanged():
    r = region_new(1024)
    cell = alloc_hollow(r, LIST_CONS)
    nil = alloc_hollow(r, LIST_NIL)
    write_field(r, cell, 0, Leaf(7))
    write_field(r, cell, 1, Ref(nil))
    with pytest.raises(DoubleFill):
        write_field(r, cell, 0, Leaf(99))
    assert list(read_value(r, cell)) == [7]


def test_field_index_out_of_range():
    r = region_new(1024)
    cell = alloc_hollow(r, LIST_CONS)
    with pytest.raises(FieldIndexOutOfRange):
        write_field(r, cell, 5, Leaf(1))


def test_cross_region_ref_rejected():
    r1, r2 = region_new(1024), region_new(1024)
    cell = alloc_hollow(r1, LIST_CONS)
    foreign = alloc_hollow(r2, LIST_NIL)
    with pytest.raises(RegionMismatch):
        write_field(r1, cell, 1, Ref(foreign))


def test_read_value_matches_bottom_up_oracle():
    r = region_new(1024)
    root = make_list_cells(r, [1])
    assert structurally_equal(read_value(r, root), Cons(1, NIL))


def test_read_value_with_hole_is_incomplete():
    r = region_new(1024)
    cell = alloc_hollow(r, LIST_CONS)
    nil = alloc_hollow(r, LIST_NIL)
    write_field(r, cell, 1, Ref(nil))
    with pytest.raises(IncompleteRead):
        read_value(r, cell)


def test_read_value_nullary():
    r = region_new(1024)
    assert read_value(r, alloc_hollow(r, LIST_NIL)) == NIL


def test_read_value_detects_cycle():
    r = region_new(1024)
    cell = alloc_hollow(r, LIST_CONS)
    write_field(r, cell, 0, Leaf(1))
    write_field(r, cell, 1, Ref(cell))
    with pytest.raises(CyclicStructure):
        read_value(r, cell)


def test_stats_after_one_cons():
    r = region_new(1024)
    alloc_hollow(r, LIST_CONS)
    s = region_stats(r)
    assert s.cells_allocated == 1
    # header word plus one word per field
    assert s.bytes_allocated == WORD * (1 + 2)


def test_leaf_copies_counted_per_leaf_write():
    r = region_new(1024)
    make_list_cells(r, [1, 2, 3])
    assert region_stats(r).leaf_copies == 3


def test_oversized_leaf_gets_dedicated_block():
    r = region_new(256)
    cell = alloc_hollow(r, LIST_CONS)
    write_field(r, cell, 0, Leaf(b"x" * 4096))
    assert region_stats(r).oversize_blocks == 1


def test_leaf_payloads_are_deep_copied():
    r = region_new(1024)
    cell = alloc_hollow(r, LIST_CONS)
    nil = alloc_hollow(r, LIST_NIL)
    source = [1, [2, 3]]
    write_field(r, cell, 0, Leaf(source))
    write_field(r, cell, 1, Ref(nil))
    source[1].append(99)
    assert list(read_value(r, cell)) == [[1, [2, 3]]]


def test_shared_cell_decodes_to_one_object():
    r = region_new(1024)
    shared = make_list_cells(r, [1, 2])
    pair = alloc_hollow(r, LIST_CONS)
    write_field(r, pair, 0, Ref(shared))
    write_field(r, pair, 1, Ref(shared))
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
    ],
    ids=["int", "bool", "float", "None", "str", "bytes", "tuple"],
)
def test_leaf_bytes_charged(payload, charged):
    r = region_new(1024)
    cell = alloc_hollow(r, LIST_CONS)
    before = region_stats(r).bytes_allocated
    write_field(r, cell, 0, Leaf(payload))
    assert region_stats(r).bytes_allocated - before == charged


def test_stats_are_snapshots():
    r = region_new(1024)
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
    r = region_new(1024)
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
        slot = r._cells[cell.handle].slots[idx]
        assert slot is not HOLE and slot.payload == value


@given(st.integers(0, 2**32))
@settings(max_examples=60)
def test_hole_accounting(seed):
    """outstanding_holes == total arity allocated - successful writes."""
    rng = random.Random(seed)
    r = region_new(1024)
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
    r = region_new(2048)
    cells = [alloc_hollow(r, LIST_CONS) for _ in items]
    cells.append(alloc_hollow(r, LIST_NIL))
    writes = []
    for ref, item, nxt in zip(cells, items, cells[1:]):
        writes.append((ref, 0, Leaf(item)))
        writes.append((ref, 1, Ref(nxt)))
    rng.shuffle(writes)
    for ref, idx, value in writes:
        write_field(r, ref, idx, value)
    assert list(read_value(r, cells[0])) == items


@given(st.lists(st.integers(-50, 50), min_size=0, max_size=8), st.integers(0, 10**5))
@settings(max_examples=25, deadline=None)
def test_refs_stable_under_later_allocations(items, extra):
    """A ref taken early decodes to the same value after many allocations."""
    r = region_new(2048)
    root = make_list_cells(r, items)
    before = read_value(r, root)
    for _ in range(min(extra, 10**5)):
        alloc_hollow(r, LIST_NIL)
    assert structurally_equal(read_value(r, root), before)
    assert list(before) == items
