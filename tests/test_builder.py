"""Builder API: tokens, incompletes, destinations, and the consume-once rules."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from destpass import (
    CyclicStructure,
    DestinationInLeaf,
    LinearityLeak,
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
    region_stats,
    token_consume,
    token_dup2,
    with_region,
)
from destpass.bfs import TREE_NODE, Node
from destpass.shapes import LeafType, ctor
from destpass.dlist import LIST_CONS, LIST_NIL, NIL, Cons, from_pylist

from support import build_top_down, random_value, structurally_equal


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
            assert dh.cell == dt.cell
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
            fill_leaf(1, dh)
            fill(dt, LIST_NIL)
            return None

        return from_incomplete_(map_b(alloc(t), f))

    assert list(with_region(body)) == [1]


def test_fill_comp_across_regions_rejected():
    def outer(t):
        def f(d):
            def inner(t2):
                fill_comp(alloc(t2), d)  # d belongs to the outer region
                return None

            with_region(inner)

        map_b(alloc(t), f)
        return None

    with pytest.raises(RegionMismatch):
        with_region(outer)


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
        return 0

    assert with_region(body) == 0


def test_into_incomplete_of_cyclic_value_is_cyclic_structure():
    c = Cons(1, NIL)
    c.tail = c

    def body(t):
        region = t.region
        with pytest.raises(CyclicStructure):
            into_incomplete(t, c, "list")
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
_UNREGISTERED = ctor("list", "cons", 1, (LeafType("int"), LeafType("int")), Cons)


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
