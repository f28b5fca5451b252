"""Difference lists: O(1) append/concat via hole plugging, plus baselines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from destpass import (
    UseAfterConsume,
    fill,
    map_b,
    region_stats,
    token_consume,
    token_dup2,
    with_region,
)
from destpass.dlist import (
    LIST_NIL,
    NIL,
    Cons,
    FunDList,
    dlist_append,
    dlist_concat,
    dlist_from_list,
    dlist_new,
    dlist_to_list,
    from_pylist,
    list_concat_naive,
    to_pylist,
)


def run_to_list(make):
    """with_region boilerplate: build a dlist via ``make`` and read it out."""
    return to_pylist(with_region(lambda t: dlist_to_list(make(t))))


def test_new_is_empty():
    assert run_to_list(dlist_new) == []


def test_new_has_one_hole():
    def body(t):
        d = dlist_new(t)
        assert d.holes_outstanding == 1
        return dlist_to_list(d)

    with_region(body)


def test_new_consumes_token():
    def body(t):
        d = dlist_new(t)
        with pytest.raises(UseAfterConsume):
            dlist_new(t)
        return dlist_to_list(d)

    with_region(body)


def test_append_one():
    assert run_to_list(lambda t: dlist_append(dlist_new(t), 1)) == [1]


def test_append_two():
    # snoc oracle on plain lists: [] + [1] + [2]
    assert run_to_list(
        lambda t: dlist_append(dlist_append(dlist_new(t), 1), 2)
    ) == [1, 2]


def test_append_keeps_one_hole():
    def body(t):
        d = dlist_new(t)
        for x in range(5):
            d = dlist_append(d, x)
            assert d.holes_outstanding == 1
        return dlist_to_list(d)

    assert to_pylist(with_region(body)) == [0, 1, 2, 3, 4]


def test_concat_matches_plus_plus():
    def body(t):
        t1, t2 = token_dup2(t)
        a = dlist_from_list(t1, [1, 2])
        b = dlist_from_list(t2, [3])
        return dlist_to_list(dlist_concat(a, b))

    assert to_pylist(with_region(body)) == [1, 2, 3]


def test_concat_left_identity():
    def body(t):
        t1, t2 = token_dup2(t)
        empty = dlist_new(t1)
        b = dlist_from_list(t2, [4, 5])
        return dlist_to_list(dlist_concat(empty, b))

    assert to_pylist(with_region(body)) == [4, 5]


def test_concat_allocates_nothing():
    def body(t):
        region = t.region
        t1, t2 = token_dup2(t)
        a = dlist_from_list(t1, [1, 2])
        b = dlist_from_list(t2, [3, 4])
        before = region_stats(region)
        holes_before = region.outstanding_holes
        c = dlist_concat(a, b)
        after = region_stats(region)
        assert after.cells_allocated == before.cells_allocated
        assert after.receiver_cells == before.receiver_cells
        assert after.bytes_allocated == before.bytes_allocated
        assert after.leaf_copies == before.leaf_copies
        # exactly one field write happened
        assert region.outstanding_holes == holes_before - 1
        return dlist_to_list(c)

    assert to_pylist(with_region(body)) == [1, 2, 3, 4]


def test_to_list_from_list_round_trip():
    xs = list(range(1, 101))
    assert run_to_list(lambda t: dlist_from_list(t, xs)) == xs


def test_from_list_empty_behaves_like_new():
    assert run_to_list(lambda t: dlist_from_list(t, [])) == []

    def body(t):
        d = dlist_from_list(t, [])
        assert d.holes_outstanding == 1
        return dlist_to_list(d)

    with_region(body)


def test_to_list_consumes_the_dlist():
    def body(t):
        d = dlist_new(t)
        out = dlist_to_list(d)
        with pytest.raises(UseAfterConsume):
            dlist_to_list(d)
        with pytest.raises(UseAfterConsume):
            dlist_append(d, 1)
        return out

    with_region(body)


@given(st.lists(st.integers(), max_size=20), st.lists(st.integers(), max_size=20))
@settings(max_examples=60, deadline=None)
def test_monoid_homomorphism(xs, ys):
    def body(t):
        t1, t2 = token_dup2(t)
        a = dlist_from_list(t1, xs)
        b = dlist_from_list(t2, ys)
        return dlist_to_list(dlist_concat(a, b))

    assert to_pylist(with_region(body)) == xs + ys


@given(
    st.lists(st.integers(), max_size=12),
    st.lists(st.integers(), max_size=12),
    st.lists(st.integers(), max_size=12),
)
@settings(max_examples=40, deadline=None)
def test_concat_associativity_image(xs, ys, zs):
    def left(t):
        t1, rest = token_dup2(t)
        t2, t3 = token_dup2(rest)
        return dlist_to_list(
            dlist_concat(
                dlist_concat(dlist_from_list(t1, xs), dlist_from_list(t2, ys)),
                dlist_from_list(t3, zs),
            )
        )

    def right(t):
        t1, rest = token_dup2(t)
        t2, t3 = token_dup2(rest)
        return dlist_to_list(
            dlist_concat(
                dlist_from_list(t1, xs),
                dlist_concat(dlist_from_list(t2, ys), dlist_from_list(t3, zs)),
            )
        )

    assert to_pylist(with_region(left)) == to_pylist(with_region(right)) == xs + ys + zs


class Boom(Exception):
    pass


def boom(_payload):
    raise Boom


OPS = ("dup2", "new", "append", "concat", "to_list", "raising map_b")


@given(st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 99), st.integers(0, 99)), max_size=40))
@settings(max_examples=150, deadline=None)
def test_op_sequences_keep_the_ledger_and_match_the_oracle(steps):
    """Random dlist op sequences over token_dup2'd tokens. After each step
    the region's tallies count exactly the live handles, every live
    incomplete's lineage is a root, and a release equals a Python list."""

    def body(t):
        region = t.region
        tokens = [t]
        dlists = []  # (dlist, its Python-list oracle)
        orphans = []  # the live Dest of each dlist a raising callback consumed
        for op, a, b in steps:
            if op == "dup2" and tokens:
                tokens.extend(token_dup2(tokens.pop(a % len(tokens))))
            elif op == "new" and tokens:
                dlists.append((dlist_new(tokens.pop(a % len(tokens))), []))
            elif op == "append" and dlists:
                i, xs = dlists.pop(a % len(dlists))
                dlists.append((dlist_append(i, b), [*xs, b]))
            elif op == "concat" and len(dlists) > 1:
                i1, xs = dlists.pop(a % len(dlists))
                i2, ys = dlists.pop(b % len(dlists))
                dlists.append((dlist_concat(i1, i2), xs + ys))
            elif op == "to_list" and dlists:
                i, xs = dlists.pop(a % len(dlists))
                assert to_pylist(dlist_to_list(i)) == xs
            elif op == "raising map_b" and dlists:
                i, _ = dlists.pop(a % len(dlists))
                with pytest.raises(Boom):
                    map_b(i, boom)
                assert not i.alive and i.payload.alive
                orphans.append(i.payload)
            assert region._tokens_alive == len(tokens)
            assert region._incompletes_alive == len(dlists)
            assert region.outstanding_holes == len(dlists) + len(orphans)
            assert all(i.lineage.parent is None for i, _ in dlists)
        for tok in tokens:
            token_consume(tok)
        for i, xs in dlists:
            assert to_pylist(dlist_to_list(i)) == xs
        for d in orphans:
            fill(d, LIST_NIL)
        return region

    region = with_region(body)
    assert region.outstanding_holes == region._tokens_alive == region._incompletes_alive == 0


# -- baselines ------------------------------------------------------------------


def test_linked_list_helpers():
    xs = from_pylist([1, 2, 3])
    assert to_pylist(xs) == [1, 2, 3]
    assert xs == Cons(1, Cons(2, Cons(3, NIL)))
    assert xs != from_pylist([1, 5, 3]) and xs != from_pylist([1, 2])
    assert from_pylist([]) == NIL


@given(st.lists(st.integers(), max_size=15), st.lists(st.integers(), max_size=15))
@settings(max_examples=50)
def test_naive_concat_oracle(xs, ys):
    out = list_concat_naive(from_pylist(xs), from_pylist(ys))
    assert to_pylist(out) == xs + ys


@given(st.lists(st.lists(st.integers(), max_size=5), max_size=8))
@settings(max_examples=50)
def test_functional_dlist_oracle(chunks):
    acc = FunDList.empty()
    for chunk in chunks:
        acc = acc.concat(FunDList.from_items(chunk))
    assert acc.to_list() == [x for chunk in chunks for x in chunk]
    assert acc([99]) == [x for chunk in chunks for x in chunk] + [99]
