"""Acceptance suite: one test per criterion, at full stated size.

Each test prints a single PASS line with its headline numbers; pytest -v plus
these lines give the per-criterion report.
"""

import random
import time

import pytest

from destpass import (
    CyclicStructure,
    DoubleFill,
    FieldIndexOutOfRange,
    IncompleteRead,
    Leaf,
    LinearityLeak,
    RegionMismatch,
    UnfilledHoles,
    UseAfterConsume,
    alloc,
    alloc_hollow,
    fill,
    fill_comp,
    fill_leaf,
    from_incomplete_,
    into_incomplete,
    map_b,
    read_value,
    region_new,
    region_stats,
    token_consume,
    token_dup2,
    with_region,
    write_field,
)
from destpass.bench import run_series
from destpass.bfs import (
    map_accum_bfs,
    level_order_values,
    random_tree,
    relabel_two_pass,
    same_shape,
)
from destpass.dlist import (
    LIST_CONS,
    LIST_NIL,
    dlist_concat,
    dlist_from_list,
    dlist_new,
    dlist_to_list,
    to_pylist,
)
from destpass.bfs import TREE_NIL, TREE_NODE
from destpass.sexpr import (
    ParseError,
    generate_input,
    parse_dps,
    parse_naive,
    reset_counters,
    reversal_count,
)
from destpass.shapes import DEFAULT_REGISTRY, Recursive

from support import (
    CASE_TYPES,
    build_top_down,
    count_sexpr_cells,
    mutate_bytes,
    random_value,
    structurally_equal,
)

REGION_CTORS = (LIST_NIL, LIST_CONS, TREE_NIL, TREE_NODE)


# -- criterion 1: write-once safety ------------------------------------------------


def _expected_read_errors(shadow, root):
    """What a decode of ``root`` must raise given the shadow graph:
    a subset of {IncompleteRead, CyclicStructure}, empty meaning success."""
    expected = set()
    state = {}  # handle -> 1 gray / 2 black
    stack = [(root, 0)]
    state[root] = 1
    while stack:
        handle, idx = stack[-1]
        slots = shadow[handle]
        if idx == len(slots):
            state[handle] = 2
            stack.pop()
            continue
        stack[-1] = (handle, idx + 1)
        slot = slots[idx]
        if slot is None:
            expected.add(IncompleteRead)
        elif slot[0] == "ref":
            child = slot[1]
            if state.get(child) == 1:
                expected.add(CyclicStructure)
            elif state.get(child) != 2:
                state[child] = 1
                stack.append((child, 0))
    return expected


def _region_sequence(rng, foreign_ref):
    region = region_new()
    shadow = {}  # handle -> slot list: None | ("leaf",) | ("ref", handle)
    cells = []  # (ref, ctor)
    arity_sum = 0
    writes = 0
    for _ in range(rng.randrange(3, 9)):
        action = rng.randrange(6)
        if action == 0 or not cells:
            c = REGION_CTORS[rng.randrange(len(REGION_CTORS))]
            ref = alloc_hollow(region, c)
            cells.append((ref, c))
            shadow[ref.handle] = [None] * c.arity
            arity_sum += c.arity
        elif action == 1:
            holes = [
                (ref, i)
                for ref, c in cells
                for i in range(c.arity)
                if shadow[ref.handle][i] is None
            ]
            if holes:
                ref, i = holes[rng.randrange(len(holes))]
                if rng.random() < 0.5:
                    write_field(region, ref, i, Leaf(rng.randrange(100)))
                    shadow[ref.handle][i] = ("leaf",)
                else:
                    target = cells[rng.randrange(len(cells))][0]
                    write_field(region, ref, i, target)
                    shadow[ref.handle][i] = ("ref", target.handle)
                writes += 1
        elif action == 2:
            done = [
                (ref, i)
                for ref, c in cells
                for i in range(c.arity)
                if shadow[ref.handle][i] is not None
            ]
            if done:
                ref, i = done[rng.randrange(len(done))]
                with pytest.raises(DoubleFill):
                    write_field(region, ref, i, Leaf(-1))
        elif action == 3:
            ref, c = cells[rng.randrange(len(cells))]
            with pytest.raises(FieldIndexOutOfRange):
                write_field(region, ref, c.arity + rng.randrange(1, 4), Leaf(0))
        elif action == 4:
            holes = [
                (ref, i)
                for ref, c in cells
                for i in range(c.arity)
                if shadow[ref.handle][i] is None
            ]
            if holes:
                ref, i = holes[rng.randrange(len(holes))]
                with pytest.raises(RegionMismatch):
                    write_field(region, ref, i, foreign_ref)
        else:
            ref, _c = cells[rng.randrange(len(cells))]
            expected = _expected_read_errors(shadow, ref.handle)
            if expected:
                try:
                    read_value(region, ref)
                    raise AssertionError("premature read succeeded")
                except tuple(expected):
                    pass
            else:
                read_value(region, ref)
        assert region.outstanding_holes == arity_sum - writes


def _builder_sequence(rng):
    type_id = CASE_TYPES[rng.randrange(len(CASE_TYPES))]
    value = random_value(type_id, rng, depth=4)

    def body(token):
        inc = alloc(token)
        stop_after = rng.randrange(0, 10)

        def partial(d_root):
            pending = [(d_root, value, type_id)]
            steps = 0
            while pending and steps < stop_after:
                steps += 1
                j = rng.randrange(len(pending))
                pending[j], pending[-1] = pending[-1], pending[j]
                d, v, tid = pending.pop()
                if tid is None:
                    fill_leaf(v, d)
                    if rng.random() < 0.3:
                        with pytest.raises(UseAfterConsume):
                            fill_leaf(v, d)
                    continue
                shape = DEFAULT_REGISTRY.shape(tid)
                tag, parts = shape.classify(v)
                c = shape.ctors[tag]
                dests = fill(d, c)
                if rng.random() < 0.3:
                    with pytest.raises(UseAfterConsume):
                        fill(d, c)
                if c.arity == 0:
                    continue
                if c.arity == 1:
                    dests = (dests,)
                for kind, dv, part in zip(c.fields, dests, parts):
                    tid2 = kind.type_id if isinstance(kind, Recursive) else None
                    pending.append((dv, part, tid2))
            return pending

        i2 = map_b(inc, partial)
        if i2.holes_outstanding > 0:
            with pytest.raises(UnfilledHoles):
                from_incomplete_(i2)

        def finish(pending):
            while pending:
                d, v, tid = pending.pop()
                if tid is None:
                    fill_leaf(v, d)
                    continue
                shape = DEFAULT_REGISTRY.shape(tid)
                tag, parts = shape.classify(v)
                c = shape.ctors[tag]
                dests = fill(d, c)
                if c.arity == 0:
                    continue
                if c.arity == 1:
                    dests = (dests,)
                for kind, dv, part in zip(c.fields, dests, parts):
                    tid2 = kind.type_id if isinstance(kind, Recursive) else None
                    pending.append((dv, part, tid2))
            return None

        return from_incomplete_(map_b(i2, finish))

    assert structurally_equal(with_region(body), value)


def test_criterion_1_write_once_safety():
    started = time.monotonic()
    rng = random.Random(0xC1)
    other = region_new()
    foreign_ref = alloc_hollow(other, LIST_NIL)
    for _ in range(7000):
        _region_sequence(rng, foreign_ref)
    for _ in range(3000):
        _builder_sequence(rng)
    elapsed = time.monotonic() - started
    assert elapsed < 30
    print(
        f"\n[criterion 1] write-once safety: PASS "
        f"(10000 randomized sequences, {elapsed:.1f}s)"
    )


# -- criterion 2: build/oracle equivalence ------------------------------------------


def test_criterion_2_build_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(0xC2)
    for case in range(1000):
        type_id = CASE_TYPES[case % len(CASE_TYPES)]
        value = random_value(type_id, rng, depth=6)
        rebuilt = build_top_down(value, type_id, rng, splice_prob=0.15)
        assert structurally_equal(rebuilt, value), f"case {case} ({type_id})"
    elapsed = time.monotonic() - started
    assert elapsed < 30
    print(
        f"\n[criterion 2] build/oracle equivalence: PASS "
        f"(1000 random build scripts, depth <= 6, {elapsed:.1f}s)"
    )


# -- criterion 3: dlist monoid laws ---------------------------------------------------


def test_criterion_3_dlist_monoid_laws():
    rng = random.Random(0xC3)
    for case in range(500):
        xs = [rng.randrange(-99, 99) for _ in range(rng.randrange(0, 25))]
        ys = [rng.randrange(-99, 99) for _ in range(rng.randrange(0, 25))]

        def body(t):
            region = t.region
            t1, t2 = token_dup2(t)
            a = dlist_from_list(t1, xs)
            b = dlist_from_list(t2, ys)
            before = region_stats(region)
            c = dlist_concat(a, b)
            after = region_stats(region)
            assert after.cells_allocated - before.cells_allocated == 0
            assert after.receiver_cells - before.receiver_cells == 0
            return dlist_to_list(c)

        assert to_pylist(with_region(body)) == xs + ys

    # identities
    assert to_pylist(with_region(lambda t: dlist_to_list(dlist_new(t)))) == []

    def left_id(t):
        t1, t2 = token_dup2(t)
        return dlist_to_list(dlist_concat(dlist_new(t1), dlist_from_list(t2, [1, 2])))

    def right_id(t):
        t1, t2 = token_dup2(t)
        return dlist_to_list(dlist_concat(dlist_from_list(t1, [1, 2]), dlist_new(t2)))

    assert to_pylist(with_region(left_id)) == [1, 2]
    assert to_pylist(with_region(right_id)) == [1, 2]
    print(
        "\n[criterion 3] dlist monoid laws + zero-cell concat: PASS "
        "(500 random cases)"
    )


# -- criterion 4: BFS relabeling --------------------------------------------------------


def test_criterion_4_bfs_relabeling():
    started = time.monotonic()
    rng = random.Random(0xC4)
    sizes = [rng.randrange(1, 10_001) for _ in range(197)] + [1, 10_000, 10_000]
    total_nodes = 0
    for case, n in enumerate(sizes):
        tree = random_tree(n, random.Random(rng.randrange(2**32)))
        counters = {}
        out, final = map_accum_bfs(
            lambda st, _x: (st + 1, st), 1, tree, counters=counters
        )
        assert same_shape(tree, out), f"case {case}: shape changed"
        assert level_order_values(out) == list(range(1, n + 1)), f"case {case}"
        assert counters["visits"] == n, f"case {case}: revisited nodes"
        assert final == n + 1
        assert structurally_equal(
            level_order_values(relabel_two_pass(tree)), level_order_values(out)
        )
        total_nodes += n
    elapsed = time.monotonic() - started
    print(
        f"\n[criterion 4] bfs relabeling: PASS "
        f"(200 trees, {total_nodes} nodes total, {elapsed:.1f}s)"
    )


# -- criterion 5: parser differential ------------------------------------------------------


def test_criterion_5_parser_differential():
    started = time.monotonic()
    rng = random.Random(0xC5)
    cases = 0
    error_cases = 0
    for case in range(1000):
        data = generate_input(rng.randrange(8, 400), case)
        if case % 2:
            data = mutate_bytes(data, rng)
            if case % 10 == 1:
                data = mutate_bytes(data, rng)
        a = parse_naive(data)
        b = parse_dps(data)  # scope-exit audit inside: leaks would raise
        if isinstance(a, ParseError) or isinstance(b, ParseError):
            assert a == b, f"case {case}: {a!r} != {b!r} on {data!r}"
            error_cases += 1
        else:
            assert structurally_equal(a, b), f"case {case}: trees differ on {data!r}"
        cases += 1
    elapsed = time.monotonic() - started
    assert cases == 1000
    assert error_cases > 50  # the mutations really do exercise error paths
    assert elapsed < 30
    print(
        f"\n[criterion 5] parser differential: PASS "
        f"(1000 inputs, {error_cases} error cases, {elapsed:.1f}s)"
    )


# -- criterion 6: asymptotic separation -------------------------------------------------------


def test_criterion_6_asymptotic_separation():
    started = time.monotonic()
    ks = [10, 11, 12, 13]
    dps = run_series("dlist", "dps", ks, reps=15, warmup=2)
    naive = run_series("dlist", "naive", ks, reps=5, warmup=1)
    dps_ratios = [
        dps[k].wall_time_ns / dps[k - 1].wall_time_ns for k in ks[1:]
    ]
    naive_ratios = [
        naive[k].wall_time_ns / naive[k - 1].wall_time_ns for k in ks[1:]
    ]
    elapsed = time.monotonic() - started
    for r in dps_ratios:
        assert 1.5 <= r <= 2.8, f"dps doubling ratios {dps_ratios}"
    for r in naive_ratios:
        assert r >= 3.0, f"naive doubling ratios {naive_ratios}"
    assert elapsed < 120
    print(
        f"\n[criterion 6] asymptotic separation: PASS "
        f"(dps ratios {[f'{r:.2f}' for r in dps_ratios]}, "
        f"naive ratios {[f'{r:.2f}' for r in naive_ratios]}, {elapsed:.0f}s)"
    )


# -- criterion 7: parser work --------------------------------------------------------------


def test_criterion_7_parser_work():
    started = time.monotonic()
    for k in range(10, 19):
        data = generate_input(2**k, seed=k)
        reset_counters()
        sink = {}
        out = parse_dps(data, stats_out=sink)
        assert not isinstance(out, ParseError)
        assert reversal_count() == 0, f"k={k}: dps parser reversed a list"
        stats = sink["stats"]
        expected_cells = count_sexpr_cells(out)
        assert stats.cells_allocated == expected_cells, (
            f"k={k}: {stats.cells_allocated} cells != {expected_cells} AST cells"
        )
        assert stats.receiver_cells == 1
    elapsed = time.monotonic() - started
    print(
        f"\n[criterion 7] parser work (k=10..18): PASS "
        f"(0 reversals, cells == AST nodes exactly, {elapsed:.1f}s)"
    )


# -- criterion 8: linearity audit ------------------------------------------------------------


def _leaky_token(rng):
    def body(t):
        t1, t2 = token_dup2(t)
        token_consume(t1)
        return 7  # t2 dropped

    return body


def _leaky_dest(rng):
    def body(t):
        i = alloc(t)
        if rng.random() < 0.5:
            map_b(i, lambda d: None)  # orphaned immediately
            return 0
        i2 = map_b(i, lambda d: (fill(d, LIST_CONS), None)[1])  # drops 2 dests
        return from_incomplete_(i2)

    return body


def _leaky_incomplete(rng):
    def body(t):
        if rng.random() < 0.5:
            alloc(t)
            return 1
        t1, t2 = token_dup2(t)
        token_consume(t1)
        into_incomplete(t2, random_value("list", rng, 3), "list")
        return 2

    return body


def test_criterion_8_linearity_audit():
    rng = random.Random(0xC8)
    families = (_leaky_token, _leaky_dest, _leaky_incomplete)
    detected = 0
    total = 120
    for case in range(total):
        body = families[case % 3](rng)
        with pytest.raises(LinearityLeak):
            with_region(body)
        detected += 1
    assert detected == total

    # zero false positives on the valid corpus of criterion 2
    clean = 0
    rng2 = random.Random(0xC2)  # same seed family as criterion 2
    for case in range(200):
        type_id = CASE_TYPES[case % len(CASE_TYPES)]
        value = random_value(type_id, rng2, depth=6)
        build_top_down(value, type_id, rng2, splice_prob=0.15)  # raises on leak
        clean += 1
    assert clean == 200
    print(
        f"\n[criterion 8] linearity audit: PASS "
        f"({total}/{total} leaky scripts detected, 0 false positives in {clean})"
    )
