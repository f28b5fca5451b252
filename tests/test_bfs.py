"""Breadth-first relabeling: shape preservation, BFS order, single traversal."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import destpass.bfs
from destpass.bfs import (
    Node,
    level_order_values,
    map_accum_bfs,
    random_tree,
    relabel_dps,
    relabel_two_pass,
    same_shape,
)


def complete_tree(depth: int):
    """Complete binary tree whose deepest nodes sit at ``depth`` edges."""
    if depth < 0:
        return None
    return Node(None, complete_tree(depth - 1), complete_tree(depth - 1))


def left_spine(n: int):
    root = None
    for _ in range(n):
        root = Node(None, root, None)
    return root


def right_spine(n: int):
    root = None
    for _ in range(n):
        root = Node(None, None, root)
    return root


def count_nodes(tree):
    return len(level_order_values(tree))


def test_empty_tree():
    out, final = map_accum_bfs(lambda st_, x: (st_ + 1, st_), 1, None)
    assert out is None and final == 1


def test_single_node():
    out, final = map_accum_bfs(lambda st_, x: (st_ + 1, st_), 1, Node("a"))
    assert out == Node(1, None, None)
    assert final == 2


def test_two_level_tree_with_uneven_depth():
    # a has children b and c; only c has a further (left) child d:
    # level order a,b,c,d -> labels 1,2,3,4, final state 5
    tree = Node("a", Node("b"), Node("c", Node("d")))
    out, final = map_accum_bfs(lambda st_, x: (st_ + 1, st_), 1, tree)
    assert final == 5
    assert out == Node(1, Node(2, None, None), Node(3, Node(4, None, None), None))


def test_relabel_empty():
    assert relabel_dps(None) is None
    assert relabel_two_pass(None) is None


def test_same_shape_tells_trees_apart():
    assert not same_shape(None, Node(0))
    assert not same_shape(Node(0, Node(1)), Node(0, None, Node(1)))
    assert same_shape(Node(0, Node(1)), Node(2, Node(3)))


def test_relabel_complete_depth_3():
    tree = complete_tree(3)
    out = relabel_dps(tree)
    assert same_shape(tree, out)
    assert level_order_values(out) == list(range(1, 16))


def test_relabel_left_spine():
    tree = left_spine(5)
    out = relabel_dps(tree)
    assert same_shape(tree, out)
    labels = []
    node = out
    while node is not None:
        labels.append(node.value)
        node = node.left
    assert labels == [1, 2, 3, 4, 5]


def test_visit_counter_counts_each_node_once():
    tree = random_tree(137, random.Random(3))
    counters = {}
    map_accum_bfs(lambda st_, x: (st_, x), 0, tree, counters=counters)
    assert counters["visits"] == 137


@pytest.mark.parametrize(
    "tree",
    [None, Node(0), left_spine(9), right_spine(9), complete_tree(4), random_tree(300, random.Random(5))],
    ids=["empty", "single node", "left spine", "right spine", "complete", "random"],
)
def test_one_fill_per_node_charges_as_a_fill_per_node_and_nil(monkeypatch, tree):
    """A node's fill writes each empty child in its own region call, charged
    as the child's own fill would be: n nodes and n + 1 nils, each node a
    leaf copy, and the receiver's two words."""
    n, fills, counters = count_nodes(tree), [], {}
    real = destpass.bfs.fill

    def counted(*args):
        fills.append(args[1])
        return real(*args)

    monkeypatch.setattr(destpass.bfs, "fill", counted)
    out, _ = map_accum_bfs(lambda st_, x: (st_ + 1, st_), 1, tree, counters=counters)
    stats = counters["stats"]
    assert same_shape(tree, out)
    assert (stats.cells_allocated, stats.leaf_copies) == (2 * n + 1, n)
    assert stats.bytes_allocated == 48 * n + 24
    assert len(fills) == max(n, 1)


def test_agrees_with_two_pass_baseline():
    for seed in range(5):
        tree = random_tree(200 + seed, random.Random(seed))
        assert level_order_values(relabel_dps(tree)) == level_order_values(
            relabel_two_pass(tree)
        )


def test_state_threading_order():
    # state fold oracle: f applied to values in level order
    tree = random_tree(50, random.Random(9))

    def f(st_, x):
        return st_ * 31 + x, st_

    _, final = map_accum_bfs(f, 7, tree)
    expected = 7
    for v in level_order_values(tree):
        expected = expected * 31 + v
    assert final == expected


@given(st.integers(0, 2**32), st.integers(0, 2000))
@settings(max_examples=30, deadline=None)
def test_relabel_properties(seed, n):
    tree = random_tree(n, random.Random(seed))
    counters = {}
    out, final = map_accum_bfs(
        lambda st_, x: (st_ + 1, st_), 1, tree, counters=counters
    )
    assert same_shape(tree, out)
    assert level_order_values(out) == list(range(1, n + 1))
    assert counters["visits"] == n
    assert final == n + 1


def test_random_tree_is_deterministic_and_sized():
    a = random_tree(500, random.Random(11))
    b = random_tree(500, random.Random(11))
    assert same_shape(a, b)
    assert count_nodes(a) == 500
