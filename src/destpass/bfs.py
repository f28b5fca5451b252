"""Single-pass breadth-first tree relabeling.

The trick: keep a FIFO queue of pairs (a non-empty input subtree, the
destination for the corresponding output subtree). Each step dequeues a
pair, maps the node's value, fills the destination with the context
``Node(mapped, _, _)``, or ``Node(mapped, Nil, _)`` and the like when a child
is known to be empty, and enqueues each non-empty child with the
destination of its hole. One traversal of the input produces the fully
relabeled output, top-down.

The empty tree is ``None``; nodes are :class:`Node`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from .builder import alloc, fill, from_incomplete, map_b, with_region
from .region import region_stats
from .shapes import DEFAULT_REGISTRY, CtorDescriptor, LeafType, Recursive, TypeShape


@dataclass
class Node:
    value: Any
    left: "Node | None" = None
    right: "Node | None" = None


TREE_NIL = CtorDescriptor("tree", "nil", (), lambda: None)
TREE_NODE = CtorDescriptor(
    "tree", "node", (LeafType("value"), Recursive("tree"), Recursive("tree")), Node
)
TREE_SHAPE = TypeShape("tree", (TREE_NIL, TREE_NODE))
DEFAULT_REGISTRY.register(TREE_SHAPE)


def map_accum_bfs(
    f: Callable[[Any, Any], tuple[Any, Any]],
    s0,
    tree: Node | None,
    *,
    counters: dict | None = None,
):
    """Map ``f`` over node values in breadth-first order, threading a state.

    ``f(state, value) -> (state, mapped)``. Returns ``(new_tree, final_state)``
    where the new tree has exactly the input's shape. ``tree`` must be a
    tree: a node reached twice is visited twice, and a cycle never ends. A
    ``tree`` with a node that is neither a ``Node`` nor None, an ``f`` that
    returns no pair, or a mapped value that is ``...`` (no leaf can hold
    it), raises TypeError.
    When ``counters`` is given, ``counters["visits"]`` is set to the number
    of nodes dequeued and ``counters["stats"]`` to the region's allocation
    counters.
    """
    visits = 0

    def run(token):
        region = token.region

        def body(dtree):
            nonlocal visits
            st = s0
            if tree is None:
                fill(dtree, TREE_NIL)
                return st
            queue = deque([(tree, dtree)])
            while queue:
                subtree, d = queue.popleft()
                visits += 1
                try:
                    value, left, right = subtree.value, subtree.left, subtree.right
                except AttributeError:  # from 3.11 a try costs nothing until it catches
                    raise TypeError(f"not a tree: {type(subtree).__name__}") from None
                out = f(st, value)
                try:
                    st, y = out
                except (TypeError, ValueError):  # from 3.11 a try costs nothing until it catches
                    raise TypeError("f must return a (state, mapped) pair") from None
                if y is ...:
                    raise TypeError("... marks a hole; a node value cannot be one")
                if left is None:
                    if right is None:
                        fill(d, TREE_NODE, y, TREE_NIL, TREE_NIL)
                    else:
                        queue.append((right, fill(d, TREE_NODE, y, TREE_NIL, ...)))
                elif right is None:
                    queue.append((left, fill(d, TREE_NODE, y, ..., TREE_NIL)))
                else:
                    dl, dr = fill(d, TREE_NODE, y, ..., ...)
                    queue.append((left, dl))
                    queue.append((right, dr))
            return st

        result = from_incomplete(map_b(alloc(token), body))
        if counters is not None:
            counters["stats"] = region_stats(region)
        return result

    out_tree, final_state = with_region(run)
    if counters is not None:
        counters["visits"] = visits
    return out_tree, final_state


def relabel_dps(tree: Node | None) -> Node | None:
    """Replace node values with 1..n in breadth-first order, single pass.
    ``tree`` must be a tree, as ``map_accum_bfs`` requires."""
    out, _ = map_accum_bfs(lambda st, _x: (st + 1, st), 1, tree)
    return out


def relabel_two_pass(tree: Node | None) -> Node | None:
    """Baseline relabeling: one pass to count level order, one to rebuild.
    ``tree`` must be a tree: a shared node keeps its last label, and a cycle
    never ends."""
    order: list[Node] = []
    queue = deque([tree])
    while queue:
        t = queue.popleft()
        if t is None:
            continue
        order.append(t)
        queue.append(t.left)
        queue.append(t.right)
    labels = {id(t): k for k, t in enumerate(order, start=1)}

    if tree is None:
        return None
    root = Node(labels[id(tree)])
    rebuild = deque([(tree, root)])
    while rebuild:
        src, dst = rebuild.popleft()
        if src.left is not None:
            dst.left = Node(labels[id(src.left)])
            rebuild.append((src.left, dst.left))
        if src.right is not None:
            dst.right = Node(labels[id(src.right)])
            rebuild.append((src.right, dst.right))
    return root


def level_order_values(tree: Node | None) -> list:
    """Node values collected level by level, left to right."""
    out = []
    queue = deque([tree])
    while queue:
        t = queue.popleft()
        if t is None:
            continue
        out.append(t.value)
        queue.append(t.left)
        queue.append(t.right)
    return out


def same_shape(a: Node | None, b: Node | None) -> bool:
    """True when the two trees are identical after erasing values."""
    queue = deque([(a, b)])
    while queue:
        x, y = queue.popleft()
        if (x is None) != (y is None):
            return False
        if x is None:
            continue
        queue.append((x.left, y.left))
        queue.append((x.right, y.right))
    return True


def random_tree(n: int, rng) -> Node | None:
    """Random-shaped tree with exactly ``n`` nodes (values 0..n-1)."""
    if n <= 0:
        return None
    root = Node(0)
    # open slots: (parent, "left" | "right")
    slots = [(root, "left"), (root, "right")]
    for k in range(1, n):
        idx = rng.randrange(len(slots))
        slots[idx], slots[-1] = slots[-1], slots[idx]
        parent, side = slots.pop()
        child = Node(k)
        setattr(parent, side, child)
        slots.append((child, "left"))
        slots.append((child, "right"))
    return root
