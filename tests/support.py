"""Shared test helpers: structural comparison, random value generation over
registered shapes, and randomized top-down build scripts.

The random build script is the workhorse of the oracle tests: generate a
host value bottom-up (that construction IS the oracle), then rebuild it
top-down through the destination API in a randomized consumption order,
optionally splicing complete subvalues with into_incomplete/fill_comp, and
compare the released result against the oracle value.
"""

from __future__ import annotations

import dataclasses

from destpass import (
    alloc,
    fill,
    fill_comp,
    fill_leaf,
    from_incomplete_,
    into_incomplete,
    map_b,
    region_stats,
    token_consume,
    token_dup2,
    with_region,
)
from destpass.dlist import Cons, Nil, from_pylist, to_pylist
from destpass.sexpr import SList
from destpass.shapes import DEFAULT_REGISTRY, Recursive

LEAF_SAMPLERS = {
    "value": lambda rng: rng.randrange(-100, 100),
    "int": lambda rng: rng.randrange(-1000, 1000),
    "bytes": lambda rng: bytes(
        rng.randrange(97, 123) for _ in range(rng.randrange(0, 5))
    ),
}

CASE_TYPES = ("list", "tree", "sexpr")


def structurally_equal(a, b) -> bool:
    """Deep equality over scalars, containers, and dataclasses; iterative,
    so arbitrarily deep linked structures are safe."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, (int, float, str, bytes, bool)):
            if x != y:
                return False
        elif dataclasses.is_dataclass(x):
            for f in dataclasses.fields(x):
                stack.append((getattr(x, f.name), getattr(y, f.name)))
        elif isinstance(x, (tuple, list)):
            if len(x) != len(y):
                return False
            stack.extend(zip(x, y))
        elif x != y:
            return False
    return True


def too_deep_leaf(what):
    """A leaf payload nested too deep for ``copy.deepcopy``: a linked list of
    200 cells, or a list nested 500 deep."""
    if what == "cons list":
        return from_pylist(range(200))
    nested = []
    for _ in range(500):
        nested = [nested]
    return nested


def ledger_state(regions, handles):
    """What a refused call must leave as it was: each handle's flag, the
    hole count of each destination's or incomplete's lineage, and each
    region's outstanding holes, tallies of live tokens and incompletes, and
    allocation stats."""
    return (
        [h.alive for h in handles],
        [h.lineage.find().holes for h in handles if hasattr(h, "lineage")],
        [
            (r.outstanding_holes, r._tokens_alive, r._incompletes_alive, region_stats(r))
            for r in regions
        ],
    )


def random_value(type_id: str, rng, depth: int):
    """Random host value of a registered type, bottom-up (the oracle side).

    Recursive constructors are preferred while depth remains, so the values
    exercise real nesting instead of degenerating to leaves."""
    shape = DEFAULT_REGISTRY.shape(type_id)
    flat = [
        c for c in shape.ctors if not any(isinstance(k, Recursive) for k in c.fields)
    ]
    deep = [c for c in shape.ctors if c not in flat]
    if depth <= 0 or not deep:
        candidates = flat
    elif flat and rng.random() < 0.25:
        candidates = flat
    else:
        candidates = deep
    c = candidates[rng.randrange(len(candidates))]
    parts = []
    for kind in c.fields:
        if isinstance(kind, Recursive):
            parts.append(random_value(kind.type_id, rng, depth - 1))
        else:
            parts.append(LEAF_SAMPLERS[kind.type_id](rng))
    return c.make(*parts)


def build_top_down(
    value, type_id: str, rng, *, splice_prob: float = 0.0, with_stats: bool = False
):
    """Rebuild ``value`` through the destination API and return the decoded
    result. Holes are consumed in a randomized order; with ``splice_prob``,
    a pending subvalue is occasionally copied in whole via into_incomplete
    and plugged with fill_comp instead of being built hole by hole. With
    ``with_stats``, return ``(result, region stats after the release)``."""

    def body(token):
        token, bank = token_dup2(token)
        inc = alloc(token)

        def consume_all(root_dest):
            nonlocal bank
            pending = [(root_dest, value, type_id)]
            while pending:
                i = rng.randrange(len(pending))
                pending[i], pending[-1] = pending[-1], pending[i]
                d, v, tid = pending.pop()
                if tid is None:
                    fill_leaf(v, d)
                    continue
                if splice_prob and rng.random() < splice_prob:
                    bank, t = token_dup2(bank)
                    fill_comp(into_incomplete(t, v, tid), d)
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
                    if isinstance(kind, Recursive):
                        pending.append((dv, part, kind.type_id))
                    else:
                        pending.append((dv, part, None))

        done = map_b(inc, lambda d: consume_all(d))
        token_consume(bank)
        out = from_incomplete_(done)
        return (out, region_stats(bank.region)) if with_stats else out

    return with_region(body)


def count_sexpr_cells(e) -> int:
    """Constructor cells a region holds for this AST: one per expression
    node, plus one cons per child and one nil per list."""
    total = 0
    stack = [e]
    while stack:
        x = stack.pop()
        total += 1
        if isinstance(x, SList):
            kids = to_pylist(x.children)
            total += len(kids) + 1
            stack.extend(kids)
    return total


def mutate_bytes(data: bytes, rng) -> bytes:
    """One random corruption: truncate, delete, insert, or replace."""
    if len(data) < 2:
        return data + b"("
    pool = b'()" \\-azd019'
    op = rng.randrange(4)
    pos = rng.randrange(len(data))
    if op == 0:
        return data[:pos]
    if op == 1:
        return data[:pos] + data[pos + 1 :]
    byte = bytes([pool[rng.randrange(len(pool))]])
    if op == 2:
        return data[:pos] + byte + data[pos:]
    return data[:pos] + byte + data[pos + 1 :]
