"""The seeded workloads: inputs, the two engines and their oracles.

Each workload is built from a seed, at the size exponent in ``SIZES``, and
holds a list of *units*: the whole input for ``dlist-concat`` and
``bfs-relabel``, one message for ``sexpr-stream``. One timed sample is one
unit through one engine, run ``host_reps`` times back to back by the host
engine. The engines receive only the generated inputs.

The case-study entry points and the builder names the harness itself calls
are looked up through :func:`harness_calls`, a namespace the tracer can
patch, so that the untraced path runs the library's own function objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

import channels

SIZES = {
    "dlist-concat": 12,
    "bfs-relabel": 13,
    "sexpr-stream": 11,
}

# On the whole-input workloads one timed host sample is this many
# back-to-back host runs, so that it lasts a third to a half as long as one
# dps run (FunDList is ~26x, relabel_two_pass ~13x faster than dps) and is
# not timed over a far shorter window. bfs-relabel takes fewer, so that its
# 100 dps samples still fit in a 36 s run. On sexpr-stream the engines
# alternate per message, so a pass times both over the same window.
HOST_REPS = {"dlist-concat": 16, "bfs-relabel": 4}

# Stream messages are generate_input(size) with size drawn from this range.
STREAM_MESSAGE_BYTES = (8, 64)


@dataclass
class Workload:
    name: str
    case: str  # the case-study layer the workload runs: dlist, bfs or sexpr
    item_unit: str
    size: str
    items: list[int]  # items per unit
    dps: Callable[[int], Any]  # unit index -> output
    host: Callable[[int], Any]
    check_dps: Callable[[int, Any], bool]  # (unit index, output) -> passed
    check_host: Callable[[int, Any], bool]
    counted: Callable[[int], tuple[Any, channels.Counters]]  # dps run, counted
    # (unit index, counters) -> the case study's invariant holds
    check_counters: Callable[[int, channels.Counters], bool]
    host_reps: int = 1  # back-to-back host runs per timed host sample


def harness_calls(dp) -> SimpleNamespace:
    """The library functions the harness calls, as patchable bindings."""
    return SimpleNamespace(
        with_region=dp.builder.with_region,
        token_dup2=dp.builder.token_dup2,
        dlist_new=dp.dlist.dlist_new,
        dlist_append=dp.dlist.dlist_append,
        dlist_concat=dp.dlist.dlist_concat,
        dlist_to_list=dp.dlist.dlist_to_list,
        map_accum_bfs=dp.bfs.map_accum_bfs,
        parse_dps=dp.sexpr.parse_dps,
    )


# -- dlist-concat --------------------------------------------------------------


def _dlist_dps(dp, calls, elems, marks=None):
    """Singleton dlists, left-nested concat, release.

    With ``marks`` given, region counters are appended before the concat
    phase, after it, and after the release.
    """

    def body(token):
        region = token.region
        dup2, new, append = calls.token_dup2, calls.dlist_new, calls.dlist_append
        singles = []
        for x in elems[:-1]:
            token, t = dup2(token)
            singles.append(append(new(t), x))
        singles.append(append(new(token), elems[-1]))
        if marks is not None:
            marks.append(channels.region_snapshot(dp, region))
        concat = calls.dlist_concat
        acc = singles[0]
        for nxt in singles[1:]:
            acc = concat(acc, nxt)
        if marks is not None:
            marks.append(channels.region_snapshot(dp, region))
        out = calls.dlist_to_list(acc)
        if marks is not None:
            marks.append(channels.region_snapshot(dp, region))
        return out

    return calls.with_region(body)


def _fun_dlist(dp, elems):
    FunDList = dp.dlist.FunDList
    singles = [FunDList.from_items((x,)) for x in elems]
    acc = singles[0]
    for nxt in singles[1:]:
        acc = acc.concat(nxt)
    return acc.to_list()


def dlist_concat(dp, calls, rng: random.Random, k: int) -> Workload:
    n = 2**k
    elems = list(range(n))
    rng.shuffle(elems)
    expected = list(elems)

    def counted(_i):
        marks: list = []
        out = _dlist_dps(dp, calls, elems, marks)
        before, after, end = marks
        end.concat_cells = after.cells - before.cells
        return out, end

    return Workload(
        name="dlist-concat",
        case="dlist",
        item_unit="element",
        size=f"2^{k} singleton dlists",
        items=[n],
        dps=lambda _i: _dlist_dps(dp, calls, elems),
        host=lambda _i: _fun_dlist(dp, elems),
        check_dps=lambda _i, out: dp.dlist.to_pylist(out) == expected,
        check_host=lambda _i, out: out == expected,
        counted=counted,
        check_counters=lambda _i, c: c.concat_cells == 0,
        host_reps=HOST_REPS["dlist-concat"],
    )


# -- bfs-relabel ---------------------------------------------------------------


def _relabel(st, _x):
    return st + 1, st


def bfs_relabel(dp, calls, rng: random.Random, k: int) -> Workload:
    n = 2**k
    tree = dp.bfs.random_tree(n, rng)
    expected = list(range(1, n + 1))

    def check(_i, out):
        return dp.bfs.same_shape(tree, out) and dp.bfs.level_order_values(out) == expected

    def counted(_i):
        (out, _), counters = channels.bfs_counted(dp, _relabel, 1, tree)
        return out, counters

    return Workload(
        name="bfs-relabel",
        case="bfs",
        item_unit="node",
        size=f"random_tree of 2^{k} nodes",
        items=[n],
        dps=lambda _i: calls.map_accum_bfs(_relabel, 1, tree)[0],
        host=lambda _i: dp.bfs.relabel_two_pass(tree),
        check_dps=check,
        check_host=check,
        counted=counted,
        check_counters=lambda _i, c: c.visits == n,
        host_reps=HOST_REPS["bfs-relabel"],
    )


# -- sexpr-stream ---------------------------------------------------------------


def sexpr_stream(dp, calls, rng: random.Random, k: int) -> Workload:
    lo, hi = STREAM_MESSAGE_BYTES
    docs = [
        dp.sexpr.generate_input(rng.randint(lo, hi), rng.randrange(2**32))
        for _ in range(2**k)
    ]
    # The oracle is the parse_naive / parse_dps differential: each output must
    # equal the naive parser's tree, which must be a tree, not a ParseError.
    refs = [dp.sexpr.parse_naive(d) for d in docs]
    for d, ref in zip(docs, refs):
        if isinstance(ref, dp.sexpr.ParseError):
            raise ValueError(f"sexpr-stream: generated input does not parse: {d!r}")

    def check(i, out):
        return out == refs[i]

    return Workload(
        name="sexpr-stream",
        case="sexpr",
        item_unit="byte",
        size=f"2^{k} messages of {lo}-{hi} bytes",
        items=[len(d) for d in docs],
        dps=lambda i: calls.parse_dps(docs[i]),
        host=lambda i: dp.sexpr.parse_naive(docs[i]),
        check_dps=check,
        check_host=check,
        counted=lambda i: channels.sexpr_counted(dp, docs[i]),
        check_counters=lambda _i, c: c.reversals == 0,
    )


BUILDERS = {
    "dlist-concat": dlist_concat,
    "bfs-relabel": bfs_relabel,
    "sexpr-stream": sexpr_stream,
}


def build(name: str, dp, calls, seed: int) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed``."""
    return BUILDERS[name](dp, calls, random.Random(seed), SIZES[name])
