"""Every public entry point refuses bad input with a ``DpsError`` or a
``TypeError``, and a refused call changes nothing."""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import destpass
from destpass import (
    CellRef,
    Dest,
    DpsError,
    Incomplete,
    Leaf,
    LinearityLeak,
    Token,
    alloc,
    alloc_hollow,
    fill,
    fill_leaf,
    into_incomplete,
    map_b,
    region_new,
    region_stats,
    token_dup2,
    with_region,
    write_field,
)
from destpass.bfs import Node, map_accum_bfs
from destpass.dlist import (
    LIST_CONS,
    NIL,
    Cons,
    dlist_append,
    dlist_concat,
    dlist_from_list,
    dlist_new,
    dlist_to_list,
    from_pylist,
)
from destpass.sexpr import parse_dps, parse_naive
from destpass.shapes import CtorDescriptor, ShapeRegistry, TypeShape

from support import ledger_state

_NO_REGION = {
    "CellRef": lambda: CellRef(None, 0, LIST_CONS),
    "Incomplete": lambda: Incomplete(5, None, None, None),
    "Token": lambda: Token("x"),
    "alloc_hollow": lambda: alloc_hollow(None, LIST_CONS),
    "region_stats": lambda: region_stats(5),
    "write_field": lambda: write_field("x", None, 0, Leaf(1)),
    "fill of a Dest of no region": lambda: fill(Dest(5, 5, 5, None, 5), LIST_CONS),
}


@pytest.mark.parametrize("call", list(_NO_REGION.values()), ids=list(_NO_REGION))
def test_a_call_given_no_region_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize(
    "op", ["dlist_append", "dlist_from_list", "into_incomplete", "fill_leaf", "map_accum_bfs"]
)
def test_an_ellipsis_is_a_hole_only_among_a_fills_own_arguments(op):
    """As a list element, a leaf of a copied value, a leaf payload or a
    mapped node value, ``...`` is refused with TypeError and nothing
    changes."""
    region = region_new()
    t1, t2 = token_dup2(Token(region))
    i = alloc(t1)
    call = {
        "dlist_append": lambda: dlist_append(i, ...),
        "dlist_from_list": lambda: dlist_from_list(t2, [1, ...]),
        "into_incomplete": lambda: into_incomplete(t2, Cons(..., NIL), "list"),
        "fill_leaf": lambda: fill_leaf(..., i.payload),
        "map_accum_bfs": lambda: map_accum_bfs(lambda s, v: (s, ...), 0, Node(1, None, None)),
    }[op]
    before = ledger_state([region], [t2, i, i.payload])
    with pytest.raises(TypeError):
        call()
    assert ledger_state([region], [t2, i, i.payload]) == before


@pytest.mark.parametrize("out", [(1, 2, 3), (1,), 5, None], ids=repr)
def test_map_accum_bfs_names_the_pair_that_f_returns(out):
    """An ``f`` that returns no (state, mapped) pair raises TypeError, and
    an error that ``f`` raises itself passes through as it is."""
    with pytest.raises(TypeError, match="pair"):
        map_accum_bfs(lambda s, v: out, 0, Node(1, None, None))

    def fails(s, v):
        raise ValueError("f's own")

    with pytest.raises(ValueError, match="f's own"):
        map_accum_bfs(fails, 0, Node(1, None, None))


# -- the sweep ----------------------------------------------------------------------

_OTHER_REGISTRY = ShapeRegistry()
_OTHER_CONS = CtorDescriptor("list", "cons", LIST_CONS.fields, Cons)
_OTHER_REGISTRY.register(
    TypeShape("list", (CtorDescriptor("list", "nil", (), lambda: NIL), _OTHER_CONS))
)
_ENTRY_POINTS = {
    **{name: f for name, f in vars(destpass).items() if callable(f) and not name.startswith("_")},
    **{
        f.__name__: f
        for f in (parse_dps, parse_naive, map_accum_bfs, dlist_new, dlist_append,
                  dlist_concat, dlist_to_list, dlist_from_list)
    },
}
_SCALARS = (0, 1, -1, 2.5, True, None, "x", "", b"x", b"(a 1)", ..., Leaf(1))
_CONTEXTS = ((LIST_CONS,), (..., 1), LIST_CONS, _OTHER_CONS)


def _handles():
    """Handles of a live region and of a closed one: tokens, incompletes
    empty, half built and finished, their destinations, a raw cell and the
    regions themselves; and the regions and the linear handles among them."""
    live = region_new()
    empty = alloc(Token(live))
    half = map_b(alloc(Token(live)), lambda d: fill(d, LIST_CONS))
    done = into_incomplete(Token(live), from_pylist([1]), "list")
    kept = []

    def body(t):
        t1, t2 = token_dup2(t)
        i = alloc(t1)
        kept.extend((t2, i, i.payload, t.region))

    with pytest.raises(LinearityLeak):  # the region closes with the handles live
        with_region(body)
    linear = [Token(live), empty, empty.payload, half, *half.payload, done, *kept[:3]]
    values = [*linear, alloc_hollow(live, LIST_CONS), live, kept[3]]
    return values, [live, kept[3]], linear


_POOL_SIZE = len(_handles()[0]) + len(_SCALARS) + len(_CONTEXTS)


def _shape(f):
    """The number of positional parameters of ``f``, whether it takes more,
    and the names of its keyword-only parameters."""
    try:
        params = list(inspect.signature(f).parameters.values())
    except (TypeError, ValueError):  # a builtin's, as an exception class's
        return 1, True, []
    positional = [p for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    more = any(p.kind is p.VAR_POSITIONAL for p in params)
    return len(positional), more, [p.name for p in params if p.kind is p.KEYWORD_ONLY]


@given(st.sampled_from(sorted(_ENTRY_POINTS)), st.data())
@settings(max_examples=600, deadline=None)
def test_every_entry_point_returns_or_refuses_without_a_change(name, data):
    """Every callable that ``destpass`` exports and every case-study entry
    point, called with scalars, strings and bytes, handles of a live and of a
    closed region, descriptors of this and of another registry, and malformed
    contexts, returns or raises a ``DpsError`` or a ``TypeError``; a call
    that raises leaves every handle's flag and lineage, and every region's
    counts, as they were."""
    f = _ENTRY_POINTS[name]
    handles, regions, linear = _handles()
    pool = [*handles, *_SCALARS, *_CONTEXTS]
    index = st.integers(0, _POOL_SIZE - 1)
    n, more, keywords = _shape(f)
    count = data.draw(st.integers(max(0, n - 1), n + 1 + more))
    args = [pool[data.draw(index)] for _ in range(count)]
    kwargs = {k: pool[data.draw(index)] for k in keywords if data.draw(st.booleans())}
    before = ledger_state(regions, linear)
    try:
        f(*args, **kwargs)
    except (DpsError, TypeError):
        assert ledger_state(regions, linear) == before
