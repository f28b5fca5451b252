"""Shape registration and constructor metadata."""

from dataclasses import dataclass, field
from typing import Any

import pytest

from destpass import (
    CtorDescriptor,
    LeafType,
    Recursive,
    ShapeConflict,
    ShapeRegistry,
    TypeShape,
    UnknownCtor,
    alloc,
    fill,
    fill_comp,
    fill_leaf,
    from_incomplete_,
    map_b,
    token_dup2,
    with_region,
)
from destpass.shapes import DEFAULT_REGISTRY
from destpass.bfs import TREE_NODE, TREE_SHAPE
from destpass.dlist import LIST_CONS, LIST_NIL, LIST_SHAPE


def test_reregistering_identical_shape_is_idempotent():
    DEFAULT_REGISTRY.register(LIST_SHAPE)
    DEFAULT_REGISTRY.register(TREE_SHAPE)


def test_conflicting_shape_rejected():
    other_cons = CtorDescriptor("list", "cons", (LeafType("value"),), lambda h: h)
    other_nil = CtorDescriptor("list", "nil", (), lambda: None)
    clash = TypeShape("list", (other_nil, other_cons), lambda v: (0, ()))
    with pytest.raises(ShapeConflict):
        DEFAULT_REGISTRY.register(clash)


def test_an_equal_shape_of_new_descriptors_is_refused():
    twin = TypeShape(
        "list",
        tuple(CtorDescriptor(c.type_id, c.name, c.fields, c.make) for c in LIST_SHAPE.ctors),
        LIST_SHAPE.classify,
    )
    with pytest.raises(ShapeConflict):
        DEFAULT_REGISTRY.register(twin)
    for c in twin.ctors:
        with pytest.raises(UnknownCtor):
            DEFAULT_REGISTRY.resolve(c)
    assert DEFAULT_REGISTRY.resolve(LIST_CONS) == ("head", "tail")


def test_a_shape_differing_only_in_make_is_refused():
    reg = ShapeRegistry()
    reg.register(_pair_shape("p", _Pair))
    with pytest.raises(ShapeConflict):
        reg.register(_pair_shape("p", _FrozenPair))
    assert reg.resolve(reg.shape("p").ctors[1]) == ("a", "b")
    assert reg.shape("p").ctors[1].make is _Pair
    assert _FrozenPair not in reg.host_fields


def test_unresolvable_recursive_field_rejected():
    reg = ShapeRegistry()
    dangling = TypeShape(
        "box",
        (CtorDescriptor("box", "box", (Recursive("nowhere"),), lambda x: x),),
        lambda v: (0, (v,)),
    )
    with pytest.raises(ShapeConflict):
        reg.register(dangling)


def test_mutually_recursive_batch_registration():
    reg = ShapeRegistry()
    even = TypeShape(
        "even",
        (
            CtorDescriptor("even", "zero", (), lambda: 0),
            CtorDescriptor("even", "succ", (Recursive("odd"),), lambda n: n + 1),
        ),
        lambda v: (0, ()) if v == 0 else (1, (v - 1,)),
    )
    odd = TypeShape(
        "odd",
        (CtorDescriptor("odd", "succ", (Recursive("even"),), lambda n: n + 1),),
        lambda v: (0, (v - 1,)),
    )
    reg.register(even, odd)
    assert reg.shape("even") and reg.shape("odd")
    # but neither alone would have resolved
    with pytest.raises(ShapeConflict):
        ShapeRegistry().register(even)
    # and one type id may not come twice in one batch
    with pytest.raises(ShapeConflict):
        ShapeRegistry().register(even, odd, even)


def test_self_recursion_resolves():
    reg = ShapeRegistry()
    reg.register(
        TypeShape(
            "nat",
            (
                CtorDescriptor("nat", "z", (), lambda: 0),
                CtorDescriptor("nat", "s", (Recursive("nat"),), lambda n: n + 1),
            ),
            lambda v: (0, ()) if v == 0 else (1, (v - 1,)),
        )
    )


def test_dests_spec_of_unregistered_ctor():
    stray = CtorDescriptor("list", "cons", (LeafType("value"), Recursive("list")), None)
    with pytest.raises(UnknownCtor):
        DEFAULT_REGISTRY.resolve(stray)
    with pytest.raises(UnknownCtor):
        ShapeRegistry().shape("list")


def test_arity_is_the_number_of_fields():
    for c in (LIST_NIL, LIST_CONS, TREE_NODE):
        assert c.arity == len(c.fields) and type(c.fields) is tuple
    listed = CtorDescriptor("w", "w", [Recursive("w")] * 2, None)
    assert listed.fields == (Recursive("w"),) * 2 and listed.arity == 2
    with pytest.raises(TypeError):
        CtorDescriptor("w", "w", (), None, arity=1)


def test_shape_validation():
    with pytest.raises(ValueError):
        TypeShape("t", ())
    with pytest.raises(ValueError):  # a ctor of another type
        TypeShape("t", (CtorDescriptor("u", "a", (), lambda: None),))


# -- which constructors a fill builds in place ---------------------------------


@dataclass
class _Pair:
    a: Any
    b: Any


@dataclass(frozen=True)
class _FrozenPair:
    a: Any
    b: Any


@dataclass
class _Checked:
    a: Any
    b: Any

    def __post_init__(self):
        if self.a is None:
            raise ValueError("a is required")


@dataclass
class _Counted:
    a: Any
    b: Any
    n: int = field(default=0, init=False)


def _pair_shape(type_id, make, kid_type=None):
    kid = Recursive(kid_type or type_id)
    return TypeShape(
        type_id,
        (CtorDescriptor(type_id, "nil", (), lambda: None),
         CtorDescriptor(type_id, "pair", (LeafType("int"), kid), make)),
        lambda v: (0, ()) if v is None else (1, (v.a, v.b)),
    )


def test_which_constructors_build_in_place():
    reg = ShapeRegistry()
    shapes = {
        "plain": _pair_shape("plain", _Pair),
        "frozen": _pair_shape("frozen", _FrozenPair),
        "post_init": _pair_shape("post_init", _Checked),
        "init_false": _pair_shape("init_false", _Counted),
        "lambda": _pair_shape("lambda", lambda a, b: (a, b)),
        "reaches_lambda": _pair_shape("reaches_lambda", _Pair, "lambda"),
    }
    reg.register(*shapes.values())
    layouts = {t: [reg.resolve(c) for c in s.ctors] for t, s in shapes.items()}
    assert layouts == {
        "plain": [(), ("a", "b")],
        "frozen": [(), ("a", "b")],
        "post_init": [(), None],
        "init_false": [(), None],
        "lambda": [(), None],
        "reaches_lambda": [(), None],
    }
    assert DEFAULT_REGISTRY.resolve(LIST_CONS) == ("head", "tail")
    assert DEFAULT_REGISTRY.resolve(LIST_NIL) == ()
    assert DEFAULT_REGISTRY.resolve(TREE_NODE) == ("value", "left", "right")


@pytest.mark.parametrize(
    "type_id", ["plain", "frozen", "post_init", "reaches_lambda", "lambda_of_plain"]
)
def test_in_place_and_cell_built_values_plug_and_release_alike(type_id):
    """The pair's kid is built as its own incomplete and plugged in, so the
    plug writes a host object into a host object or a raw cell, or a raw
    cell into a raw cell."""
    reg = ShapeRegistry()
    reg.register(
        _pair_shape("plain", _Pair),
        _pair_shape("frozen", _FrozenPair),
        _pair_shape("post_init", _Checked),
        _pair_shape("lambda", lambda a, b: (a, b)),
        _pair_shape("reaches_lambda", _Pair, "lambda"),
        _pair_shape("lambda_of_plain", lambda a, b: (a, b), "plain"),
    )
    nil, pair = reg.shape(type_id).ctors
    kid_nil, kid_pair = reg.shape(pair.fields[1].type_id).ctors

    def body(t):
        t1, t2 = token_dup2(t)

        def build_kid(d):
            da, db = fill(d, kid_pair)
            fill_leaf(2, da)
            fill(db, kid_nil)
            return None

        kid = map_b(alloc(t2), build_kid)

        def build(d):
            da, db = fill(d, pair)
            fill_leaf(1, da)
            return fill_comp(kid, db)

        return from_incomplete_(map_b(alloc(t1), build))

    value = with_region(body, registry=reg)
    assert value == pair.make(1, kid_pair.make(2, None))
