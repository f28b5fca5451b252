"""Shape registration and constructor metadata."""

import random
from dataclasses import InitVar, dataclass, field
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    into_incomplete,
    map_b,
    region_stats,
    token_consume,
    token_dup2,
    with_region,
)
from destpass.shapes import DEFAULT_REGISTRY
from destpass.bfs import TREE_NODE, TREE_SHAPE
from destpass.dlist import LIST_CONS, LIST_NIL, LIST_SHAPE, NIL, Cons
from destpass.sexpr import SEXPR_LIST_CONS, SEXPR_LIST_NIL, SEXPR_SINTEGER, SEXPR_SLIST, SInteger, SList

from support import CASE_TYPES, ledger_state, random_value


def test_reregistering_identical_shape_is_idempotent():
    DEFAULT_REGISTRY.register(LIST_SHAPE)
    DEFAULT_REGISTRY.register(TREE_SHAPE)


def test_conflicting_shape_rejected():
    other_cons = CtorDescriptor("list", "cons", (LeafType("value"),), lambda h: h)
    other_nil = CtorDescriptor("list", "nil", (), lambda: None)
    clash = TypeShape("list", (other_nil, other_cons))
    with pytest.raises(ShapeConflict):
        DEFAULT_REGISTRY.register(clash)


def test_an_equal_shape_of_new_descriptors_is_refused():
    twin = TypeShape(
        "list",
        tuple(CtorDescriptor(c.type_id, c.name, c.fields, c.make) for c in LIST_SHAPE.ctors),
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
    )
    odd = TypeShape(
        "odd",
        (CtorDescriptor("odd", "succ", (Recursive("even"),), lambda n: n + 1),),
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
    with pytest.raises(ShapeConflict):
        TypeShape("t", ())
    with pytest.raises(ShapeConflict):  # a ctor of another type
        TypeShape("t", (CtorDescriptor("u", "a", (), lambda: None),))


def test_registration_refuses_what_is_no_shape_and_registers_nothing():
    reg = ShapeRegistry()
    good = TypeShape("good", (CtorDescriptor("good", "nil", (), lambda: None),))
    with pytest.raises(TypeError):
        reg.register(good, "x")
    with pytest.raises(TypeError):
        TypeShape("t", ("x",))
    with pytest.raises(UnknownCtor):
        reg.shape("good")
    assert not reg.allocators and not reg.plugs


def test_a_field_that_is_no_field_kind_is_refused():
    with pytest.raises(TypeError):
        CtorDescriptor("y", "c", (5,), tuple)
    with pytest.raises(TypeError):
        CtorDescriptor("y", "c", (LeafType("int"), "y"), tuple)


def test_a_constructor_that_no_plug_can_build_has_none():
    """A nested sexpr list cons is complete only with an sexpr at its head,
    and sexpr has no nullary constructor, so no plug could build one: its
    contexts go straight to the generic path, and build as they always
    have."""
    assert id(SEXPR_LIST_CONS) not in DEFAULT_REGISTRY.plugs["sexpr_list"]
    assert id(SEXPR_SLIST) in DEFAULT_REGISTRY.plugs["sexpr"]

    def body(t):
        def f(d):
            assert fill(d, SEXPR_SLIST, 0, (SEXPR_LIST_CONS, (SEXPR_SINTEGER, 1, 2), SEXPR_LIST_NIL)) is None

        return from_incomplete_(map_b(alloc(t), f)), region_stats(t.region)

    value, stats = with_region(body)
    assert value == SList(0, Cons(SInteger(1, 2), NIL))
    assert (stats.cells_allocated, stats.bytes_allocated, stats.leaf_copies) == (4, 120, 3)


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


# A dataclass whose call does more than assign its fields: each adds 1 to ``a``.


@dataclass
class _OwnInit:
    a: Any
    b: Any

    def __init__(self, a, b):
        self.a, self.b = a + 1, b


class _AddsOne:
    def __init__(self, a, b):
        self.a, self.b = a + 1, b


@dataclass(init=False)
class _InheritedInit(_AddsOne):
    a: Any
    b: Any


class _AddsOneMeta(type):
    def __call__(cls, a, b):
        return super().__call__(a + 1, b)


@dataclass
class _MetaCalled(metaclass=_AddsOneMeta):
    a: Any
    b: Any


@pytest.mark.parametrize("make", [_OwnInit, _InheritedInit, _MetaCalled])
def test_a_dataclass_whose_call_does_more_than_assign_builds_as_cells(make):
    reg = ShapeRegistry()
    reg.register(_pair_shape("p", make))
    nil, pair = reg.shape("p").ctors
    assert reg.resolve(pair) is None and make not in reg.host_fields

    def body(t):
        return from_incomplete_(map_b(alloc(t), lambda d: fill(fill(d, pair, 1, ...), nil)))

    built = with_region(body, registry=reg)
    assert type(built) is make and (built.a, built.b) == (2, None)


# -- a fill builds what make builds ------------------------------------------------


class _TagsMeta(type):
    def __call__(cls, *args):
        obj = super().__call__(*args)
        object.__setattr__(obj, "extra", "meta")
        return obj


def _variant(flags):
    """A dataclass with fields ``a`` and ``b``, built as ``flags`` say."""
    bases, meta = (), _TagsMeta if flags["metaclass"] else type
    if flags["base_init"] or flags["metaclass"]:

        def base_init(self, *args):
            object.__setattr__(self, "extra", "base")

        bases = (meta("Base", (), {"__init__": base_init} if flags["base_init"] else {}),)
    ns: dict = {"__annotations__": {"a": Any, "b": Any}}
    if flags["default_factory"]:
        ns["b"] = field(default_factory=list)
    if flags["initvar"]:
        ns["__annotations__"]["c"] = InitVar[Any]
        ns["c"] = None
    if flags["own_init"]:

        def __init__(self, a, b=None, c=None):
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)
            object.__setattr__(self, "extra", "init")

        ns["__init__"] = __init__
    if flags["own_setattr"]:

        def __setattr__(self, name, value):
            if value == -1:
                raise ValueError("a field may not be -1")
            object.__setattr__(self, name, value)

        ns["__setattr__"] = __setattr__
    if flags["post_init"]:
        ns["__post_init__"] = lambda self, *initvars: object.__setattr__(self, "extra", "post")
    cls = meta("Variant", bases, ns)
    return dataclass(frozen=flags["frozen"], slots=flags["slots"], init=flags["init"])(cls)


_FLAGS = (
    "frozen", "slots", "init", "own_init", "own_setattr", "post_init",
    "base_init", "metaclass", "default_factory", "initvar",
)


def _outcome(build):
    """What ``build`` returns, by type, fields and every attribute, or the
    type of what it raises."""
    try:
        obj = build()
    except Exception as exc:
        return type(exc)
    fields = [getattr(obj, n, "unset") for n in ("a", "b")]
    return type(obj), fields, getattr(obj, "__dict__", None)


@given(
    st.fixed_dictionaries({f: st.booleans() for f in _FLAGS}),
    st.sampled_from([1, -1, "s"]),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_fill_builds_what_make_builds(flags, a, with_leaves):
    """For any variant of a dataclass, fill and make agree on the type, the
    fields and extra attributes, or the error. A class that builds in place
    is one whose call only assigns its fields; its own ``__setattr__`` is
    the one thing a fill skips, as the shapes module documents."""
    flags["own_setattr"] &= not flags["frozen"]  # a frozen dataclass refuses one
    make = _variant(flags)
    reg = ShapeRegistry()
    reg.register(_pair_shape("v", make))
    nil, pair = reg.shape("v").ctors
    does_more = flags["own_init"] or flags["post_init"] or flags["metaclass"] or not flags["init"]
    assert (reg.resolve(pair) is None) == does_more

    def build(d):
        if with_leaves:
            fill(fill(d, pair, a, ...), nil)
        else:
            da, db = fill(d, pair)
            fill_leaf(a, da)
            fill(db, nil)

    def by_fill():
        return with_region(lambda t: from_incomplete_(map_b(alloc(t), build)), registry=reg)

    def bypassing_setattr():
        obj = object.__new__(make)
        object.__setattr__(obj, "a", a)
        object.__setattr__(obj, "b", None)
        return obj

    by_make = bypassing_setattr if flags["own_setattr"] and not does_more else lambda: make(a, None)
    assert _outcome(by_fill) == _outcome(by_make)


# -- how a shape takes a value apart ---------------------------------------------


@given(st.sampled_from(CASE_TYPES), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_classify_inverts_make_on_every_node(type_id, seed):
    pending = [(random_value(type_id, random.Random(seed), 5), type_id)]
    while pending:
        node, tid = pending.pop()
        shape = DEFAULT_REGISTRY.shape(tid)
        tag, fields = shape.classify(node)
        c = shape.ctors[tag]
        assert c.make(*fields) == node
        pending.extend((fields[i], kind.type_id) for i, kind in c.kids)


def test_classify_refuses_a_value_no_constructor_matches():
    assert LIST_SHAPE.classify(Cons(1, "x")) == (1, (1, "x"))
    with pytest.raises(TypeError, match="not a list"):
        LIST_SHAPE.classify("x")


@pytest.mark.parametrize("make", [_Pair, _FrozenPair, _Checked])
def test_into_incomplete_copies_a_value_of_dataclass_constructors(make):
    """Built in place (_Pair, _FrozenPair) or as region cells (_Checked)."""
    reg = ShapeRegistry()
    reg.register(_pair_shape("p", make))
    value = make(1, make(2, None))
    copied = with_region(lambda t: from_incomplete_(into_incomplete(t, value, "p")), registry=reg)
    assert copied == value and copied is not value


def test_a_value_of_a_lambda_constructor_cannot_be_copied():
    reg = ShapeRegistry()
    reg.register(_pair_shape("lambda", lambda a, b: (a, b)))

    def body(t):
        t1, t2 = token_dup2(t)
        before = ledger_state([t.region], [t1, t2])
        with pytest.raises(TypeError, match=r"lambda\.pair"):
            into_incomplete(t1, (1, None), "lambda")
        assert t1.alive and ledger_state([t.region], [t1, t2]) == before
        token_consume(t1)
        return from_incomplete_(into_incomplete(t2, None, "lambda"))

    assert with_region(body, registry=reg) is None
