"""Stateful test of the builder's linearity ledger.

A hypothesis state machine calls the builder API in any order, wrong calls
included, over two open scopes and one closed one, which keeps a live token,
two empty incompletes and one finished one. It keeps its own model of
every handle it was given: whether the handle is live, its region and
lineage, and what fills each hole. After every step the flags and the
region and lineage counts must match the model. A call the model says must
fail, every call on a handle of the closed region among them, raises a
``DpsError`` or ``TypeError`` and changes no flag or count. A release
returns the model's value. Each scope's exit raises ``LinearityLeak``
exactly when the model still holds a live handle of it.
"""

import itertools
import queue
import threading
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from destpass import (
    DpsError,
    LinearityLeak,
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
from destpass.builder import Dest, Incomplete, Token
from destpass.dlist import LIST_CONS, LIST_NIL, LIST_SHAPE, NIL, Cons, from_pylist
from destpass.region import alloc_hollow, region_new
from destpass.shapes import CtorDescriptor, LeafType, Recursive, ShapeRegistry, TypeShape

from support import structurally_equal

# "list" builds host objects in place. "pair" does not, as its make is no
# dataclass, so a pair is a raw cell, and so is every list cell under one.
_PAIR = (
    CtorDescriptor("pair", "unit", (), list),
    CtorDescriptor(
        "pair",
        "pair",
        (Recursive("list"), Recursive("pair"), LeafType("int")),
        lambda *fields: fields,
    ),
)
REGISTRY = ShapeRegistry()
REGISTRY.register(LIST_SHAPE, TypeShape("pair", _PAIR))
# Same type, tag and fields as LIST_CONS, never registered.
_UNREGISTERED = CtorDescriptor("list", "cons", LIST_CONS.fields, LIST_CONS.make)
CTORS = (LIST_NIL, LIST_CONS, *_PAIR, _UNREGISTERED)
_RAW_CELL = alloc_hollow(region_new(), LIST_NIL)
_MOSTLY = st.sampled_from((True,) * 7 + (False,))
_CYCLIC = Cons(1, NIL)
_CYCLIC.tail = _CYCLIC
# Values into_incomplete copies as a "list": one well-formed, two it refuses;
# the machine adds a third, a list that holds a handle.
_COPIED = {"list": from_pylist([4, (5, 6)]), "malformed": Cons(1, "x"), "cyclic": _CYCLIC}


@dataclass(frozen=True)
class _Box:
    """A dataclass payload, holding a handle in its one field."""

    content: object


_WAIT_S = 10  # bound on each wait for a scope's thread


class _Scope:
    """One ``with_region`` scope, held open on a thread of its own until
    ``exit``, so that the machine can step inside it one call at a time."""

    def __init__(self) -> None:
        tokens, self._outcome = queue.Queue(), queue.Queue()
        self._leave = threading.Event()

        def body(t):
            tokens.put(t)
            self._leave.wait()

        def run():
            try:
                with_region(body, registry=REGISTRY)
            except LinearityLeak as e:
                self._outcome.put(e)
            else:
                self._outcome.put(None)

        threading.Thread(target=run, daemon=True).start()
        self.token = tokens.get(timeout=_WAIT_S)
        self.region = self.token.region

    def exit(self):
        """Leave the scope; return the LinearityLeak its audit raised, or None."""
        self._leave.set()
        return self._outcome.get(timeout=_WAIT_S)


class _Hole:
    """A model hole. ``fill`` is None until it is filled, then
    ("node", ctor, holes), ("leaf", value) or ("plug", the child's root)."""

    __slots__ = ("fill",)

    def __init__(self) -> None:
        self.fill = None


def _terminal(hole: _Hole) -> _Hole:
    """The hole that ``hole`` stands for, once plugs are followed."""
    while hole.fill is not None and hole.fill[0] == "plug":
        hole = hole.fill[1]
    return hole


def _value(hole: _Hole):
    """The host value a finished model hole holds."""
    fill_ = _terminal(hole).fill
    if fill_[0] == "leaf":
        return fill_[1]
    _, c, holes = fill_
    return c.make(*map(_value, holes))


def _copied(value) -> _Hole:
    """The model hole of a well-formed list that into_incomplete copied."""
    hole = _Hole()
    if value is NIL:
        hole.fill = ("node", LIST_NIL, ())
    else:
        head = _Hole()
        head.fill = ("leaf", value.head)
        hole.fill = ("node", LIST_CONS, (head, _copied(value.tail)))
    return hole


def _fits(kind, type_id) -> bool:
    """Whether a hole of ``kind`` (None for a receiver's) takes a value of
    ``type_id`` (None for a leaf)."""
    if kind is None:
        return True
    if type_id is None:
        return not isinstance(kind, Recursive)
    return isinstance(kind, Recursive) and kind.type_id == type_id


class _Model:
    """What the machine knows of one handle it was given."""

    def __init__(self, obj, lineage=None, hole=None, kind=None, root=None, payload=None):
        self.obj = obj
        self.region = obj.region
        self.alive = True
        self.lineage = lineage  # model lineage id of a Dest or Incomplete
        self.hole = hole  # a Dest's hole
        self.kind = kind  # a Dest's hole kind, None for a receiver's
        self.root = root  # an Incomplete's receiver hole
        self.payload = payload  # the handles an Incomplete's payload holds, or None


class LedgerMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.handles: list[_Model] = []
        self.lineage_ids = itertools.count()
        self.scopes = [_Scope(), _Scope()]
        for s in self.scopes:  # two tokens each, so that plugs come early
            self.handles += map(_Model, token_dup2(s.token))
        closed = _Scope()
        t1, t2 = token_dup2(closed.token)
        t2, t3 = token_dup2(t2)
        t3, kept = token_dup2(t3)
        left = alloc(t1), alloc(t2)
        done = into_incomplete(t3, _COPIED["list"], "list")
        assert isinstance(closed.exit(), LinearityLeak)
        for i in left:
            self._add_incomplete(i)
        self._add_copy(done, _COPIED["list"])
        self.handles.append(_Model(kept))
        self.regions = [s.region for s in self.scopes] + [closed.region]

    def teardown(self) -> None:
        live = [
            any(m.alive and m.region is s.region for m in self.handles) for s in self.scopes
        ]
        outcomes = [s.exit() for s in self.scopes]
        for leaked, outcome in zip(live, outcomes):
            assert isinstance(outcome, LinearityLeak) if leaked else outcome is None

    # -- model helpers -----------------------------------------------------

    def _add_incomplete(self, i: Incomplete) -> None:
        lineage, root = next(self.lineage_ids), _Hole()
        d = _Model(i.payload, lineage=lineage, hole=root)
        self.handles += [_Model(i, lineage=lineage, root=root, payload=(d,)), d]

    def _add_copy(self, i: Incomplete, value) -> None:
        lineage = next(self.lineage_ids)
        self.handles.append(_Model(i, lineage=lineage, root=_copied(value)))

    def _pick(self, data, kind, *prefer) -> _Model:
        """A handle of type ``kind``. Seven times in eight, it is live, of an
        open region and passes each of ``prefer``, as far as any does."""
        pool = [m for m in self.handles if type(m.obj) is kind]
        if data.draw(_MOSTLY):
            for p in (lambda m: m.alive, lambda m: m.region.alive, *prefer):
                pool = [m for m in pool if p(m)] or pool
        return data.draw(st.sampled_from(pool))

    def _live_dests(self, lineage) -> list[_Model]:
        return [
            m
            for m in self.handles
            if m.alive and type(m.obj) is Dest and m.lineage == lineage
        ]

    def _snapshot(self):
        return (
            [m.obj.alive for m in self.handles],
            [m.obj.lineage.find().holes for m in self.handles if m.lineage is not None],
            [
                (r.outstanding_holes, r._tokens_alive, r._incompletes_alive)
                for r in self.regions
            ],
            [region_stats(r) for r in self.regions],
        )

    def _call(self, fails: bool, call):
        """Run ``call``. If the model says it fails, check that it raises a
        DpsError or TypeError and changes no flag or count."""
        if not fails:
            return call()
        before = self._snapshot()
        with pytest.raises((DpsError, TypeError)):
            call()
        assert self._snapshot() == before
        return None

    # -- rules ---------------------------------------------------------------

    @rule(data=st.data())
    def dup2(self, data):
        t = self._pick(data, Token)
        fails = not t.alive or not t.region.alive
        pair = self._call(fails, lambda: token_dup2(t.obj))
        if not fails:
            t.alive = False
            self.handles += [_Model(x) for x in pair]

    @rule(data=st.data())
    def consume(self, data):
        t = self._pick(data, Token)
        fails = not t.alive or not t.region.alive
        self._call(fails, lambda: token_consume(t.obj))
        if not fails:
            t.alive = False

    @rule(data=st.data())
    def alloc(self, data):
        t = self._pick(data, Token)
        fails = not t.alive or not t.region.alive
        i = self._call(fails, lambda: alloc(t.obj))
        if not fails:
            t.alive = False
            self._add_incomplete(i)

    @rule(data=st.data(), what=st.sampled_from((*sorted(_COPIED), "handle")))
    def into_incomplete(self, data, what):
        t = self._pick(data, Token)
        if what == "handle":  # a list whose head is a handle
            value = Cons(data.draw(st.sampled_from(self.handles)).obj, NIL)
        else:
            value = _COPIED[what]
        fails = not t.alive or not t.region.alive or what != "list"
        i = self._call(fails, lambda: into_incomplete(t.obj, value, "list"))
        if not fails:
            t.alive = False
            self._add_copy(i, value)

    @rule(
        data=st.data(),
        given=st.sampled_from(("none", "none", "right", "right", "wrong", "handle")),
    )
    def fill(self, data, given):
        """Half the time the fill takes one argument per field: ``...`` at
        each Recursive field and a leaf value or ``...`` at each leaf field;
        then one too many, or a handle in the last leaf."""
        d = self._pick(data, Dest, lambda m: not isinstance(m.kind, LeafType))
        fitting = [c for c in CTORS if c is not _UNREGISTERED and _fits(d.kind, c.type_id)]
        c = data.draw(st.sampled_from(fitting if fitting and data.draw(_MOSTLY) else CTORS))
        args = [] if given == "none" else [
            ... if isinstance(k, Recursive) else data.draw(st.sampled_from((7, (1, 2), ...)))
            for k in c.fields
        ]
        if given == "wrong":
            args.append(8)
        elif given == "handle" and c.leaves:
            args[c.leaves[-1]] = [data.draw(st.sampled_from(self.handles)).obj]
        fails = (
            not d.alive
            or c is _UNREGISTERED
            or not _fits(d.kind, c.type_id)
            or not d.region.alive
            or given == "wrong"
            or given == "handle" and bool(c.leaves)
        )
        out = self._call(fails, lambda: fill(d.obj, c, *args))
        if fails:
            return
        d.alive = False
        holes = tuple(_Hole() for _ in c.fields)
        d.hole.fill = ("node", c, holes)
        for i, value in enumerate(args):
            if value is not ...:
                holes[i].fill = ("leaf", value)
        kids = [(i, k) for i, k in enumerate(c.fields) if not args or args[i] is ...]
        dests = () if not kids else (out,) if len(kids) == 1 else out
        self.handles += [
            _Model(x, lineage=d.lineage, hole=holes[i], kind=k)
            for x, (i, k) in zip(dests, kids)
        ]

    @rule(
        data=st.data(),
        what=st.sampled_from(
            ("int", "tuple", "int", "tuple", "cell", "handle", "dest cell", "root", "boxed")
        ),
    )
    def fill_leaf(self, data, what):
        """Every payload but an int or a tuple holds a handle, a region cell
        or a hole: a live destination's cell has one in the field it fills."""
        d = self._pick(data, Dest, lambda m: not isinstance(m.kind, Recursive))
        handle = data.draw(st.sampled_from(self.handles)).obj
        live = [m.obj for m in self.handles if m.alive and type(m.obj) is Dest]
        incompletes = [m.obj for m in self.handles if type(m.obj) is Incomplete]
        value = {
            "int": lambda: 7,
            "tuple": lambda: (1, (2, 3)),
            "cell": lambda: _RAW_CELL,
            "handle": lambda: [handle],
            "dest cell": lambda: [data.draw(st.sampled_from(live)).cell if live else _RAW_CELL],
            "root": lambda: [data.draw(st.sampled_from(incompletes)).root],
            "boxed": lambda: _Box(handle),
        }[what]()
        fails = (
            not d.alive
            or isinstance(d.kind, Recursive)
            or what not in ("int", "tuple")
            or not d.region.alive
        )
        self._call(fails, lambda: fill_leaf(value, d.obj))
        if not fails:
            d.alive = False
            d.hole.fill = ("leaf", value)

    @rule(data=st.data(), own=st.booleans())
    def fill_comp(self, data, own):
        d = self._pick(data, Dest, lambda m: m.kind is not None)
        child = self._pick(
            data,
            Incomplete,
            lambda m: m.region is d.region,
            lambda m: (m.lineage == d.lineage) == own,  # own: a self-plug
        )
        content = _terminal(child.root)
        filled = content.fill
        type_id = None if filled is None or filled[0] == "leaf" else filled[1].type_id
        fails = (
            not child.alive
            or not d.alive
            or child.lineage == d.lineage
            or not d.region.alive
            or child.region is not d.region
            or (filled is not None and not _fits(d.kind, type_id))
        )
        self._call(fails, lambda: fill_comp(child.obj, d.obj))
        if fails:
            return
        if filled is None:  # the empty child's live Dest takes d's hole's kind
            (moved,) = [m for m in self.handles if m.alive and m.hole is content]
            moved.kind = d.kind
        child.alive = d.alive = False
        d.hole.fill = ("plug", child.root)
        merged = child.lineage
        for m in self.handles:
            if m.lineage == merged:
                m.lineage = d.lineage

    @rule(data=st.data(), mode=st.sampled_from(("same", "drop", "gather", "steal")))
    def map_b(self, data, mode):
        """The callback returns the payload, None, the lineage's live
        destinations, or one destination of another lineage."""
        i = self._pick(data, Incomplete)
        if not i.alive or not i.region.alive:
            ran = []
            self._call(True, lambda: map_b(i.obj, ran.append))
            assert not ran
            return
        live = self._live_dests(i.lineage)
        if mode == "steal":
            new = (self._pick(data, Dest, lambda m: m.lineage != i.lineage),)
        else:
            new = {"same": i.payload, "drop": None, "gather": tuple(live)}[mode]
        objs = None if new is None else tuple(m.obj for m in new)
        f = {
            "same": lambda p: p,
            "drop": lambda p: None,
            "gather": lambda p: objs,
            "steal": lambda p: objs[0],
        }[mode]
        kept = len({m for m in new or () if m in live})
        i.alive = False
        if kept < len(live):
            # The callback has run, so the incomplete stays consumed and
            # its destinations stay live.
            with pytest.raises(LinearityLeak):
                map_b(i.obj, f)
            return
        out = map_b(i.obj, f)
        self.handles.append(_Model(out, lineage=i.lineage, root=i.root, payload=new))

    @rule(data=st.data(), unit=st.booleans())
    def release(self, data, unit):
        i = self._pick(data, Incomplete)
        fails = not i.alive or not i.region.alive or bool(self._live_dests(i.lineage))
        if unit:
            fails = fails or i.payload is not None
            value = self._call(fails, lambda: from_incomplete_(i.obj))
        else:
            fails = fails or any(m.alive for m in i.payload or ())
            value = self._call(fails, lambda: from_incomplete(i.obj)[0])
        if not fails:
            i.alive = False
            assert structurally_equal(value, _value(i.root))

    # -- invariants ----------------------------------------------------------

    @invariant()
    def ledger_matches_model(self):
        assert [m.obj.alive for m in self.handles] == [m.alive for m in self.handles]
        for r in self.regions:
            live = Counter(type(m.obj) for m in self.handles if m.alive and m.region is r)
            assert r.outstanding_holes == live[Dest]
            assert r._tokens_alive == live[Token]
            assert r._incompletes_alive == live[Incomplete]
        holes = Counter(m.lineage for m in self.handles if m.alive and type(m.obj) is Dest)
        roots: dict = {}
        for m in self.handles:
            if m.lineage is not None:
                root = m.obj.lineage.find()
                assert roots.setdefault(m.lineage, root) is root
                assert root.holes == holes[m.lineage]
        assert len(set(map(id, roots.values()))) == len(roots)


LedgerMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=50, deadline=None
)
test_ledger = LedgerMachine.TestCase
