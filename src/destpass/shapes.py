"""Constructor metadata for algebraic types.

Every value type that can be built inside a region is described by a
:class:`TypeShape`: an ordered list of constructor descriptors, one per
variant. A descriptor, ``CtorDescriptor(type_id, name, fields, make)``,
records the kind of each field (another registered type, or an opaque leaf);
its ``arity`` is the number of fields, and its tag is its index in its shape.
A shape is registered once, as an object, with
``DEFAULT_REGISTRY.register(...)``, before any region work starts, and the
registry is read-only afterwards.

Because the host language carries no static type information at run time,
each constructor carries ``make``, which applies it bottom-up when a region
value is decoded into a host value. Its inverse is derived:
``TypeShape.classify`` splits a complete host value into ``(tag, field
values)`` when it is copied into a region, as a ``match`` statement with one
case per constructor, in tag order, would. A nullary constructor matches a
value equal to its ``make()``; any other, an instance of its ``make`` class,
whose fields it reads in ``make.__match_args__`` order, as every dataclass
lists them. A constructor whose ``make`` is not a class with
``__match_args__`` of its arity raises TypeError once a classify reaches it.

Registration also decides, once per constructor, whether a fill builds it
as its final host object in place (``ShapeRegistry.resolve`` returns its
field names) or as a region cell (``resolve`` returns None). A constructor
qualifies when

* it is nullary (its fill stores ``make()``), or its ``make`` is a
  dataclass whose call only runs the ``__init__`` that ``@dataclass``
  generated for it, which only assigns fields: not one written in its
  body or inherited from a base, no ``__post_init__``, no ``__new__`` but
  ``object.__new__``, no metaclass ``__call__``, and exactly one ``init``
  field per declared field, in order; and
* none of its ``Recursive`` fields is of a tainted type. A type is tainted
  when one of its constructors is not of that first kind, or when it
  reaches a tainted type through its ``Recursive`` fields.

So a host object never holds a region cell, and its release decodes
nothing. ``__init__`` never runs on such an object: its fields are written
with the setter registration records for its class in ``setters``, the
builtin ``setattr`` when the class keeps ``object.__setattr__``, else
``object.__setattr__`` itself, past a frozen dataclass's refusal and any
``__setattr__`` of its own. Registration also generates, per constructor
that builds in place, its whole fill, given a ``Dest`` (``allocators``),
and the plug that builds it nested in a parent's fill (``plugs``), as
``region._compile`` documents.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .errors import ShapeConflict, UnknownCtor


@dataclass(frozen=True)
class Recursive:
    """Field holding a value of another registered algebraic type."""

    type_id: str


@dataclass(frozen=True)
class LeafType:
    """Field holding an opaque payload, copied into the region verbatim."""

    type_id: str


FieldKind = Recursive | LeafType


@dataclass(frozen=True, eq=False)
class CtorDescriptor:
    """One constructor of an algebraic type; its tag is its index in its
    shape. Each of its ``fields`` is a ``Recursive`` or a ``LeafType`` (else
    TypeError). Derived from them: ``arity``, their number; ``places``, the
    ``(position, kind)`` pair of each; ``kids``, those of its ``Recursive``
    fields; and ``leaves``, the positions of the rest, its leaf fields."""

    type_id: str
    name: str
    fields: tuple[FieldKind, ...]
    make: Callable[..., Any] = field(default=None, repr=False)
    arity: int = field(init=False)
    places: tuple[tuple[int, FieldKind], ...] = field(init=False, repr=False)
    kids: tuple[tuple[int, Recursive], ...] = field(init=False, repr=False)
    leaves: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        places = tuple(enumerate(self.fields))
        for i, k in places:
            if not isinstance(k, (Recursive, LeafType)):
                raise TypeError(f"field {i} of {self.name!r} is {k!r}, no field kind")
        object.__setattr__(self, "fields", tuple(self.fields))
        object.__setattr__(self, "arity", len(places))
        object.__setattr__(self, "places", places)
        object.__setattr__(self, "kids", tuple(p for p in places if isinstance(p[1], Recursive)))
        object.__setattr__(
            self, "leaves", tuple(i for i, k in places if not isinstance(k, Recursive))
        )


@dataclass(frozen=True, eq=False)
class TypeShape:
    """All constructors of one algebraic type, in tag order: ShapeConflict
    for none or one of another type, TypeError for one that is no
    ``CtorDescriptor``."""

    type_id: str
    ctors: tuple[CtorDescriptor, ...]

    def __post_init__(self):
        if not self.ctors:
            raise ShapeConflict(f"type {self.type_id!r} has no constructors")
        for c in self.ctors:
            if not isinstance(c, CtorDescriptor):
                raise TypeError(f"type {self.type_id!r} holds {c!r}, not a CtorDescriptor")
            if c.type_id != self.type_id:
                raise ShapeConflict(
                    f"ctor {c.name!r} declares type {c.type_id!r} inside "
                    f"shape {self.type_id!r}"
                )

    def classify(self, value) -> tuple[int, tuple]:
        """``(tag, fields)`` of ``value``, matched as the module docstring
        says; TypeError when no constructor matches it."""
        for tag, c in enumerate(self.ctors):
            if not c.arity:
                if value == c.make():
                    return tag, ()
                continue
            names = getattr(c.make, "__match_args__", ()) if isinstance(c.make, type) else ()
            if len(names) != c.arity:
                raise TypeError(
                    f"{self.type_id}.{c.name}: make is not a class whose "
                    f"__match_args__ names its {c.arity} fields"
                )
            if isinstance(value, c.make):
                return tag, tuple(getattr(value, n) for n in names)
        raise TypeError(f"not a {self.type_id}: {type(value).__name__}")


def _host_fields(c: CtorDescriptor) -> tuple[str, ...] | None:
    """The fields a fill of ``c`` presets on ``object.__new__(c.make)``, or
    None when ``make`` does more than assign them (see the module docstring)."""
    if not c.arity:
        return ()
    make = c.make
    if not (isinstance(make, type) and dataclasses.is_dataclass(make)):
        return None
    # @dataclass compiles the __init__ it generates from a string.
    init = getattr(vars(make).get("__init__"), "__code__", None)
    if (
        getattr(init, "co_filename", None) != "<string>"
        or hasattr(make, "__post_init__")
        or make.__new__ is not object.__new__
        or type(make).__call__ is not type.__call__
    ):
        return None
    fs = dataclasses.fields(make)
    if len(fs) != c.arity or not all(f.init for f in fs):
        return None
    return tuple(f.name for f in fs)


def _kid_types(c: CtorDescriptor) -> set[str]:
    """The type ids of the Recursive fields of ``c``."""
    return {k.type_id for _, k in c.kids}


class ShapeRegistry:
    """Registration-phase store of type shapes; read-only afterwards.

    Registration must finish before regions start allocating. After that the
    registry is never mutated and is safe to share between threads.
    """

    def __init__(self) -> None:
        self._shapes: dict[str, TypeShape] = {}
        # Per registered descriptor: what resolve returns for it.
        self._layouts: dict[CtorDescriptor, tuple[str, ...] | None] = {}
        # The field names of every class a fill builds in place, and the
        # setter its fields are written with.
        self.host_fields: dict[type, tuple[str, ...]] = {}
        self.setters: dict[type, Callable[[Any, str, Any], None]] = {}
        # Per descriptor that builds in place: its generated fill; and per
        # type, by the id of each such descriptor that has one, its
        # generated plug.
        self.allocators: dict[CtorDescriptor, Callable] = {}
        self.plugs: dict[str, dict[int, Callable]] = {}

    def register(self, *shapes: TypeShape) -> None:
        """Register one or more shapes atomically.

        Mutually recursive types must be registered in the same call so that
        their Recursive fields can resolve against each other. Registering
        the same shape object again is a no-op; any other shape under a
        registered type id raises ShapeConflict, and anything that is no
        ``TypeShape`` TypeError, before anything is registered.
        """
        batch: dict[str, TypeShape] = {}
        for shape in shapes:
            if not isinstance(shape, TypeShape):
                raise TypeError(f"register expects TypeShape, got {type(shape).__name__}")
            existing = self._shapes.get(shape.type_id)
            if existing is shape:
                continue
            if existing is not None or shape.type_id in batch:
                raise ShapeConflict(f"type {shape.type_id!r} already has another shape")
            batch[shape.type_id] = shape
        known = self._shapes.keys() | batch.keys()
        for shape in batch.values():
            for c in shape.ctors:
                if missing := _kid_types(c) - known:
                    raise ShapeConflict(
                        f"{shape.type_id}.{c.name}: recursive field refers "
                        f"to unregistered type {min(missing)!r}"
                    )
        self._shapes.update(batch)
        self._qualify(batch.values())

    def _qualify(self, shapes: Iterable[TypeShape]) -> None:
        """Record the layout of every constructor of ``shapes``, tainting
        types as the module docstring says."""
        kids = {t: set().union(*map(_kid_types, s.ctors)) for t, s in self._shapes.items()}
        tainted = {
            t for t, s in self._shapes.items() if any(_host_fields(c) is None for c in s.ctors)
        }
        while grown := {t for t, ks in kids.items() if t not in tainted and ks & tainted}:
            tainted |= grown
        from .region import _compile  # region imports this module

        for shape in shapes:
            for c in shape.ctors:
                names = None if _kid_types(c) & tainted else _host_fields(c)
                self._layouts[c] = names
                if names:
                    self.host_fields[c.make] = names
                    plain = c.make.__setattr__ is object.__setattr__
                    self.setters[c.make] = setattr if plain else object.__setattr__
                if names is not None:
                    self.allocators[c], plug = _compile(c, names, self)
                    if plug is not None:
                        self.plugs.setdefault(c.type_id, {})[id(c)] = plug

    def shape(self, type_id: str) -> TypeShape:
        try:
            return self._shapes[type_id]
        except KeyError:
            raise UnknownCtor(f"type {type_id!r} is not registered") from None

    def resolve(self, c: CtorDescriptor) -> tuple[str, ...] | None:
        """The layout of registered descriptor ``c``: the field names a fill
        presets on its host object (``()`` for a nullary one), or None when
        a fill builds it as a region cell. Raises UnknownCtor when ``c``
        itself is not registered, TypeError when it is no descriptor."""
        try:
            return self._layouts[c]
        except KeyError:
            if type(c) is not CtorDescriptor:
                raise TypeError(f"expected a CtorDescriptor, got {type(c).__name__}") from None
            raise UnknownCtor(f"constructor {c.type_id}.{c.name} is not registered") from None


DEFAULT_REGISTRY = ShapeRegistry()
