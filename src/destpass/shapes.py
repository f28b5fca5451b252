"""Constructor metadata for algebraic types.

Every value type that can be built inside a region is described by a
:class:`TypeShape`: an ordered list of constructor descriptors, one per
variant. A descriptor, ``CtorDescriptor(type_id, name, tag, fields, make)``,
records the constructor's tag and the kind of each field (another registered
type, or an opaque leaf); its ``arity`` is the number of fields. Shapes are
registered once, with ``DEFAULT_REGISTRY.register(...)``, before any region
work starts, and are read-only afterwards.

Because the host language carries no static type information at run time,
each shape also carries two callables used at the region boundary:
``make`` (per constructor) applies the constructor bottom-up when a region
value is decoded back into a host value, and ``classify`` (per type) is its
inverse, splitting a host value into (tag, field values) when a complete
value is copied into a region.

Registration also decides, once per constructor, whether a fill builds it
as its final host object in place (``ShapeRegistry.resolve`` returns its
field names) or as a region cell (``resolve`` returns None). A constructor
qualifies when

* it is nullary (its fill stores ``make()``), or its ``make`` is a
  dataclass whose generated ``__init__`` only assigns fields: no
  ``__post_init__``, no ``__new__`` of its own, and exactly one ``init``
  field per declared field, in order; and
* every type reachable through its ``Recursive`` fields, transitively, has
  only constructors of that first kind.

So a host object never holds a region cell, and its release decodes
nothing.
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


@dataclass(frozen=True)
class CtorDescriptor:
    """One constructor of an algebraic type; its ``arity`` is ``len(fields)``."""

    type_id: str
    name: str
    tag: int
    fields: tuple[FieldKind, ...]
    make: Callable[..., Any] = field(compare=False, default=None, repr=False)
    arity: int = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "fields", tuple(self.fields))
        object.__setattr__(self, "arity", len(self.fields))


@dataclass(frozen=True)
class TypeShape:
    """All constructors of one algebraic type, tags 0..n-1 in order."""

    type_id: str
    ctors: tuple[CtorDescriptor, ...]
    classify: Callable[[Any], tuple[int, tuple]] = field(
        compare=False, default=None, repr=False
    )

    def __post_init__(self):
        if not self.ctors:
            raise ValueError(f"type {self.type_id!r} has no constructors")
        for i, c in enumerate(self.ctors):
            if c.tag != i:
                raise ValueError(
                    f"type {self.type_id!r}: ctor {c.name!r} has tag {c.tag}, "
                    f"expected {i}"
                )
            if c.type_id != self.type_id:
                raise ValueError(
                    f"ctor {c.name!r} declares type {c.type_id!r} inside "
                    f"shape {self.type_id!r}"
                )


def _host_fields(c: CtorDescriptor) -> tuple[str, ...] | None:
    """The fields a fill of ``c`` presets on ``object.__new__(c.make)``, or
    None when ``make`` does more than assign them (see the module docstring)."""
    if not c.arity:
        return ()
    make = c.make
    if not (isinstance(make, type) and dataclasses.is_dataclass(make)):
        return None
    if hasattr(make, "__post_init__") or make.__new__ is not object.__new__:
        return None
    fs = dataclasses.fields(make)
    if len(fs) != c.arity or not all(f.init for f in fs):
        return None
    return tuple(f.name for f in fs)


class ShapeRegistry:
    """Registration-phase store of type shapes; read-only afterwards.

    Registration must finish before regions start allocating. After that the
    registry is never mutated and is safe to share between threads.
    """

    def __init__(self) -> None:
        self._shapes: dict[str, TypeShape] = {}
        # By id of each registered descriptor: what resolve returns for it.
        self._layouts: dict[int, tuple[str, ...] | None] = {}
        # The field names of every class a fill builds in place.
        self.host_fields: dict[type, tuple[str, ...]] = {}

    def register(self, *shapes: TypeShape) -> None:
        """Register one or more shapes atomically.

        Mutually recursive types must be registered in the same call so that
        their Recursive fields can resolve against each other. Registering an
        identical shape again is a no-op; a different shape under an existing
        type id raises ShapeConflict.
        """
        batch: dict[str, TypeShape] = {}
        for shape in shapes:
            existing = self._shapes.get(shape.type_id)
            if existing is not None:
                if existing != shape:
                    raise ShapeConflict(
                        f"type {shape.type_id!r} already registered with a "
                        f"different shape"
                    )
                continue
            if shape.type_id in batch:
                raise ShapeConflict(
                    f"type {shape.type_id!r} appears twice in one batch"
                )
            batch[shape.type_id] = shape
        known = self._shapes.keys() | batch.keys()
        for shape in batch.values():
            for c in shape.ctors:
                for fk in c.fields:
                    if isinstance(fk, Recursive) and fk.type_id not in known:
                        raise ShapeConflict(
                            f"{shape.type_id}.{c.name}: recursive field refers "
                            f"to unregistered type {fk.type_id!r}"
                        )
        self._shapes.update(batch)
        self._qualify(batch.values())

    def _qualify(self, shapes: Iterable[TypeShape]) -> None:
        """Record the layout of every constructor of ``shapes``."""
        plain: dict[str, bool] = {}  # type id -> every ctor has host fields

        def type_is_plain(type_id: str) -> bool:
            if type_id not in plain:
                plain[type_id] = all(
                    _host_fields(c) is not None for c in self._shapes[type_id].ctors
                )
            return plain[type_id]

        for shape in shapes:
            for c in shape.ctors:
                names = _host_fields(c)
                if names is not None and not all(map(type_is_plain, self._reachable(c))):
                    names = None
                self._layouts[id(c)] = names
                if names:
                    self.host_fields[c.make] = names

    def _reachable(self, c: CtorDescriptor) -> set[str]:
        """Type ids reachable from ``c`` through Recursive fields."""
        seen: set[str] = set()
        stack = [fk.type_id for fk in c.fields if isinstance(fk, Recursive)]
        while stack:
            type_id = stack.pop()
            if type_id not in seen:
                seen.add(type_id)
                for other in self._shapes[type_id].ctors:
                    stack.extend(
                        fk.type_id for fk in other.fields if isinstance(fk, Recursive)
                    )
        return seen

    def shape(self, type_id: str) -> TypeShape:
        try:
            return self._shapes[type_id]
        except KeyError:
            raise UnknownCtor(f"type {type_id!r} is not registered") from None

    def resolve(self, c: CtorDescriptor) -> tuple[str, ...] | None:
        """The layout of registered descriptor ``c``: the field names a fill
        presets on its host object (``()`` for a nullary one), or None when
        a fill builds it as a region cell. Raises UnknownCtor when ``c``
        itself is not registered."""
        try:
            return self._layouts[id(c)]
        except KeyError:
            raise UnknownCtor(
                f"constructor {c.type_id}.{c.name} (tag {c.tag}) is not registered"
            ) from None


DEFAULT_REGISTRY = ShapeRegistry()
