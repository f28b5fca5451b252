"""S-expression parsing, two ways.

``parse_naive`` is the standard accumulate-and-reverse parser: list elements
are consed up in reverse (the natural build order for a linked list) and
reversed when the closing parenthesis arrives. ``parse_dps`` writes every
element straight into its final location through destinations: one fill
plugs an atom together with the cons cell that holds it into the list's
pending tail hole, as the constructor context ``Cons(atom, _)`` or
``Cons(atom, Nil)``, a list that opens takes two fills, ``Cons(_, _)``
and ``SList(_, _)``, and the loop continues with the tail destination. No
accumulator, no reversal. Both parsers return identical results, successes
and failures alike, and both keep the open lists on an explicit stack
instead of recursing, so any nesting depth parses.

Grammar (byte-oriented):

* whitespace: space, tab, newline, carriage return
* integer: optional ``-`` then one or more digits; an integer with more
  digits than the host converts to ``int`` (``sys.get_int_max_str_digits()``,
  4300 by default) is an ``InvalidAtom`` at its first byte
* string: ``"``-delimited; a backslash makes the next byte literal
* symbol: any other nonempty run of non-space, non-paren, non-quote bytes
* list: ``(`` elements ``)``

``end_pos`` on every node is the offset of the last byte of that expression
in its input. Only the first top-level expression is parsed; trailing bytes
are ignored.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Any

from .builder import alloc, fill, fill_leaf, from_incomplete, map_b, with_region
from .dlist import NIL, Cons, to_pylist
from .region import region_stats
from .shapes import DEFAULT_REGISTRY, CtorDescriptor, LeafType, Recursive, TypeShape


@dataclass(frozen=True)
class SList:
    end_pos: int
    children: Any  # linked list of SExpr


@dataclass(frozen=True)
class SInteger:
    end_pos: int
    value: int


@dataclass(frozen=True)
class SString:
    end_pos: int
    text: bytes


@dataclass(frozen=True)
class SSymbol:
    end_pos: int
    text: bytes


SExpr = SList | SInteger | SString | SSymbol


class ParseError:
    """Base of the error values both parsers return (not raised)."""

    __slots__ = ()


@dataclass(frozen=True)
class UnexpectedEOFSList(ParseError):
    pos: int


@dataclass(frozen=True)
class UnexpectedEOFAtom(ParseError):
    pos: int


@dataclass(frozen=True)
class UnterminatedString(ParseError):
    pos: int


@dataclass(frozen=True)
class InvalidAtom(ParseError):
    pos: int


# -- region shapes (mutually recursive, registered as one batch) ---------------


SEXPR_SLIST = CtorDescriptor(
    "sexpr", "SList", (LeafType("int"), Recursive("sexpr_list")), SList
)
SEXPR_SINTEGER = CtorDescriptor(
    "sexpr", "SInteger", (LeafType("int"), LeafType("int")), SInteger
)
SEXPR_SSTRING = CtorDescriptor(
    "sexpr", "SString", (LeafType("int"), LeafType("bytes")), SString
)
SEXPR_SSYMBOL = CtorDescriptor(
    "sexpr", "SSymbol", (LeafType("int"), LeafType("bytes")), SSymbol
)
SEXPR_SHAPE = TypeShape("sexpr", (SEXPR_SLIST, SEXPR_SINTEGER, SEXPR_SSTRING, SEXPR_SSYMBOL))

SEXPR_LIST_NIL = CtorDescriptor("sexpr_list", "nil", (), lambda: NIL)
SEXPR_LIST_CONS = CtorDescriptor(
    "sexpr_list", "cons", (Recursive("sexpr"), Recursive("sexpr_list")), Cons
)
SEXPR_LIST_SHAPE = TypeShape("sexpr_list", (SEXPR_LIST_NIL, SEXPR_LIST_CONS))

DEFAULT_REGISTRY.register(SEXPR_SHAPE, SEXPR_LIST_SHAPE)


# -- shared lexical layer -------------------------------------------------------

_WHITESPACE = b" \t\n\r"
_OPEN = ord("(")
_CLOSE = ord(")")
_QUOTE = ord('"')
_BACKSLASH = ord("\\")
_INT_RE = re.compile(rb"-?[0-9]+")
_ATOM_END = frozenset(_WHITESPACE) | {_OPEN, _CLOSE, _QUOTE}

_counters = {"reversals": 0}


def reset_counters() -> None:
    _counters["reversals"] = 0


def reversal_count() -> int:
    return _counters["reversals"]


def _skip_ws(bs: bytes, i: int) -> int:
    n = len(bs)
    while i < n and bs[i] in _WHITESPACE:
        i += 1
    return i


def _scan_atom(bs: bytes, i: int) -> tuple[bytes, int]:
    """Run of atom bytes from i; returns (token, offset of its last byte)."""
    j = i
    n = len(bs)
    while j < n and bs[j] not in _ATOM_END:
        j += 1
    return bs[i:j], j - 1


def _scan_string(bs: bytes, i: int):
    """Quoted string starting at the opening quote ``bs[i]``.

    Returns (SEXPR_SSTRING, offset of the closing quote, text) or
    UnterminatedString at the opening quote's position.
    """
    out = bytearray()
    j = i + 1
    n = len(bs)
    while j < n:
        c = bs[j]
        if c == _BACKSLASH:
            if j + 1 >= n:
                return UnterminatedString(i)
            out.append(bs[j + 1])
            j += 2
        elif c == _QUOTE:
            return SEXPR_SSTRING, j, bytes(out)
        else:
            out.append(c)
            j += 1
    return UnterminatedString(i)


def _scan_leaf(bs: bytes, i: int):
    """The string, integer or symbol starting at ``i``.

    Returns (constructor, offset of its last byte, payload), which is also
    the atom's constructor context, or a ParseError.
    """
    if i >= len(bs):
        return UnexpectedEOFAtom(i)
    if bs[i] == _QUOTE:
        return _scan_string(bs, i)
    tok, end = _scan_atom(bs, i)
    if not tok:
        return InvalidAtom(i)
    if _INT_RE.fullmatch(tok):
        try:
            return SEXPR_SINTEGER, end, int(tok)
        except ValueError:  # more digits than the host's int conversion allows
            return InvalidAtom(i)
    return SEXPR_SSYMBOL, end, tok


# -- naive parser -----------------------------------------------------------------


def _reverse(lst):
    _counters["reversals"] += 1
    out = NIL
    node = lst
    while isinstance(node, Cons):
        out = Cons(node.head, out)
        node = node.tail
    return out


def _as_bytes(data) -> bytes:
    """``data`` as bytes; TypeError unless it is bytes-like (a str or an int is not)."""
    return data if type(data) is bytes else bytes(memoryview(data))


def parse_naive(data: bytes):
    """Parse the first s-expression in ``data``, a bytes-like object (else
    TypeError); SExpr or ParseError."""
    bs = _as_bytes(data)
    n = len(bs)
    i = _skip_ws(bs, 0)
    accs = []  # per open list, innermost last: its elements so far, reversed
    while True:
        if i < n and bs[i] == _OPEN:
            accs.append(NIL)
            i += 1
        else:
            leaf = _scan_leaf(bs, i)
            if isinstance(leaf, ParseError):
                return leaf
            leaf_ctor, end, payload = leaf
            node = leaf_ctor.make(end, payload)
            if not accs:
                return node
            accs[-1] = Cons(node, accs[-1])
            i = end + 1
        # Inside a list: close each list that ends here.
        while True:
            while i < n and bs[i] in _WHITESPACE:
                i += 1
            if i >= n:
                return UnexpectedEOFSList(i)
            if bs[i] != _CLOSE:
                break
            node = SList(i, _reverse(accs.pop()))
            if not accs:
                return node
            accs[-1] = Cons(node, accs[-1])
            i += 1


# -- destination-passing parser ------------------------------------------------------


def _close_lists(opened: list, tails: list, error):
    """After ``error``, end every open list, innermost first: nil into its
    pending tail, the offset of its ``(`` into its end_pos. Returns error."""
    while opened:
        fill(tails.pop(), SEXPR_LIST_NIL)
        start, d_end = opened.pop()
        fill_leaf(start, d_end)
    return error


def _parse_sexpr_dps(bs: bytes, i: int, d):
    """Parse one expression into destination ``d``.

    Returns the offset of the expression's last byte, or a ParseError.
    ``d`` and every destination created here are consumed on every path; a
    top-level atom that does not scan leaves its error in ``d``.

    An element of a list is scanned, and the next non-space byte looked at,
    before anything is filled; then one fill writes the element together
    with the cons cell that holds it into the list's pending tail hole:
    ``Cons(x, _)``, or ``Cons(x, Nil)`` when a ``)`` follows, where ``x`` is
    the atom, or ``SList(e, Nil)`` for ``()``. A list that opens takes two
    fills, ``Cons(_, _)`` into the tail hole and ``SList(_, _)`` into its
    head, and its end_pos is filled when its ``)`` arrives.
    Nesting needs no recursion: the stack ``tails`` holds the pending tail
    destination of every open list but the innermost, which is the
    tail-recursion-modulo-context form of a recursive descent (Leijen &
    Lorenzen, POPL 2023).
    """
    n = len(bs)
    if i >= n or bs[i] != _OPEN:
        leaf = _scan_leaf(bs, i)
        if isinstance(leaf, ParseError):
            fill_leaf(leaf, d)
            return leaf
        leaf_ctor, end, payload = leaf
        fill(d, leaf_ctor, end, payload)
        return end
    j = _skip_ws(bs, i + 1)
    if j < n and bs[j] == _CLOSE:
        fill(d, SEXPR_SLIST, j, SEXPR_LIST_NIL)
        return j
    d_end, tail = fill(d, SEXPR_SLIST)
    opened = [(i, d_end)]  # per open list, innermost last: (offset of "(", end_pos dest)
    tails = []  # per open list but the innermost: its pending tail destination
    i = j
    while True:
        # i is the next non-space byte of the innermost open list; tail is
        # that list's pending tail. Fill it, and find the ")" at k that
        # closes the list, or go on to the next element.
        if i >= n:
            tails.append(tail)
            return _close_lists(opened, tails, UnexpectedEOFSList(i))
        if bs[i] == _CLOSE:
            fill(tail, SEXPR_LIST_NIL)
            k = i
        else:
            if bs[i] == _OPEN:
                j = _skip_ws(bs, i + 1)
                if j >= n or bs[j] != _CLOSE:
                    head, tail = fill(tail, SEXPR_LIST_CONS)
                    tails.append(tail)
                    d_end, tail = fill(head, SEXPR_SLIST)
                    opened.append((i, d_end))
                    i = j
                    continue
                element = (SEXPR_SLIST, j, SEXPR_LIST_NIL)
            else:
                element = _scan_leaf(bs, i)
                if isinstance(element, ParseError):
                    tails.append(tail)
                    return _close_lists(opened, tails, element)
            # The element ends at element[1]: a ")" after it closes the list
            # in the same fill.
            k = element[1] + 1
            while k < n and bs[k] in _WHITESPACE:
                k += 1
            if k >= n or bs[k] != _CLOSE:
                tail = fill(tail, SEXPR_LIST_CONS, element, ...)
                i = k
                continue
            fill(tail, SEXPR_LIST_CONS, element, SEXPR_LIST_NIL)
        fill_leaf(k, opened.pop()[1])
        if not opened:
            return k
        tail = tails.pop()
        i = k + 1
        while i < n and bs[i] in _WHITESPACE:
            i += 1


def parse_dps(data: bytes, *, stats_out: dict | None = None):
    """Parse like ``parse_naive`` but build the AST top-down in a region.

    Same result, success or error, as the naive parser, and the same
    TypeError for ``data`` that is not bytes-like. When ``stats_out``
    is given, ``stats_out["stats"]`` receives the region's allocation
    counters (one cell per AST node, no accumulator cells).
    """
    bs = _as_bytes(data)
    start = _skip_ws(bs, 0)

    def run(token):
        region = token.region
        inc = map_b(alloc(token), lambda d: _parse_sexpr_dps(bs, start, d))
        value, outcome = from_incomplete(inc)
        if stats_out is not None:
            stats_out["stats"] = region_stats(region)
        return value, outcome

    value, outcome = with_region(run)
    if isinstance(outcome, ParseError):
        return outcome
    return value


# -- printing -----------------------------------------------------------------------


def _quote(text: bytes) -> bytes:
    return b'"' + text.replace(b"\\", b"\\\\").replace(b'"', b'\\"') + b'"'


def print_sexpr(e: SExpr) -> bytes:
    """Canonical form: single spaces between siblings, escaped strings."""
    out = bytearray()
    stack: list = [e]
    while stack:
        item = stack.pop()
        if isinstance(item, bytes):
            out += item
        elif isinstance(item, SInteger):
            out += b"%d" % item.value
        elif isinstance(item, SSymbol):
            out += item.text
        elif isinstance(item, SString):
            out += _quote(item.text)
        elif isinstance(item, SList):
            parts: list = [b"("]
            for k, child in enumerate(to_pylist(item.children)):
                if k:
                    parts.append(b" ")
                parts.append(child)
            parts.append(b")")
            stack.extend(reversed(parts))
        else:
            raise TypeError(f"not an s-expression: {type(item).__name__}")
    return bytes(out)


# -- benchmark input generator ---------------------------------------------------------

_SYMBOL_ALPHABET = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_SYMBOL_TAIL = _SYMBOL_ALPHABET + b"0123456789-_+*/.!?"
_MAX_NESTING = 30


def generate_input(size: int, seed: int) -> bytes:
    """Deterministic well-formed s-expression of roughly ``size`` bytes."""
    if size < 2:
        raise ValueError(f"size must be >= 2, got {size}")
    rng = random.Random(seed)
    out = bytearray(b"(")
    depth = 1

    def emit_atom() -> bytes:
        kind = rng.randrange(6)
        if kind < 2:
            return b"%d" % rng.randrange(-999, 100000)
        if kind < 5:
            first = rng.choice(_SYMBOL_ALPHABET)
            rest = bytes(
                rng.choice(_SYMBOL_TAIL) for _ in range(rng.randrange(0, 8))
            )
            return bytes([first]) + rest
        body = bytes(
            rng.choice(b'abc xyz"\\01') for _ in range(rng.randrange(0, 10))
        )
        return _quote(body)

    while len(out) + depth < size:
        if out[-1] not in b"(":
            out += b" "
        roll = rng.random()
        if roll < 0.18 and depth < _MAX_NESTING and len(out) + depth + 2 < size:
            out += b"("
            depth += 1
        elif roll < 0.28 and depth > 1:
            out += b")"
            depth -= 1
        else:
            out += emit_atom()
    out += b")" * depth
    return bytes(out)
