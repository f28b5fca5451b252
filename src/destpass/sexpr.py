"""S-expression parsing, two ways.

``parse_naive`` is a standard recursive-descent parser: list elements are
accumulated in reverse (the natural build order for a linked list) and
reversed when the closing parenthesis arrives. ``parse_dps`` writes every
element straight into its final location through destinations: a hollow cons
cell is plugged into the pending tail hole, the element is parsed into the
head destination, and the loop continues with the tail destination. No
accumulator, no reversal. Both parsers return identical results, successes
and failures alike.

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
from .dlist import NIL, Cons, _classify_list, to_pylist
from .region import DEFAULT_BLOCK_SIZE, region_stats
from .shapes import LeafType, Recursive, TypeShape, ctor, register_shapes


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


def _classify_sexpr(value):
    if isinstance(value, SList):
        return 0, (value.end_pos, value.children)
    if isinstance(value, SInteger):
        return 1, (value.end_pos, value.value)
    if isinstance(value, SString):
        return 2, (value.end_pos, value.text)
    if isinstance(value, SSymbol):
        return 3, (value.end_pos, value.text)
    raise TypeError(f"not an s-expression: {type(value).__name__}")


SEXPR_SLIST = ctor(
    "sexpr", "SList", 0, (LeafType("int"), Recursive("sexpr_list")), SList
)
SEXPR_SINTEGER = ctor(
    "sexpr", "SInteger", 1, (LeafType("int"), LeafType("int")), SInteger
)
SEXPR_SSTRING = ctor(
    "sexpr", "SString", 2, (LeafType("int"), LeafType("bytes")), SString
)
SEXPR_SSYMBOL = ctor(
    "sexpr", "SSymbol", 3, (LeafType("int"), LeafType("bytes")), SSymbol
)
SEXPR_SHAPE = TypeShape(
    "sexpr",
    (SEXPR_SLIST, SEXPR_SINTEGER, SEXPR_SSTRING, SEXPR_SSYMBOL),
    _classify_sexpr,
)

SEXPR_LIST_NIL = ctor("sexpr_list", "nil", 0, (), lambda: NIL)
SEXPR_LIST_CONS = ctor(
    "sexpr_list", "cons", 1, (Recursive("sexpr"), Recursive("sexpr_list")), Cons
)
SEXPR_LIST_SHAPE = TypeShape(
    "sexpr_list", (SEXPR_LIST_NIL, SEXPR_LIST_CONS), _classify_list
)

register_shapes(SEXPR_SHAPE, SEXPR_LIST_SHAPE)


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


def _int_value(tok: bytes):
    """The value of an integer token, or None past the host's digit limit."""
    try:
        return int(tok.decode("ascii"))
    except ValueError:
        return None


def _scan_string(bs: bytes, i: int):
    """Quoted string starting at the opening quote ``bs[i]``.

    Returns (text, offset of the closing quote) or UnterminatedString at the
    opening quote's position.
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
            return bytes(out), j
        else:
            out.append(c)
            j += 1
    return UnterminatedString(i)


# -- naive parser -----------------------------------------------------------------


def _reverse(lst):
    _counters["reversals"] += 1
    out = NIL
    node = lst
    while isinstance(node, Cons):
        out = Cons(node.head, out)
        node = node.tail
    return out


def _parse_sexpr(bs: bytes, i: int):
    if i >= len(bs):
        return UnexpectedEOFAtom(i)
    x = bs[i]
    if x == _OPEN:
        return _parse_slist(bs, i + 1)
    if x == _QUOTE:
        r = _scan_string(bs, i)
        if isinstance(r, ParseError):
            return r
        text, end = r
        return SString(end, text)
    tok, end = _scan_atom(bs, i)
    if not tok:
        return InvalidAtom(i)
    if _INT_RE.fullmatch(tok):
        value = _int_value(tok)
        if value is None:
            return InvalidAtom(i)
        return SInteger(end, value)
    return SSymbol(end, tok)


def _parse_slist(bs: bytes, i: int):
    acc = NIL
    n = len(bs)
    while True:
        if i >= n:
            return UnexpectedEOFSList(i)
        x = bs[i]
        if x == _CLOSE:
            return SList(i, _reverse(acc))
        if x in _WHITESPACE:
            i += 1
            continue
        child = _parse_sexpr(bs, i)
        if isinstance(child, ParseError):
            return child
        acc = Cons(child, acc)
        i = child.end_pos + 1


def parse_naive(data: bytes):
    """Parse the first s-expression in ``data``; SExpr or ParseError."""
    bs = bytes(data)
    return _parse_sexpr(bs, _skip_ws(bs, 0))


# -- destination-passing parser ------------------------------------------------------


def _fill_default_sexpr(d, pos: int) -> None:
    # Error paths must still consume the destination; plug a sentinel.
    d_end, d_text = fill(d, SEXPR_SSYMBOL)
    fill_leaf(pos, d_end)
    fill_leaf(b"", d_text)


def _parse_sexpr_dps(bs: bytes, i: int, d):
    """Parse one expression into destination ``d``.

    Returns the offset of the expression's last byte, or a ParseError.
    ``d`` is consumed on every path.
    """
    if i >= len(bs):
        _fill_default_sexpr(d, i)
        return UnexpectedEOFAtom(i)
    x = bs[i]
    if x == _OPEN:
        d_end, d_children = fill(d, SEXPR_SLIST)
        r = _parse_slist_dps(bs, i + 1, d_children)
        if isinstance(r, ParseError):
            fill_leaf(i, d_end)
            return r
        fill_leaf(r, d_end)
        return r
    if x == _QUOTE:
        r = _scan_string(bs, i)
        if isinstance(r, ParseError):
            _fill_default_sexpr(d, i)
            return r
        text, end = r
        d_end, d_text = fill(d, SEXPR_SSTRING)
        fill_leaf(end, d_end)
        fill_leaf(text, d_text)
        return end
    tok, end = _scan_atom(bs, i)
    if not tok:
        _fill_default_sexpr(d, i)
        return InvalidAtom(i)
    if _INT_RE.fullmatch(tok):
        value = _int_value(tok)
        if value is None:
            _fill_default_sexpr(d, i)
            return InvalidAtom(i)
        d_end, d_value = fill(d, SEXPR_SINTEGER)
        fill_leaf(end, d_end)
        fill_leaf(value, d_value)
    else:
        d_end, d_text = fill(d, SEXPR_SSYMBOL)
        fill_leaf(end, d_end)
        fill_leaf(tok, d_text)
    return end


def _parse_slist_dps(bs: bytes, i: int, d):
    """Parse list elements into destination ``d`` until ``)``.

    Each element gets a fresh cons cell plugged into the pending tail hole;
    the element itself is written through the head destination. Returns the
    offset of the closing paren or a ParseError; ``d`` and every destination
    created here are consumed on every path.
    """
    n = len(bs)
    while True:
        if i >= n:
            fill(d, SEXPR_LIST_NIL)
            return UnexpectedEOFSList(i)
        x = bs[i]
        if x == _CLOSE:
            fill(d, SEXPR_LIST_NIL)
            return i
        if x in _WHITESPACE:
            i += 1
            continue
        dh, dt = fill(d, SEXPR_LIST_CONS)
        r = _parse_sexpr_dps(bs, i, dh)
        if isinstance(r, ParseError):
            fill(dt, SEXPR_LIST_NIL)
            return r
        i = r + 1
        d = dt


def parse_dps(
    data: bytes,
    *,
    stats_out: dict | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
):
    """Parse like ``parse_naive`` but build the AST top-down in a region.

    Same result, success or error, as the naive parser. When ``stats_out``
    is given, ``stats_out["stats"]`` receives the region's allocation
    counters (one cell per AST node, no accumulator cells).
    """
    bs = bytes(data)
    start = _skip_ws(bs, 0)

    def run(token):
        region = token.region
        inc = map_b(alloc(token), lambda d: _parse_sexpr_dps(bs, start, d))
        value, outcome = from_incomplete(inc)
        if stats_out is not None:
            stats_out["stats"] = region_stats(region)
        return value, outcome

    value, outcome = with_region(run, block_size=block_size)
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
