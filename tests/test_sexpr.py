"""Parsers, printer, and generator for s-expressions."""

import copy
import dataclasses
import gc
import pickle
import platform
import random
import statistics
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from destpass import sexpr, sexpr_cli
from destpass.dlist import NIL, Cons, from_pylist, to_pylist
from destpass.sexpr import (
    SEXPR_SINTEGER,
    SEXPR_SLIST,
    SEXPR_SSTRING,
    SEXPR_SSYMBOL,
    InvalidAtom,
    ParseError,
    SInteger,
    SList,
    SString,
    SSymbol,
    UnexpectedEOFAtom,
    UnexpectedEOFSList,
    UnterminatedString,
    generate_input,
    parse_dps,
    parse_naive,
    print_sexpr,
    reset_counters,
    reversal_count,
)
from destpass.shapes import DEFAULT_REGISTRY

from support import count_sexpr_cells, mutate_bytes, structurally_equal

PARSERS = [parse_naive, parse_dps]
parametrize_parsers = pytest.mark.parametrize(
    "parse", PARSERS, ids=["naive", "dps"]
)


@parametrize_parsers
def test_empty_list(parse):
    assert parse(b"()") == SList(1, NIL)


@parametrize_parsers
def test_mixed_atoms(parse):
    out = parse(b'(1 foo "bar")')
    assert isinstance(out, SList)
    assert out.end_pos == 12
    assert to_pylist(out.children) == [
        SInteger(1, 1),
        SSymbol(5, b"foo"),
        SString(11, b"bar"),
    ]


@parametrize_parsers
def test_unclosed_list(parse):
    assert parse(b"(") == UnexpectedEOFSList(1)
    assert parse(b"(()") == UnexpectedEOFSList(3)
    assert parse(b"(1 2") == UnexpectedEOFSList(4)


@parametrize_parsers
def test_empty_input(parse):
    assert parse(b"") == UnexpectedEOFAtom(0)
    assert parse(b"   ") == UnexpectedEOFAtom(3)


@parametrize_parsers
def test_stray_close_paren(parse):
    assert parse(b")") == InvalidAtom(0)
    assert parse(b"(a ))") != InvalidAtom  # fine: ')' just closes the list


@parametrize_parsers
def test_unterminated_string(parse):
    assert parse(b'("abc') == UnterminatedString(1)
    assert parse(b'("abc\\') == UnterminatedString(1)


@parametrize_parsers
def test_atom_grammar(parse):
    assert parse(b"(-12)").children.head == SInteger(3, -12)
    assert parse(b"(3x)").children.head == SSymbol(2, b"3x")  # not an integer
    assert parse(b"(-)").children.head == SSymbol(1, b"-")
    assert parse(b"(a+b*c)").children.head == SSymbol(5, b"a+b*c")


@parametrize_parsers
def test_string_escapes(parse):
    out = parse(rb'("a\"b\\c")')
    assert out.children.head.text == rb'a"b\c'.replace(rb"\\", b"\\")


@parametrize_parsers
def test_nested_and_whitespace(parse):
    out = parse(b"( 1\t(2\n3)\r)")
    flat = to_pylist(out.children)
    assert flat[0] == SInteger(2, 1)
    inner = flat[1]
    assert [c.value for c in to_pylist(inner.children)] == [2, 3]


@parametrize_parsers
def test_trailing_bytes_ignored(parse):
    assert parse(b"(1) trailing junk (") == parse(b"(1)")


@parametrize_parsers
def test_top_level_atom(parse):
    assert parse(b"42") == SInteger(1, 42)
    assert parse(b'"hi"') == SString(3, b"hi")
    assert parse(b"sym") == SSymbol(2, b"sym")


def test_integer_past_host_digit_limit_is_invalid_atom():
    big = b"1" * 5000  # the host converts at most 4300 digits by default
    for data, pos in ((big, 0), (b"(1 -" + big + b" 2)", 3)):
        assert parse_naive(data) == parse_dps(data) == InvalidAtom(pos)


def test_dps_never_reverses_naive_does():
    data = b"(1 2 3)"
    reset_counters()
    parse_dps(data)
    assert reversal_count() == 0
    reset_counters()
    parse_naive(data)
    assert reversal_count() >= 1


def test_dps_region_cells_equal_ast_nodes():
    data = b"(1 2 3)"
    sink = {}
    out = parse_dps(data, stats_out=sink)
    stats = sink["stats"]
    # 1 SList + 3 cons + 1 nil + 3 SInteger
    assert count_sexpr_cells(out) == 8
    assert stats.cells_allocated == 8
    assert stats.receiver_cells == 1
    # leaves: SList end_pos, plus (end_pos, value) per atom
    assert stats.leaf_copies == 7


def _peak_bytes(parse, data) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        parse(data)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dps_peak_memory_is_within_5_percent_of_the_naive_peak():
    """The AST is built in place as its final host objects, so parsing
    holds no second copy of it (the paper's memory result)."""
    data = generate_input(2**14, seed=14)
    naive, dps = _peak_bytes(parse_naive, data), _peak_bytes(parse_dps, data)
    assert dps <= 1.05 * naive, f"dps peak {dps} B vs naive {naive} B"


def test_dps_peak_memory_on_a_flat_list_is_below_the_naive_peak():
    """On one long list, the naive parser holds the reversed elements and
    their reversal at once; the in-place build holds the list once."""
    data = b"(" + b" ".join(b"%d" % i for i in range(2**12)) + b")"
    naive, dps = _peak_bytes(parse_naive, data), _peak_bytes(parse_dps, data)
    assert dps <= 0.9 * naive, f"dps peak {dps} B vs naive {naive} B"


_NODES = {
    "SList": SList(4, Cons(SInteger(1, 7), Cons(SSymbol(3, b"a"), NIL))),
    "SInteger": SInteger(0, -7),
    "SString": SString(3, b'x"'),
    "SSymbol": SSymbol(0, b"a"),
}


@pytest.mark.parametrize("node", _NODES.values(), ids=_NODES)
def test_ast_nodes_are_slotted_and_round_trip(node):
    assert not hasattr(node, "__dict__")
    assert pickle.loads(pickle.dumps(node)) == node
    assert copy.deepcopy(node) == node
    assert node != dataclasses.replace(node, end_pos=node.end_pos + 1)


def test_ast_constructors_still_build_in_place():
    for ctor in (SEXPR_SLIST, SEXPR_SINTEGER, SEXPR_SSTRING, SEXPR_SSYMBOL):
        assert ctor in DEFAULT_REGISTRY.allocators
    assert type(parse_dps(b"(1)").children.head) is SInteger


@pytest.mark.skipif(
    platform.python_implementation() != "CPython", reason="pins CPython object sizes"
)
def test_one_parse_holds_little_besides_its_value():
    """What one ``parse_dps`` call keeps alive beyond its result: a slotted
    region, its token and its receiver, which is also its lineage root, and
    no closure. Measured as perfbench measures a message, warm and with
    tracemalloc running."""
    tracemalloc.start()
    try:
        peaks = []
        for _ in range(50):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            parse_dps(b"()")
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert statistics.median(peaks) <= 800, peaks


# Per input: its fills and fill_leaf calls, and the cells, bytes and leaf
# copies of its region, which are those of one fill per AST node and cons
# cell. An atom is written with the cons cell that holds it, a nil that a
# ")" follows is written with the element before it, "()" is one fill, and
# a non-empty list nested in another takes two: its cons cell, then itself.
_FILLS = {
    b"(a b c)": (4, 1, 8, 272, 7),
    b"()": (1, 0, 2, 56, 1),
    b"(a (b) ())": (6, 2, 12, 328, 7),
    b"((a))": (5, 2, 7, 192, 4),
    b"42": (1, 0, 1, 56, 2),
}


@pytest.mark.parametrize("data", list(_FILLS))
def test_the_dps_parser_writes_an_element_and_its_cons_in_one_fill(monkeypatch, data):
    calls = {"fill": 0, "fill_leaf": 0}

    def counted(name):
        real = getattr(sexpr, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for name in calls:
        monkeypatch.setattr(sexpr, name, counted(name))
    sink = {}
    out = parse_dps(data, stats_out=sink)
    stats = sink["stats"]
    assert (calls["fill"], calls["fill_leaf"]) == _FILLS[data][:2]
    assert (stats.cells_allocated, stats.bytes_allocated, stats.leaf_copies) == _FILLS[data][2:]
    assert stats.cells_allocated == count_sexpr_cells(out)
    assert structurally_equal(out, parse_naive(data))


@pytest.mark.parametrize("parse", [parse_naive, parse_dps])
def test_both_parsers_take_bytes_like_input_and_refuse_anything_else(parse):
    expected = parse_naive(b"(1 x)")
    for data in (b"(1 x)", bytearray(b"(1 x)"), memoryview(b" (1 x)")[1:]):
        assert structurally_equal(parse(data), expected)
    for data in (5, 0, "(1 x)", [40, 41], None):
        with pytest.raises(TypeError):
            parse(data)


@pytest.mark.parametrize("data", [b"(a", b"(a b", b"(()", b'((a) "x'])
def test_an_error_after_a_folded_nil_or_in_a_nested_list_consumes_every_destination(data):
    # a destination left unfilled would raise LinearityLeak
    assert parse_dps(data) == parse_naive(data)


def test_error_paths_consume_all_destinations():
    # a LinearityLeak inside parse_dps would raise; equality is the oracle
    for data in (b"(", b"(()", b'("x', b"()))", b"(1 (2", b")", b""):
        assert parse_dps(data) == parse_naive(data)


def test_printer_canonical_forms():
    assert print_sexpr(SList(0, NIL)) == b"()"
    assert print_sexpr(SString(0, b'a"b')) == rb'"a\"b"'
    assert print_sexpr(SString(0, b"a\\b")) == rb'"a\\b"'
    assert (
        print_sexpr(
            SList(0, from_pylist([SInteger(0, -3), SSymbol(0, b"x"),
                                  SList(0, from_pylist([SSymbol(0, b"y")]))]))
        )
        == b"(-3 x (y))"
    )


SYMBOL_FIRST = "abcdefghijklmnopqrstuvwxyzXYZ+*/!?._"
SYMBOL_REST = SYMBOL_FIRST + "0123456789-"


def ast_strategy():
    symbols = st.builds(
        lambda first, rest: bytes(first + rest, "ascii"),
        st.sampled_from(SYMBOL_FIRST),
        st.text(alphabet=SYMBOL_REST, max_size=6),
    )
    atoms = st.one_of(
        st.builds(lambda v: SInteger(0, v), st.integers()),
        st.builds(lambda t: SString(0, t), st.binary(max_size=8)),
        st.builds(lambda t: SSymbol(0, t), symbols),
    )
    return st.recursive(
        atoms,
        lambda inner: st.builds(
            lambda kids: SList(0, from_pylist(kids)),
            st.lists(inner, max_size=4),
        ),
        max_leaves=25,
    )


@given(ast_strategy())
@settings(max_examples=100, deadline=None)
def test_print_parse_round_trip(ast):
    printed = print_sexpr(ast)
    for parse in PARSERS:
        out = parse(printed)
        assert not isinstance(out, ParseError)
        # equal modulo end_pos: canonical print is position-free
        assert print_sexpr(out) == printed


@given(st.integers(0, 2**32), st.integers(2, 500))
@settings(max_examples=50, deadline=None)
def test_generated_inputs_parse_and_positions_hold(seed, size):
    data = generate_input(size, seed)
    assert generate_input(size, seed) == data  # deterministic
    out = parse_naive(data)
    assert not isinstance(out, ParseError)
    assert structurally_equal(parse_dps(data), out)
    # every list's end_pos is its closing paren
    stack = [out]
    while stack:
        node = stack.pop()
        if isinstance(node, SList):
            assert data[node.end_pos] == ord(")")
            stack.extend(to_pylist(node.children))


def test_generate_input_budget_floor():
    assert generate_input(2, 123) == b"()"
    with pytest.raises(ValueError):
        generate_input(1, 0)


def test_generate_input_size_is_approximate():
    for k in (6, 8, 10):
        data = generate_input(2**k, seed=k)
        assert 0.5 * 2**k <= len(data) <= 1.5 * 2**k


def test_differential_on_mutated_corpus():
    rng = random.Random(2024)
    agreements = 0
    for case in range(200):
        data = generate_input(rng.randrange(8, 200), case)
        if case % 2:
            data = mutate_bytes(data, rng)
        a, b = parse_naive(data), parse_dps(data)
        if isinstance(a, ParseError) or isinstance(b, ParseError):
            assert a == b, f"error mismatch on {data!r}"
        else:
            assert structurally_equal(a, b), f"tree mismatch on {data!r}"
        agreements += 1
    assert agreements == 200


@pytest.mark.parametrize("depth", [600, 10_000])
def test_deep_nesting_parses_without_recursion(depth):
    unbalanced = b"(" * depth
    assert parse_naive(unbalanced) == UnexpectedEOFSList(depth)
    assert parse_dps(unbalanced) == UnexpectedEOFSList(depth)
    balanced = b"(" * depth + b")" * depth
    a, b = parse_naive(balanced), parse_dps(balanced)
    assert print_sexpr(a) == print_sexpr(b) == balanced
    assert structurally_equal(a, b)


def test_trees_differing_in_one_element_are_unequal():
    assert parse_naive(b"(a (b c))") != parse_dps(b"(a (b d))")
    assert parse_naive(b"(a (b c))") == parse_dps(b"(a (b c))")


def _agree(data):
    """Both parsers return a value or a ParseError, and the same one."""
    a, b = parse_naive(data), parse_dps(data)
    if isinstance(a, ParseError) or isinstance(b, ParseError):
        assert a == b, f"error mismatch on {data!r}"
    else:
        assert isinstance(a, (SList, SInteger, SString, SSymbol))
        assert structurally_equal(a, b), f"tree mismatch on {data!r}"


@given(st.binary(max_size=80))
@settings(max_examples=300, deadline=None)
def test_parsers_agree_on_arbitrary_bytes(data):
    _agree(data)


@given(st.lists(st.sampled_from([b"(", b")", b" ", b'"', b"\\", b"-", b"7", b"x"]), max_size=120))
@settings(max_examples=300, deadline=None)
def test_parsers_agree_on_paren_heavy_bytes(parts):
    _agree(b"".join(parts))


# -- CLI -------------------------------------------------------------------------


def test_cli_parse_ok(tmp_path, capsys):
    path = tmp_path / "ok.sexp"
    path.write_bytes(b"( 1  (two) \"three\" )")
    assert sexpr_cli.main(["parse", str(path)]) == 0
    assert sexpr_cli.main(["parse", str(path), "--print"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == '(1 (two) "three")'


def test_cli_parse_of_an_unreadable_file_is_exit_2(tmp_path, capsys):
    for path in (tmp_path / "missing.sexp", tmp_path):
        assert sexpr_cli.main(["parse", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read {path}")
        assert "Traceback" not in captured.err and captured.out == ""


def test_cli_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.sexp"
    path.write_bytes(b"(1 (2")
    for engine in ("naive", "dps"):
        assert sexpr_cli.main(["parse", str(path), "--engine", engine]) == 1
        err = capsys.readouterr().err
        assert "error: UnexpectedEOFSList at 5" in err
