"""The per-region protocol cost printer."""

import importlib.util
import json
from pathlib import Path

import pytest

from destpass.dlist import NIL
from destpass.sexpr import SInteger

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "protocol_cost", ROOT / "scripts" / "protocol_cost.py"
)
protocol_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(protocol_cost)


def test_reports_every_row_and_the_parser_ratio():
    report = json.loads(json.dumps(protocol_cost.measure(2, 3)))
    assert (report["repeat"], report["number"]) == (2, 3)
    ns = report["ns_per_call"]
    assert list(ns) == list(protocol_cost.STATEMENTS)
    assert all(v > 0 for v in ns.values())
    ratio = ns['parse_dps(b"1")'] / ns['parse_naive(b"1")']
    assert report["parse_dps_over_parse_naive"] == pytest.approx(ratio, rel=1e-3)


def test_each_row_does_the_work_it_names():
    values = [eval(s, dict(protocol_cost.NAMESPACE)) for s in protocol_cost.STATEMENTS]
    assert values[3] == (SInteger(0, 1), None)
    assert values[4] == values[5] == SInteger(0, 1)
    assert values[6] is NIL

