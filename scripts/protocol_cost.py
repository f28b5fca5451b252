#!/usr/bin/env python3
"""Print what the per-region protocol of destpass costs, call by call.

    python3 scripts/protocol_cost.py

On sexpr-stream every message is one region, so these calls are a fixed
cost per message. Each row is one statement, timed with ``timeit`` (which
pauses the cyclic GC while it times) as ``NUMBER`` back-to-back calls,
``REPEAT`` times; the rows take turns within each round, so a burst of
host contention slows them all alike. Printed as one JSON object:

* ``ns_per_call``: per statement, the best round divided by ``NUMBER``;
* ``parse_dps_over_parse_naive``: the ``parse_dps(b"1")`` row over the
  ``parse_naive(b"1")`` row.

``with_region(one_sinteger)`` builds one ``SInteger`` through ``alloc``,
``map_b``, ``fill`` and ``from_incomplete``; ``with_region(empty_list)``
builds and releases an empty list through ``alloc``, ``map_b``, a nullary
``fill`` and ``from_incomplete_``, so the root receiver's cost shows on its
own. destpass is imported from this
checkout's ``src/``. Compare only numbers taken in one invocation.
"""

from __future__ import annotations

import json
import platform
import sys
import timeit
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from destpass.builder import (  # noqa: E402
    alloc,
    fill,
    from_incomplete,
    from_incomplete_,
    map_b,
    token_consume,
    with_region,
)
from destpass.dlist import LIST_NIL  # noqa: E402
from destpass.region import Region, region_new  # noqa: E402
from destpass.sexpr import SEXPR_SINTEGER, parse_dps, parse_naive  # noqa: E402
from destpass.shapes import DEFAULT_REGISTRY  # noqa: E402

REPEAT = 9
NUMBER = 40_000
STATEMENTS = (
    "region_new()",
    "Region(DEFAULT_REGISTRY)",
    "with_region(token_consume)",
    "with_region(one_sinteger)",
    'parse_dps(b"1")',
    'parse_naive(b"1")',
    "with_region(empty_list)",
)


def _fill_sinteger(d) -> None:
    fill(d, SEXPR_SINTEGER, 0, 1)


def one_sinteger(token):
    return from_incomplete(map_b(alloc(token), _fill_sinteger))


def _fill_nil(d) -> None:
    fill(d, LIST_NIL)


def empty_list(token):
    return from_incomplete_(map_b(alloc(token), _fill_nil))


NAMESPACE = dict(
    region_new=region_new, Region=Region, DEFAULT_REGISTRY=DEFAULT_REGISTRY,
    with_region=with_region, token_consume=token_consume, one_sinteger=one_sinteger,
    empty_list=empty_list,
    parse_dps=parse_dps, parse_naive=parse_naive,
)


def measure(repeat: int, number: int) -> dict:
    """The report: best-of-``repeat`` ns per call of each statement."""
    timers = {s: timeit.Timer(s, globals=NAMESPACE) for s in STATEMENTS}
    best = dict.fromkeys(STATEMENTS, float("inf"))
    for _ in range(repeat):
        for s, timer in timers.items():
            best[s] = min(best[s], timer.timeit(number))
    ns = {s: best[s] / number * 1e9 for s in STATEMENTS}
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeat": repeat,
        "number": number,
        "ns_per_call": {s: round(v, 1) for s, v in ns.items()},
        "parse_dps_over_parse_naive": round(ns['parse_dps(b"1")'] / ns['parse_naive(b"1")'], 3),
    }


if __name__ == "__main__":
    print(json.dumps(measure(REPEAT, NUMBER), indent=2))
