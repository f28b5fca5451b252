"""Benchmark harness for the three case studies.

Each case pits the destination-passing engine against its conventional
counterpart on deterministic, seeded inputs:

* ``dlist``  — left-nested concatenation of 2^k singleton lists; engines:
  plain ``++`` (quadratic), function-backed difference lists, and
  destination-backed difference lists.
* ``bfs``    — breadth-first relabeling of a random tree with 2^k nodes;
  engines: two-pass rebuild and the single-pass destination traversal.
* ``sexpr``  — parsing a generated ~2^k-byte s-expression; engines: the
  accumulate-and-reverse parser and the destination parser.

Every engine run is validated against an oracle before any timing counts;
a wrong result aborts with OracleMismatch. Timings are wall-clock medians
over ``reps`` repetitions after discarded warmup runs, with the host
garbage collector paused. Region counters come from one instrumented run.
A row of ``run_case`` also has ``peak_kib``: the tracemalloc peak of one
more, untimed run, whose output is checked as well (``run_series`` leaves
it 0.0, as tracemalloc makes a run of the quadratic engines several times
slower).
"""

from __future__ import annotations

import csv
import dataclasses
import gc
import io
import random
import statistics
import time
import tracemalloc
from dataclasses import dataclass

from . import bfs as _bfs
from . import dlist as _dlist
from . import sexpr as _sexpr
from .builder import token_dup2, with_region
from .errors import OracleMismatch
from .region import AllocStats, region_stats

K_BOUNDS = {"dlist": (6, 14), "bfs": (6, 16), "sexpr": (10, 22)}
VALID_ENGINES = {
    "dlist": ("naive", "functional_dlist", "dps"),
    "bfs": ("naive", "dps"),
    "sexpr": ("naive", "dps"),
}


@dataclass(frozen=True)
class BenchCase:
    case: str
    engine: str
    k: int
    reps: int = 10
    warmup: int = 3
    seed: int = 42

    def __post_init__(self):
        if self.case not in K_BOUNDS:
            raise ValueError(f"unknown case {self.case!r}")
        if self.engine not in VALID_ENGINES[self.case]:
            raise ValueError(
                f"engine {self.engine!r} not valid for case {self.case} "
                f"(valid: {', '.join(VALID_ENGINES[self.case])})"
            )
        lo, hi = K_BOUNDS[self.case]
        if not lo <= self.k <= hi:
            raise ValueError(
                f"size exponent {self.k} outside {lo}..{hi} for {self.case}"
            )
        if self.reps < 1:
            raise ValueError("reps must be >= 1")


@dataclass(frozen=True)
class BenchRow:
    case: str
    engine: str
    size: int
    wall_time_ns: int
    region_bytes: int
    region_cells: int
    leaf_copies: int
    aux_counter: int
    peak_kib: float = 0.0


CSV_FIELDS = tuple(f.name for f in dataclasses.fields(BenchRow))


def _region_metrics(stats: AllocStats, aux_counter: int) -> dict:
    """The metric columns of a run, from its region's counters."""
    return {
        "region_bytes": stats.bytes_allocated,
        "region_cells": stats.cells_allocated,
        "leaf_copies": stats.leaf_copies,
        "aux_counter": aux_counter,
    }


_ZERO_METRICS = _region_metrics(AllocStats(), 0)


# -- dlist engines ---------------------------------------------------------------


def _dlist_dps_run(n: int):
    def body(token):
        region = token.region
        singles = []
        for k in range(n - 1):
            token, t = token_dup2(token)
            singles.append(_dlist.dlist_append(_dlist.dlist_new(t), k))
        singles.append(_dlist.dlist_append(_dlist.dlist_new(token), n - 1))
        before = region_stats(region).cells_allocated
        acc = singles[0]
        for nxt in singles[1:]:
            acc = _dlist.dlist_concat(acc, nxt)
        concat_cells = region_stats(region).cells_allocated - before
        out = _dlist.dlist_to_list(acc)
        return out, region_stats(region), concat_cells

    out, stats, concat_cells = with_region(body)
    return _dlist.to_pylist(out), _region_metrics(stats, concat_cells)


def _dlist_naive_run(n: int):
    acc = _dlist.NIL
    for k in range(n):
        acc = _dlist.list_concat_naive(acc, _dlist.Cons(k, _dlist.NIL))
    return _dlist.to_pylist(acc), dict(_ZERO_METRICS)


def _dlist_functional_run(n: int):
    acc = _dlist.FunDList.empty()
    for k in range(n):
        acc = acc.concat(_dlist.FunDList.from_items((k,)))
    return acc.to_list(), dict(_ZERO_METRICS)


# -- case preparation --------------------------------------------------------------


def _prepare(c: BenchCase):
    """Return (runner, validator) for one benchmark case."""
    n = 2**c.k

    if c.case == "dlist":
        expected = list(range(n))
        if c.engine == "dps":
            runner = lambda: _dlist_dps_run(n)
        elif c.engine == "naive":
            runner = lambda: _dlist_naive_run(n)
        else:
            runner = lambda: _dlist_functional_run(n)

        def validate(out):
            if out != expected:
                raise OracleMismatch(
                    f"dlist/{c.engine} k={c.k}: output differs from oracle"
                )

        return runner, validate

    if c.case == "bfs":
        tree = _bfs.random_tree(n, random.Random(c.seed))
        expected_labels = list(range(1, n + 1))

        if c.engine == "dps":

            def runner():
                counters: dict = {}
                out, _ = _bfs.map_accum_bfs(
                    lambda st, _x: (st + 1, st), 1, tree, counters=counters
                )
                return out, _region_metrics(counters["stats"], counters["visits"])

        else:

            def runner():
                return _bfs.relabel_two_pass(tree), dict(_ZERO_METRICS)

        def validate(out):
            if not _bfs.same_shape(tree, out):
                raise OracleMismatch(f"bfs/{c.engine} k={c.k}: shape changed")
            if _bfs.level_order_values(out) != expected_labels:
                raise OracleMismatch(
                    f"bfs/{c.engine} k={c.k}: labels are not 1..n in level order"
                )

        return runner, validate

    # sexpr
    data = _sexpr.generate_input(n, c.seed)

    if c.engine == "dps":

        def runner():
            _sexpr.reset_counters()
            sink: dict = {}
            out = _sexpr.parse_dps(data, stats_out=sink)
            return out, _region_metrics(sink["stats"], _sexpr.reversal_count())

        other = _sexpr.parse_naive

    else:

        def runner():
            _sexpr.reset_counters()
            out = _sexpr.parse_naive(data)
            return out, dict(_ZERO_METRICS, aux_counter=_sexpr.reversal_count())

        other = _sexpr.parse_dps

    def validate(out):
        if out != other(data):
            raise OracleMismatch(f"sexpr/{c.engine} k={c.k}: parsers disagree")

    return runner, validate


def _peak_kib(runner, validate) -> float:
    """The tracemalloc peak of one checked run, in KiB."""
    gc.collect()
    tracemalloc.start()
    try:
        out, _ = runner()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    validate(out)
    return round(peak / 1024, 1)


def run_case(c: BenchCase) -> BenchRow:
    """Run one benchmark case and return its row of medians and counters."""
    row = run_series(
        c.case, c.engine, [c.k], reps=c.reps, warmup=c.warmup, seed=c.seed
    )[c.k]
    return dataclasses.replace(row, peak_kib=_peak_kib(*_prepare(c)))


def run_series(
    case: str,
    engine: str,
    ks: list[int],
    *,
    reps: int = 10,
    warmup: int = 3,
    seed: int = 42,
) -> dict[int, BenchRow]:
    """Run one engine over several sizes with interleaved repetitions.

    Repetitions are scheduled round-robin across the sizes, so a burst of
    host contention inflates every size equally instead of skewing one
    point of the curve. Preferred over repeated ``run_case`` calls whenever
    the quantity of interest is a ratio between sizes.
    """
    specs = {
        k: BenchCase(case=case, engine=engine, k=k, reps=reps, warmup=warmup, seed=seed)
        for k in ks
    }
    runners = {}
    metrics = {}
    for k, spec in specs.items():
        runner, validate = _prepare(spec)
        out, m = runner()
        validate(out)
        for _ in range(max(0, warmup - 1)):
            runner()
        runners[k] = runner
        metrics[k] = m
    times: dict[int, list[int]] = {k: [] for k in ks}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            for k in ks:
                t0 = time.perf_counter_ns()
                runners[k]()
                times[k].append(time.perf_counter_ns() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return {
        k: BenchRow(
            case=case,
            engine=engine,
            size=2**k,
            wall_time_ns=max(1, int(statistics.median(times[k]))),
            **metrics[k],
        )
        for k in ks
    }


def emit_report(rows) -> str:
    """Render rows as CSV, deterministically ordered by (case, engine, size)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for row in sorted(rows, key=lambda r: (r.case, r.engine, r.size)):
        writer.writerow([getattr(row, f) for f in CSV_FIELDS])
    return buf.getvalue()


def parse_report(text: str) -> list[BenchRow]:
    """Inverse of emit_report, for round-tripping CSV output."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != CSV_FIELDS:
        raise ValueError(f"unexpected header: {header!r}")
    return [
        BenchRow(rec[0], rec[1], *map(int, rec[2:-1]), float(rec[-1])) for rec in reader
    ]
