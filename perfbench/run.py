#!/usr/bin/env python3
"""Layered end-to-end benchmark of destpass.

    python3 perfbench/run.py --workload bfs-relabel --seed 1 --seconds 25 --trace 0

Runs one seeded workload against the destination engine (``dps``) and the
host-object engine of the same case study, closed-loop with one caller: one
process, one thread, each run starting when the previous one ended. The dps
and host runs are interleaved and alternate which goes first. Every output
is checked against its oracle, first in set-up and then after each timed
run; a failed or raising run counts in ``failed_frac`` and makes the command
exit with code 1.

With ``--trace 0`` it reports the end-to-end metrics, with tracing off and
the untraced bindings verified. With ``--trace 1`` it reports the per-layer
metrics from a separate traced run (see ``spans.py``). It prints one line per
metric, then a JSON report with the environment, then, as the last line, a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--report PATH`` also writes the report to PATH.

destpass is imported from ``src/`` next to this directory; without it the
command exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("region", "shapes", "builder", "dlist", "bfs", "sexpr")

SETUP_REPS = 5
MIN_DPS_SAMPLES = 100  # so that ten samples lie beyond p90
SAMPLING_CAP_S = 120  # the sampling loop stops here even short of MIN_DPS_SAMPLES
# A traced run whose root spans leave more than this share of its wall time
# uncovered fails: the spans no longer cover the library calls.
MAX_UNSPANNED_SHARE = 0.05
GC_POLICY = (
    "collected and frozen after set-up; collected before every pass of the "
    "workload's units and disabled during the pass; the same for both engines"
)
LOOP = "closed loop, 1 caller: 1 process, 1 thread; dps and host interleaved, alternating first"

# End-to-end metrics reported in the JSON report but not in the result line,
# so not compared between runs. failed_frac: a metric compared by ratio must
# never be 0. dps_run_ms_p50: on a shared host the median falls between the
# quiet and the contended mode (see _p90); over five to ten seeds on
# dlist-concat it spread by 0.17-0.25 of its median.
UNGATED_UNITS = {"dps_run_ms_p50": "ms", "failed_frac": "ratio"}


# -- loading destpass --------------------------------------------------------------


def import_destpass() -> SimpleNamespace:
    """Import destpass afresh from ``src/``, shape registration included."""
    if not (SRC / "destpass" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no destpass sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "destpass" or m.startswith("destpass.")]:
        del sys.modules[name]
    dp = SimpleNamespace(
        **{m: importlib.import_module(f"destpass.{m}") for m in MODULES}
    )
    if not Path(dp.region.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: destpass imported from {dp.region.__file__}, not {SRC}")
    return dp


# -- running and checking ----------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def run(self, label: str, engine, check, i: int):
        """Run one unit through one engine; return its wall time in ns, or
        None when it raised or its output failed the oracle."""
        self.attempted += 1
        t0 = time.perf_counter_ns()
        try:
            out = engine(i)
        except Exception:  # a raising engine is a failed run, not a crash
            self.fail(f"{label} unit {i} raised:\n{traceback.format_exc()}")
            return None
        elapsed = time.perf_counter_ns() - t0
        if not check(i, out):
            self.fail(f"{label} unit {i}: output differs from the oracle")
            return None
        return elapsed

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)


def _engines(wl, first_dps: bool):
    pair = [("dps", wl.dps, wl.check_dps), ("host", wl.host, wl.check_host)]
    return pair if first_dps else pair[::-1]


def sample(wl, tally: Tally, label: str, engine, check, i: int):
    """One timed sample: ``wl.host_reps`` back-to-back host runs, or one dps
    run. Return its wall time in ns, or None when a run failed."""
    total = 0
    for _ in range(wl.host_reps if label == "host" else 1):
        ns = tally.run(label, engine, check, i)
        if ns is None:
            return None
        total += ns
    return total


def oracle_pass(wl, tally: Tally) -> None:
    """Every unit through both engines, checked; doubles as the warm-up."""
    for i in range(len(wl.items)):
        for label, engine, check in _engines(wl, i % 2 == 0):
            tally.run(label, engine, check, i)


def _p90(values: list[int]) -> float:
    """The 90th percentile.

    Neighbours on a shared host slow every engine by up to ~1.8x for
    stretches of 10-20 s, so a run's times fall in a quiet and a contended
    mode, and the share of each varies from run to run by more than a code
    change worth measuring. Every run seen had more than a tenth of its
    time contended, so the p90 lies in the contended mode and is steady;
    the median and the low quantiles are not.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


@dataclass
class Samples:
    items: int  # items per pass
    host_reps: int
    dps_ns: list[int] = field(default_factory=list)  # one per sample
    host_ns: list[int] = field(default_factory=list)
    dps_pass_ns: list[int] = field(default_factory=list)  # one per pass
    host_pass_ns: list[int] = field(default_factory=list)

    def dps_items_per_s(self) -> float:
        """The throughput that nine passes in ten reach."""
        return self.items * 1e9 / _p90(self.dps_pass_ns)

    def host_items_per_s(self) -> float:
        return self.items * self.host_reps * 1e9 / _p90(self.host_pass_ns)


def interleaved(wl, tally: Tally, seconds: float, min_samples: int) -> Samples:
    """Timed passes over every unit, dps and host interleaved."""
    s = Samples(sum(wl.items), wl.host_reps)
    start = time.perf_counter()
    p = 0
    while True:
        elapsed = time.perf_counter() - start
        enough = len(s.dps_ns) >= min_samples or elapsed >= SAMPLING_CAP_S
        if tally.failed or (p and elapsed >= seconds and enough):
            return s
        totals = {"dps": 0, "host": 0}
        gc.collect()
        gc.disable()
        try:
            for i in range(len(wl.items)):
                for label, engine, check in _engines(wl, (p + i) % 2 == 0):
                    ns = sample(wl, tally, label, engine, check, i)
                    if ns is not None:
                        totals[label] += ns
                        (s.dps_ns if label == "dps" else s.host_ns).append(ns)
        finally:
            gc.enable()
        if not tally.failed:
            s.dps_pass_ns.append(totals["dps"])
            s.host_pass_ns.append(totals["host"])
        p += 1


def peak_kib(wl, tally: Tally) -> float:
    """Median over the units of the tracemalloc peak of one dps run, from
    one untimed pass."""
    peaks = []
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for i in range(len(wl.items)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            tally.run("dps peak pass", wl.dps, wl.check_dps, i)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
        gc.enable()
    return statistics.median(peaks) / 1024


def end_to_end(wl, tally: Tally, seconds: float, setup_s: list[float]) -> tuple[dict, dict, dict]:
    """The end-to-end metrics, the ungated ones and the sample counts."""
    s = interleaved(wl, tally, seconds, MIN_DPS_SAMPLES)
    if tally.failed:
        return {}, {}, {}
    peak = peak_kib(wl, tally)
    metrics = {
        "dps_items_per_s": s.dps_items_per_s(),
        "dps_run_ms_p90": _p90(s.dps_ns) / 1e6,
        "host_items_per_s": s.host_items_per_s(),
        "dps_peak_kib": peak,
        "setup_s": statistics.median(setup_s),
    }
    detail = {"dps_samples": len(s.dps_ns), "host_samples": len(s.host_ns), "passes": len(s.dps_pass_ns)}
    ungated = {"dps_run_ms_p50": statistics.median(s.dps_ns) / 1e6}
    return metrics, ungated, detail


# -- traced run --------------------------------------------------------------------


@dataclass
class TraceTotals:
    runs: int = 0
    wall_ns: list[int] = field(default_factory=list)
    calls: dict[str, int] = field(default_factory=dict)
    self_ns: dict[str, int] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    root_ns: int = 0
    decoded_cells: int = 0

    def add(self, run: spans.RunTrace, wall_ns: int, decoded_cells: int) -> None:
        self.runs += 1
        self.wall_ns.append(wall_ns)
        self.root_ns += run.root_ns
        self.decoded_cells += decoded_cells
        for mine, theirs in ((self.calls, run.calls), (self.self_ns, run.self_ns), (self.counts, run.counts)):
            for k, v in theirs.items():
                mine[k] = mine.get(k, 0) + v

    def layer_self_ns(self) -> dict[str, int]:
        """Self time per layer; ``unspanned`` is wall time no span covers."""
        layers: dict[str, int] = {"unspanned": sum(self.wall_ns) - self.root_ns}
        for name, ns in self.self_ns.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0) + ns
        return layers


def traced_pass(wl, tally: Tally, tracer: spans.Tracer, counters, seconds: float) -> TraceTotals:
    totals = TraceTotals()
    start = time.perf_counter()
    passes = 0
    while passes == 0 or (time.perf_counter() - start < seconds and not tally.failed):
        passes += 1
        gc.collect()
        gc.disable()
        try:
            for i in range(len(wl.items)):
                ns = tally.run("traced dps", wl.dps, wl.check_dps, i)
                run = tracer.take()
                if ns is not None:
                    totals.add(run, ns, counters[i].region_cells)
        finally:
            gc.enable()
    return totals


def per_layer(wl, tally: Tally, seconds: float, binds, originals) -> tuple[dict, dict]:
    """Untraced interleaved timing, a counted pass, then a traced dps pass."""
    s = interleaved(wl, tally, seconds / 2, 1)
    if tally.failed:
        return {}, {}
    counters = []
    for i in range(len(wl.items)):
        tally.attempted += 1
        out, c = wl.counted(i)
        if not wl.check_dps(i, out):
            tally.fail(f"counted dps unit {i}: output differs from the oracle")
        elif not wl.check_counters(i, c):
            tally.fail(f"counted dps unit {i}: {wl.case} invariant broken: {c}")
        counters.append(c)
    tracer = spans.Tracer(binds)
    tracer.install()
    try:
        t = traced_pass(wl, tally, tracer, counters, seconds / 2)
    finally:
        tracer.uninstall()
    spans.assert_untouched(binds, originals)
    if tally.failed:
        return {}, {}
    wall = sum(t.wall_ns)
    unspanned_share = (wall - t.root_ns) / wall
    if unspanned_share > MAX_UNSPANNED_SHARE:
        tally.fail(f"spans leave {unspanned_share:.1%} of the traced wall time uncovered")
        return {}, {}

    items = sum(wl.items)
    total = sum(counters[1:], counters[0])
    layers = t.layer_self_ns()

    def per_call(name: str) -> float:
        calls = t.calls.get(name, 0)
        return t.self_ns.get(name, 0) / calls if calls else 0.0

    dps_over_host = s.host_items_per_s() / s.dps_items_per_s()
    metrics = {
        "builder.fill.calls": t.calls.get("builder.fill", 0) / t.runs,
        "builder.fill.self_ns": per_call("builder.fill"),
        "builder.fill_leaf.self_ns": per_call("builder.fill_leaf"),
        "builder.self_share": layers.get("builder", 0) / wall,
        "shapes.resolve.per_fill": t.counts.get("shapes.resolve", 0) / max(1, t.calls.get("builder.fill", 0)),
        "builder.over_region_per_cell": layers.get("builder", 0) / layers["region"],
        "builder.map_b.self_ns": per_call("builder.map_b"),
        "builder.alloc.self_ns": per_call("builder.alloc"),
        "builder.fill_comp.self_ns": per_call("builder.fill_comp"),
        "builder.token_dup2.self_ns": per_call("builder.token_dup2"),
        "builder.with_region.self_ns": per_call("builder.with_region"),
        "builder.release.self_ns": per_call("builder.release"),
        "region.alloc_hollow.self_ns": per_call("region.alloc_hollow"),
        "region.write_field.self_ns": per_call("region.write_field"),
        "region.read_value.self_ns_per_cell": t.self_ns.get("region.read_value", 0) / t.decoded_cells,
        "region.self_share": layers["region"] / wall,
        "region.cells_per_item": total.region_cells / items,
        "region.bytes_per_item": total.bytes / items,
        "region.leaf_copies_per_item": total.leaf_copies / items,
        "region.receiver_share": total.receiver_cells / total.region_cells,
    }
    for case in spans.CASE_MODULES:
        metrics[f"{case}.self_share"] = layers.get(case, 0) / wall
    for case in spans.CASE_MODULES:
        metrics[f"{case}.dps_over_host"] = dps_over_host if case == wl.case else 0.0
    metrics["dlist.concat_cells"] = total.concat_cells
    metrics["bfs.visits"] = total.visits / len(wl.items)
    metrics["sexpr.reversals"] = total.reversals
    metrics["trace.overhead"] = statistics.median(t.wall_ns) / statistics.median(s.dps_ns)

    detail = {
        "untraced_dps_samples": len(s.dps_ns),
        "traced_runs": t.runs,
        "traced_wall_ns": wall,
        "unspanned_share": unspanned_share,
        "layer_self_share": {k: v / wall for k, v in sorted(layers.items())},
        "spans": {
            name: {
                "calls_per_run": t.calls[name] / t.runs,
                "self_ns_per_call": t.self_ns[name] / t.calls[name],
                "self_share": t.self_ns[name] / wall,
            }
            for name in sorted(t.calls)
        },
        "counts_per_run": {k: v / t.runs for k, v in t.counts.items()},
    }
    return metrics, detail


def metric_units(trace: bool) -> dict[str, str]:
    """Name and unit of every metric a run reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# -- command -----------------------------------------------------------------------


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_allowed": sorted(os.sched_getaffinity(0)),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Set up and measure one workload; return (result line, full report)."""
    units = metric_units(trace)
    tally = Tally()
    setup_s = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        dp = import_destpass()
        calls = workloads.harness_calls(dp)
        binds = spans.bindings(dp, calls)
        originals = spans.snapshot(binds)
        wl = workloads.build(workload, dp, calls, seed)
        oracle_pass(wl, tally)
        setup_s.append(time.perf_counter() - t0)
        if tally.failed:
            break
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "case": wl.case,
        "size": wl.size,
        "item_unit": wl.item_unit,
        "items_per_pass": sum(wl.items),
        "units_per_pass": len(wl.items),
        "loop": LOOP,
        "gc": GC_POLICY,
        "env": environment(),
        "setup_s_samples": setup_s,
    }
    metrics: dict = {}
    ungated: dict = {}
    if not tally.failed:
        gc.collect()
        gc.freeze()
        try:
            spans.assert_untouched(binds, originals)
            if trace:
                metrics, report["trace_detail"] = per_layer(wl, tally, seconds, binds, originals)
            else:
                metrics, ungated, report["samples"] = end_to_end(wl, tally, seconds, setup_s)
                spans.assert_untouched(binds, originals)
        finally:
            gc.unfreeze()
    if metrics and metrics.keys() != units.keys():
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(metrics.keys() ^ units.keys())}")
    reported = {name: {"value": metrics[name], "unit": units[name]} for name in metrics}
    report.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures)
    report["metrics"] = dict(reported)
    if not trace:
        ungated["failed_frac"] = tally.failed / tally.attempted
        report["metrics"].update(
            {name: {"value": v, "unit": UNGATED_UNITS[name]} for name, v in ungated.items()}
        )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": reported,
    }
    return result, report


def pin_to_one_cpu() -> None:
    """Keep the process on one CPU: a migration to another CPU's cold caches
    shows up in the tail latency."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=Path, help="also write the JSON report here")
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in report["metrics"].items():
        print(f"{name:<36} {m['value']!r:>24} {m['unit']}")
    for message in report["failures"]:
        print(f"FAILED: {message}")
    if args.report:
        args.report.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
