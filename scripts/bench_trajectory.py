#!/usr/bin/env python3
"""Print the performance trajectory recorded in ``BENCH_<n>.json`` files.

    python3 scripts/bench_trajectory.py [BENCH_6.json ...]

Without arguments it reads every ``BENCH_*.json`` in the repository root,
in the order of their numbers. Each file holds the perfbench runs of one
change and of its parent. For each file, workload and end-to-end metric it
prints the parent's median, the change's median, ``change_over_parent`` and
how many paired runs the change won. After each file's table it prints one
``host/dps`` line per workload: the host median of ``host_items_per_s`` over
the dps median of ``dps_items_per_s``, for the parent and for the change.

Exit code 0 on success, 1 when there is no file to read, 2 when a file
cannot be read or holds no ``summary``; nothing is printed then but the
error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEADER = ("workload", "metric", "unit", "parent", "change", "change/parent", "wins")


def bench_files(root: Path) -> list[Path]:
    """The ``BENCH_<n>.json`` files under ``root``, ordered by ``n``."""
    found = [(re.fullmatch(r"BENCH_(\d+)\.json", p.name), p) for p in root.iterdir()]
    return [p for _, p in sorted((int(m[1]), p) for m, p in found if m)]


def load(path: Path) -> dict:
    """The runs recorded in ``path``; ValueError if it cannot be read, is
    not JSON or holds no ``summary``."""
    try:
        bench = json.loads(path.read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"{path} is not JSON: {exc}") from None
    if not isinstance(bench, dict) or not isinstance(bench.get("summary"), dict):
        raise ValueError(f"{path} holds no summary")
    return bench


def _number(x: float) -> str:
    return f"{x:,.0f}" if abs(x) >= 1000 else f"{x:.4g}"


def rows(bench: dict) -> list[tuple[str, ...]]:
    """One row per workload and metric that has a parent and a change median."""
    out = []
    for workload, metrics in sorted(bench["summary"].items()):
        for metric, entry in metrics.items():
            if not isinstance(entry.get("parent"), dict) or "median" not in entry["parent"]:
                continue  # counts and single traced runs carry no medians
            out.append((
                workload,
                metric,
                entry.get("unit", ""),
                _number(entry["parent"]["median"]),
                _number(entry["change"]["median"]),
                f"{entry['change_over_parent']:.3f}",
                entry.get("change_wins", ""),
            ))
    return out


def host_over_dps(bench: dict) -> list[tuple[str, ...]]:
    """One ``host/dps`` line per workload that has both throughput medians."""
    out = []
    for workload, metrics in sorted(bench["summary"].items()):
        host, dps = metrics.get("host_items_per_s"), metrics.get("dps_items_per_s")
        try:
            parent, change = (host[s]["median"] / dps[s]["median"] for s in ("parent", "change"))
        except (KeyError, TypeError):  # a workload without both medians on both sides
            continue
        out.append(("host/dps", workload, f"parent {parent:.2f}x", f"change {change:.2f}x"))
    return out


def render(table: list[tuple[str, ...]]) -> str:
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path, help="default: BENCH_*.json in the repo root")
    args = parser.parse_args(argv)
    files = args.files or bench_files(ROOT)
    if not files:
        print(f"no BENCH_*.json in {ROOT}", file=sys.stderr)
        return 1
    try:
        benches = [load(path) for path in files]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for i, (path, bench) in enumerate(zip(files, benches)):
        print(("\n" if i else "") + f"{path.name}: {bench.get('change', '')}")
        print(render([HEADER, *rows(bench)]))
        if ratios := host_over_dps(bench):
            print(render(ratios))
    return 0


if __name__ == "__main__":
    sys.exit(main())
