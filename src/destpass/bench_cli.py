"""Command line front end for the benchmark harness.

    bench run --case dlist --engines naive,dps --sizes 6..10 --reps 5 \
        --seed 7 --out results.csv

Exit code 0 on success, 1 when the plan is invalid (nothing runs then), 2
when an engine's output fails oracle validation. A plan is invalid when it
names a bad engine or size, runs nothing, or writes to an ``--out`` that
cannot be written. With ``--case all`` each case keeps the engines and size
exponents valid for it.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import (
    K_BOUNDS,
    VALID_ENGINES,
    BenchCase,
    emit_report,
    run_case,
)
from .errors import OracleMismatch

DEFAULT_SIZES = {"dlist": "6..10", "bfs": "6..10", "sexpr": "10..14"}


def parse_sizes(spec: str) -> list[int]:
    """Accept "k", "k1..k2" with k1 <= k2, or a comma list of either."""
    out: list[int] = []
    for part in spec.split(","):  # int() ignores surrounding spaces
        if ".." in part:
            lo, hi = (int(k) for k in part.split("..", 1))
            if lo > hi:
                raise ValueError(f"size range {part.strip()} is empty")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(part))
    return out


def check_writable(path: str) -> None:
    """Raise ValueError unless a file can be written at ``path``."""
    folder = os.path.dirname(os.path.abspath(path))
    if (
        os.path.isdir(path)
        or not os.path.isdir(folder)
        or not os.access(folder, os.W_OK)
        or os.path.exists(path) and not os.access(path, os.W_OK)
    ):
        raise ValueError(f"cannot write {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run benchmark cases and emit CSV")
    p.add_argument(
        "--case",
        choices=[*K_BOUNDS, "all"],
        default="all",
    )
    p.add_argument(
        "--engines",
        default="all",
        help="comma-separated engine list (default: every engine valid "
        "for the case)",
    )
    p.add_argument(
        "--sizes",
        default=None,
        help='size exponents, e.g. "8", "6..10", or "6,8,10" '
        "(default depends on the case)",
    )
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default="-", help="CSV path, or - for stdout")
    args = parser.parse_args(argv)

    run_all = args.case == "all"

    # Build the whole plan before any benchmark runs; BenchCase checks it.
    plan = []
    try:
        for case in list(K_BOUNDS) if run_all else [args.case]:
            if args.engines == "all":
                engines = list(VALID_ENGINES[case])
            else:
                engines = [e.strip() for e in args.engines.split(",")]
            sizes = parse_sizes(args.sizes or DEFAULT_SIZES[case])
            if run_all:
                # cases have different engines and valid ranges: keep what fits
                engines = [e for e in engines if e in VALID_ENGINES[case]]
                if not engines:
                    continue
                lo, hi = K_BOUNDS[case]
                skipped = [k for k in sizes if not lo <= k <= hi]
                if skipped:
                    print(
                        f"note: case {case} skips size(s) {skipped} "
                        f"(valid {lo}..{hi})",
                        file=sys.stderr,
                    )
                    sizes = [k for k in sizes if lo <= k <= hi]
            plan.extend(
                BenchCase(
                    case=case,
                    engine=engine,
                    k=k,
                    reps=args.reps,
                    warmup=args.warmup,
                    seed=args.seed,
                )
                for engine in engines
                for k in sizes
            )
        if not plan:
            raise ValueError("the plan runs nothing")
        if args.out != "-":
            check_writable(args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rows = []
    for case_spec in plan:
        try:
            row = run_case(case_spec)
        except OracleMismatch as exc:
            print(f"oracle mismatch: {exc}", file=sys.stderr)
            return 2
        print(
            f"{case_spec.case}/{case_spec.engine} k={case_spec.k}: "
            f"{row.wall_time_ns / 1e6:.3f} ms",
            file=sys.stderr,
        )
        rows.append(row)

    report = emit_report(rows)
    if args.out == "-":
        sys.stdout.write(report)
    else:
        with open(args.out, "w", newline="") as fh:
            fh.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
