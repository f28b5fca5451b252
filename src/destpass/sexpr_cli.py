"""Command line front end for the s-expression parsers.

Exit code 0 on success, 1 on a parse error, 2 when the file cannot be read.
"""

from __future__ import annotations

import argparse
import sys

from .sexpr import ParseError, parse_dps, parse_naive, print_sexpr


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="sexpr")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("parse", help="parse the first s-expression in a file")
    p.add_argument("file")
    p.add_argument(
        "--engine",
        choices=["naive", "dps"],
        default="dps",
        help="parser implementation (default: dps)",
    )
    p.add_argument(
        "--print",
        dest="do_print",
        action="store_true",
        help="write the canonical form to stdout on success",
    )
    args = parser.parse_args(argv)

    try:
        with open(args.file, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    engine = parse_naive if args.engine == "naive" else parse_dps
    result = engine(data)
    if isinstance(result, ParseError):
        print(f"error: {type(result).__name__} at {result.pos}", file=sys.stderr)
        return 1
    if args.do_print:
        sys.stdout.buffer.write(print_sexpr(result) + b"\n")
        sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
