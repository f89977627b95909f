"""Command-line front end.

Subcommands::

    decnewton run --config CFG [--out DIR]
    decnewton preset NAME [--out DIR]
    decnewton list-presets
    decnewton compare --out PATH [--tol TOL] TRACE.csv ...
    decnewton caps --config CFG

Exit codes: 0 converged, 2 stopped at the iteration cap, 3 diverged,
1 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys

from . import harness


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decnewton",
        description="decentralized Newton / gradient-tracking experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("--config", required=True, help="path to a config file")
    p_run.add_argument("--out", default=".", help="directory for trace CSVs (default: .)")

    p_preset = sub.add_parser("preset", help="run a named preset")
    p_preset.add_argument("name", help="preset name; see list-presets")
    p_preset.add_argument("--out", default="preset-out", help="output directory")

    sub.add_parser("list-presets", help="list available presets")

    p_cmp = sub.add_parser("compare", help="summarize several trace CSVs")
    p_cmp.add_argument("traces", nargs="+", help="trace CSV files")
    p_cmp.add_argument("--out", required=True, help="summary CSV destination")
    p_cmp.add_argument("--tol", type=float, default=1e-6,
                       help="relative-error target for iterations/bits-to-tol")

    p_caps = sub.add_parser("caps", help="print the theoretical parameter caps for a config")
    p_caps.add_argument("--config", required=True, help="path to a newton config file")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command in ("run", "preset"):
        runs = (harness.run_configs([harness.parse_config(args.config)], args.out)
                if args.command == "run" else harness.run_preset(args.name, args.out))
        worst = 0
        for code, msg in runs:
            print(msg)
            worst = max(worst, code)
        return worst

    if args.command == "list-presets":
        for name, description in harness.list_presets():
            print(f"{name:20s} {description}")
        return 0

    if args.command == "compare":
        rows = harness.compare(args.traces, args.out, tol=args.tol)
        print(f"wrote {len(rows)} summary rows to {args.out}")
        return 0

    # caps; argparse admits no other command
    print(harness.caps_report(harness.repetitions(harness.parse_config(args.config))[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
