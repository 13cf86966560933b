"""Command-line front end: reduce, betti, gen, check.

Exit codes: 0 success, 1 parse/parameter error or a usage error (argparse
prints its usage message), 2 Betti mismatch under --check-betti, 3 size cap
exceeded: by the simplex enumeration, by a --max-dim that asks for more
Betti numbers than the cap (checked in `betti_gf2` before anything is
enumerated), or by the vertex-toplex incidence count of a `gen` fixture,
worked out from its parameters before anything is built or written.  The
environment variable DOWKER_SIZE_CAP overrides the cap for all three; a
value that is not a positive integer is a parameter error.

Every command takes the relation as read, whatever its format.  The
library's `reduce` drops the columns that are not maximal itself, so the
`reduce` report counts the columns left; `check` reports on the relation
as read, and the Betti numbers before a reduction come from it, as it
spans the same complex.

A command runs with CPython's cyclic garbage collector paused, and `main`
restores the collector's state on every way out.  Nothing a command builds
forms a reference cycle, so reference counting frees all of it, and the
collector would only rescan the live relations, simplex lists and step
reports over and over.  The library never touches the collector: this
process-wide switch belongs to the program that owns the process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from .collapse import collapse_core
# the loads number names as they read them and keep no toplex's names;
# parse_toplex_file is imported for the benchmark's tracer
# (perfbench/tracing.py), which wraps it here
from .complexio import (FIXTURES, fixture_incidences, index_off, index_toplex_file,  # noqa: F401
                        parse_toplex_file)
from .errors import ParseError, SizeCapError
from .homology import DEFAULT_SIZE_CAP, betti_gf2
from .reducer import format_step_log, reduce
from .relation import Relation

# all bundled datasets are surfaces, so homology stops at dimension 2
DEFAULT_MAX_DIM = 2


def _size_cap():
    cap = os.environ.get("DOWKER_SIZE_CAP")
    if not cap:
        return DEFAULT_SIZE_CAP
    digits = cap.strip()
    value = 0
    if digits.isdecimal():
        # int() refuses strings of more than 4300 digits, so read 1000 at a time
        for k in range(0, len(digits), 1000):
            chunk = digits[k:k + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
    if value < 1:
        raise ValueError(f"DOWKER_SIZE_CAP must be a positive integer, got {cap!r}")
    return value


def _decimal(n):
    """The decimal digits of n >= 0, written 1000 at a time: str() refuses
    ints of more than 4300 digits."""
    high, low = divmod(n, 10 ** 1000)
    return f"{_decimal(high)}{low:01000}" if high else str(low)


def _numbers(values):
    """The values, space-separated.  A Betti tuple is as long as --max-dim
    asks, so they are formatted a chunk at a time, not one str per value at
    once."""
    return " ".join(" ".join(map(str, values[k:k + 4096]))
                    for k in range(0, len(values), 4096))


def _load_relation(path, fmt):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "rel":
        return Relation.from_text(text)
    if fmt == "toplex":
        return Relation.from_toplexes(index_toplex_file(text))
    # argparse's choices leave "off" as the only other format
    return Relation.from_toplexes(index_off(text))


def cmd_reduce(args):
    # a list, not a local name, holds the relation, and it is popped into
    # reduce, which can then free it during the pass (from CPython 3.11, as
    # in cmd_betti)
    held = [_load_relation(args.input, args.format)]
    for target in (args.output, args.log):
        if target:
            # a target that cannot be opened fails before the run; appending
            # nothing keeps an existing file's bytes, and a new one goes again
            new = not os.path.lexists(target)
            open(target, "a", encoding="utf-8").close()
            if new:
                os.remove(target)
    cap = _size_cap()
    betti_before = betti_after = None
    if args.check_betti:
        betti_before = betti_gf2(held[0], args.max_dim, size_cap=cap)
    t0 = time.perf_counter()
    reduced, stats, reports = reduce(held.pop(), records=False)
    elapsed = time.perf_counter() - t0
    if args.check_betti:
        betti_after = betti_gf2(reduced, args.max_dim, size_cap=cap)
    if args.output:
        # serialise first: a label to_text refuses must not empty the target
        text = reduced.to_text()
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            fh.write(format_step_log(reports))
    report = {
        "rows_before": stats.rows_before, "cols_before": stats.cols_before,
        "rows_after": stats.rows_after, "cols_after": stats.cols_after,
        "steps": stats.steps_applied, "tests": stats.contractibility_tests,
        "budget": stats.comparison_budget, "time_s": round(elapsed, 6),
        "delta_max": stats.delta_max_seen, "epsilon_max": stats.epsilon_max_seen,
    }
    if betti_before is not None:
        report["betti_before"] = list(betti_before)
        report["betti_after"] = list(betti_after)
        report["betti_preserved"] = betti_before == betti_after
    if args.json:
        print(json.dumps(report))
    else:
        print(f"input: {stats.rows_before} rows {stats.cols_before} cols")
        print(f"output: {stats.rows_after} rows {stats.cols_after} cols")
        print(f"steps: {stats.steps_applied}")
        print(f"tests: {stats.contractibility_tests}")
        print(f"budget: {stats.comparison_budget}")
        print(f"time: {elapsed:.3f}s")
        if betti_before is not None:
            print(f"betti-before: {_numbers(betti_before)}")
            print(f"betti-after: {_numbers(betti_after)}")
            print(f"betti: {'preserved' if betti_before == betti_after else 'CHANGED'}")
    if betti_before is not None and betti_before != betti_after:
        return 2
    return 0


def cmd_betti(args):
    # no local name holds the relation, so betti_gf2 frees its labels and
    # rows once it has taken the columns, before it enumerates (from
    # CPython 3.11; 3.10 keeps a call's arguments on the caller's stack
    # until it returns)
    betti = betti_gf2(_load_relation(args.input, args.format), args.max_dim,
                      size_cap=_size_cap())
    print(_numbers(betti))
    return 0


def cmd_check(args):
    relation = _load_relation(args.input, args.format)
    print(f"column-irreducible: {'yes' if relation.is_column_irreducible() else 'no'}")
    if relation.nrows == 0:
        print("strong-collapsible: no (empty)")
        return 0
    core = collapse_core(relation)
    verdict = "yes" if core.shape == (1, 1) else "no"
    print(f"strong-collapsible: {verdict} (core {core.nrows}x{core.ncols})")
    return 0


def cmd_gen(args):
    gen, names = FIXTURES[args.shape][:2]
    params = [getattr(args, name) for name in names]
    # checks the parameters first, then sizes the fixture without building it
    incidences = fixture_incidences(args.shape, *params)
    cap = _size_cap()
    if incidences > cap:
        raise SizeCapError(f"fixture's vertex-toplex incidence count exceeds cap {_decimal(cap)}")
    text = gen(*params).to_text()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dowker",
        description="Reduce simplicial complexes stored as vertex/toplex relations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p, fmt_required):
        p.add_argument("--input", required=True, help="input file path")
        p.add_argument("--format", choices=["rel", "toplex", "off"],
                       required=fmt_required, default=None if fmt_required else "toplex",
                       help="input format")

    p = sub.add_parser("reduce", help="reduce a complex, preserving Betti numbers")
    add_input(p, fmt_required=True)
    p.add_argument("--output", help="write the reduced relation here (relation text format)")
    p.add_argument("--log", help="write the step log here")
    p.add_argument("--check-betti", action="store_true",
                   help="run the homology oracle before and after; exit 2 on mismatch")
    p.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM,
                   help="homology dimension cap")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("betti", help="print mod-2 Betti numbers")
    add_input(p, fmt_required=False)
    p.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM,
                   help="homology dimension cap")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("check", help="report column irreducibility and strong collapsibility")
    add_input(p, fmt_required=False)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="generate a fixture as a toplex file")
    p.add_argument("shape", choices=FIXTURES)
    p.add_argument("--slices", type=int, default=24)
    p.add_argument("--stacks", type=int, default=21)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--output", help="output path (default: stdout)")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage message, or the help after --help
        return 1 if exc.code else 0
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
