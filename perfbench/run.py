#!/usr/bin/env python3
"""Benchmark of the `dowker` command line, run in process.

    python3 perfbench/run.py --workload reduce-torus --seed 3 --seconds 50 --trace 0

Run from the root of a source checkout: the program is imported from `src/`.
Each workload writes seeded fixtures, then calls `dowker.cli.main` on them one
call at a time (a closed loop with one client, no threads) in passes over its
calls until `--seconds` is used up, and checks every call's output.

`--trace 0` prints the end-to-end metrics (set-up time, median time of a pass
scaled to a reference speed of the host, peak resident memory).  `--trace 1`
alternates untraced passes with passes in which the public functions of each
layer are wrapped and timed (perfbench/tracing.py), and prints the per-layer
metrics.  Human-readable lines come first; the last line of standard output
is one JSON object.
Spans of traced passes are written to `.perfbench/` under the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference
import workloads
from tracing import Tracer, layer_times

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
MIN_PASSES = 3          # untraced passes, so that a median exists
MIN_TRACED_PAIRS = 2

# (name, unit) of the per-layer metrics, in print order; see README.md.
PER_LAYER = [
    ("reducer.reduce.self_s", "s"), ("reducer.reduction_step.self_s", "s"),
    ("reducer.candidate_vertices.s", "s"), ("reducer.comparison_budget.s", "s"),
    ("reducer.format_step_log.s", "s"), ("reducer.steps", "count"),
    ("reducer.tests", "count"), ("reducer.tests_per_budget", "ratio"),
    ("reducer.scaling_exp", "exponent"), ("reducer.reduced_rows", "count"),
    ("reducer.reduced_cols", "count"),
    ("relation.add_row.s", "s"), ("relation.remove_rows.s", "s"),
    ("relation.restrict_to_columns.s", "s"), ("relation.restrict_to_columns.calls", "count"),
    ("relation.to_text.s", "s"),
    ("complexio.parse_toplex_file.s", "s"), ("relation.from_toplexes.s", "s"),
    ("relation.make_column_irreducible.s", "s"), ("relation.is_column_irreducible.s", "s"),
    ("relation.from_text.s", "s"),
    ("collapse.collapse_core.s", "s"), ("collapse.core_cells", "count"),
    ("collapse.is_strong_collapsible.s", "s"), ("collapse.is_strong_collapsible.calls", "count"),
    ("collapse.is_strong_collapsible.yield", "ratio"),
    ("homology.betti_gf2.s", "s"), ("homology.enumerate_simplices.s", "s"),
    ("homology.rank_gf2.s", "s"), ("homology.simplices", "count"),
    ("homology.boundary_bytes", "bytes"),
    ("cli.main.self_s", "s"), ("cli.main.s", "s"),
    ("trace.overhead_frac", "ratio"), ("trace.dominant_frac", "ratio"),
]


def import_program():
    """Import `dowker` from this checkout's `src/`.

    Raises ImportError when the sources are missing, also when another copy
    of the package is installed: timing that copy would measure the wrong
    code.
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dowker.cli  # noqa: F401
    import dowker
    if src not in Path(dowker.__file__).resolve().parents:
        raise ImportError(f"dowker imported from {dowker.__file__}, not from {src}")


def set_up(workload, seed, workdir):
    """One set-up: (seconds for a new interpreter to start and import
    `dowker.cli`, seconds to write the fixtures, the workload's calls)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                    "import dowker.cli", str(ROOT / "src")], cwd=ROOT, check=True, timeout=60)
    t1 = time.perf_counter()
    calls = workloads.build(workload, seed, workdir)
    return t1 - t0, time.perf_counter() - t1, calls


class Runner:
    """Makes CLI calls, checks them and keeps the failure and digest tallies."""

    def __init__(self):
        from dowker import cli
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.digests = {}

    def call(self, call, tracer=None):
        """(wall seconds, cpu seconds, facts); facts is None when the call failed."""
        for path in call.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
        out, err = io.StringIO(), io.StringIO()
        rc = None
        with tracer.installed() if tracer else contextlib.nullcontext():
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(call.argv)
            except Exception:  # a crash is a failed call, reported and counted
                err.write(traceback.format_exc())
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        self.attempted += 1
        facts = None
        if rc != 0:
            problem = f"exit code {rc}: {err.getvalue().strip()}"
        else:
            try:
                facts = call.check(out.getvalue())
                problem = self._check_repeat(call.fixture, facts.get("digests"))
            except (workloads.CheckFailed, ValueError, KeyError, OSError) as exc:
                problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            facts = None
            print(f"FAILED {call.fixture} {' '.join(call.argv)}: {problem}", file=sys.stderr)
        return wall, cpu, facts

    def run_scaled_pass(self, calls):
        """An untraced pass with a reference slice (perfbench/reference.py)
        before the first call and after every call.

        (wall, cpu, facts, scaled, slices): `scaled` sums each call's wall
        time times REF_S over the mean of the two slices around it, so that
        a change of the host's speed cancels out.
        """
        gc.collect()
        wall = cpu = scaled = 0.0
        facts = []
        slices = [reference.slice_s()]
        for call in calls:
            w, c, f = self.call(call)
            slices.append(reference.slice_s())
            wall, cpu = wall + w, cpu + c
            scaled += w * reference.REF_S / ((slices[-2] + slices[-1]) / 2)
            facts.append(f or {})
        return wall, cpu, facts, scaled, slices

    def _check_repeat(self, fixture, digests):
        """Outputs must not change from pass to pass on the same input."""
        if digests is None:
            return None
        first = self.digests.setdefault(fixture, digests)
        return None if first == digests else "output differs from an earlier pass"

    def run_pass(self, calls, tracer=None):
        gc.collect()
        wall = cpu = 0.0
        facts = []
        for call in calls:
            w, c, f = self.call(call, tracer)
            wall, cpu = wall + w, cpu + c
            facts.append(f or {})
        return wall, cpu, facts


def drift_probe(workload, runner, workdir):
    """Fixtures whose `.rel` or step log differs from the recorded digests.

    The recorded digests were taken with DEFAULT_SEED on the seed commit, so
    the probe runs the default-seed fixtures whatever `--seed` is; None when
    the workload writes no files.  The probe pass is not timed.
    """
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)
    if recorded is None:
        return None, 0
    probe = workloads.build(workload, workloads.DEFAULT_SEED, workdir)
    _, _, facts = runner.run_pass(probe)
    runner.digests = {}  # the timed passes' fixtures have the same names
    drift = sum(1 for call, f in zip(probe, facts)
                if f.get("digests") != recorded.get(call.fixture))
    return drift, len(probe)


def passes(seconds, run_one, at_least):
    """Call run_one() until the next call would overrun `seconds`, and at
    least `at_least` times; the list of its results."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(run_one())
        now = time.perf_counter()
        if len(results) >= at_least and now - start + (now - t0) > seconds:
            return results


def dominant_shares(calls, spans):
    """Per call: (fixture, seconds in the layer it is built to stress, seconds of
    the call), from the spans under each call's root `cli.main` span."""
    roots = [k for k, span in enumerate(spans) if span[3] is None] + [len(spans)]
    out = []
    for call, lo, hi in zip(calls, roots, roots[1:]):
        times = layer_times([[name, a, b, None if p is None else p - lo]
                             for name, a, b, p in spans[lo:hi]])

        def s(name):
            return times.get(name, {}).get("s", 0.0)

        out.append((call.fixture, call.dominant(s), s("cli.main")))
    return out


def layer_metrics(workload, tracer, shares, facts, counts):
    times = layer_times(tracer.spans)
    call_s = sum(total for _, _, total in shares)

    def s(name, key="s"):
        return times.get(name, {}).get(key, 0)

    def total(key):
        return sum(f.get(key, 0) for f in facts)

    reduce_s = [(end - start) / 1e9 for name, start, end, _ in tracer.spans
                if name == "reducer.reduce"]
    scaling = 0.0
    if workload == "reduce-torus" and len(reduce_s) == 2:
        (m0, n0), (m1, n1) = workloads.REDUCE_TORI
        scaling = math.log(reduce_s[1] / reduce_s[0]) / math.log(m1 * n1 / (m0 * n0))
    tests = s("collapse.is_strong_collapsible", "calls")
    return {
        "reducer.reduce.self_s": s("reducer.reduce", "self_s"),
        "reducer.reduction_step.self_s": s("reducer.reduction_step", "self_s"),
        "reducer.candidate_vertices.s": s("reducer.candidate_vertices"),
        "reducer.comparison_budget.s": s("reducer.comparison_budget"),
        "reducer.format_step_log.s": s("reducer.format_step_log"),
        "reducer.steps": total("steps"),
        "reducer.tests": total("tests"),
        "reducer.tests_per_budget": total("tests") / total("budget") if total("budget") else 0.0,
        "reducer.scaling_exp": scaling,
        "reducer.reduced_rows": total("rows"),
        "reducer.reduced_cols": total("cols"),
        "relation.add_row.s": s("relation.add_row"),
        "relation.remove_rows.s": s("relation.remove_rows"),
        "relation.restrict_to_columns.s": s("relation.restrict_to_columns"),
        "relation.restrict_to_columns.calls": s("relation.restrict_to_columns", "calls"),
        "relation.to_text.s": s("relation.to_text"),
        "complexio.parse_toplex_file.s": s("complexio.parse_toplex_file"),
        "relation.from_toplexes.s": s("relation.from_toplexes"),
        "relation.make_column_irreducible.s": s("relation.make_column_irreducible"),
        "relation.is_column_irreducible.s": s("relation.is_column_irreducible"),
        "relation.from_text.s": s("relation.from_text"),
        "collapse.collapse_core.s": s("collapse.collapse_core"),
        "collapse.core_cells": total("core_cells"),
        "collapse.is_strong_collapsible.s": s("collapse.is_strong_collapsible"),
        "collapse.is_strong_collapsible.calls": tests,
        "collapse.is_strong_collapsible.yield": counts["collapsible"] / tests if tests else 0.0,
        "homology.betti_gf2.s": s("homology.betti_gf2"),
        "homology.enumerate_simplices.s": s("homology.enumerate_simplices"),
        "homology.rank_gf2.s": s("homology.rank_gf2"),
        "homology.simplices": counts["simplices"],
        "homology.boundary_bytes": counts["boundary_bytes"],
        "cli.main.self_s": s("cli.main", "self_s"),
        "cli.main.s": s("cli.main"),
        "trace.dominant_frac": sum(d for _, d, _ in shares) / call_s if call_s else 0.0,
    }


def new_tracer():
    """A Tracer for one traced pass, with the counters read from return values."""
    counts = {"collapsible": 0, "simplices": 0, "boundary_bytes": 0}

    def collapsible(result):
        counts["collapsible"] += bool(result)

    def simplices(chain_complex):
        # boundary k is a dense n_{k-1} x n_k uint8 matrix: bytes computed, not measured
        sizes = [len(level) for level in chain_complex.simplices_by_dim]
        counts["simplices"] += sum(sizes)
        counts["boundary_bytes"] += sum(a * b for a, b in zip(sizes, sizes[1:]))

    observers = {"collapse.is_strong_collapsible": collapsible,
                 "homology.enumerate_simplices": simplices}
    return Tracer(observers), counts


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    try:
        import_s, build_s, calls = set_up(args.workload, args.seed, workdir / "run")
        runner = Runner()
        drift, probed = drift_probe(args.workload, runner, workdir / "probe")
        if args.trace:
            result = traced_run(args, calls, runner)
        else:
            result = untraced_run(args, calls, runner, [(import_s, build_s)], drift, probed,
                                  workdir / "setup")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = runner.failed == 0 and not drift
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": result}))
    return 0


def untraced_run(args, calls, runner, setup, drift, probed, setup_dir):
    """The end-to-end metrics.  After every pass the set-up is repeated into
    `setup_dir`, so that `setup_s` is a median over set-ups spread over the
    whole run, not over one phase of the host's speed at its start."""
    rss = []

    def one_pass():
        result = runner.run_scaled_pass(calls)
        if not rss:  # later passes add allocator fragmentation that varies run to run
            rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        setup.append(set_up(args.workload, args.seed, setup_dir)[:2])
        return result

    results = passes(args.seconds, one_pass, MIN_PASSES)
    walls = [r[0] for r in results]
    scaled = [r[3] for r in results]
    slices = [s for r in results for s in r[4]]
    facts = results[-1][2]
    metrics = {
        "setup_s": (median([i + b for i, b in setup]), "s",
                    f"median of n={len(setup)} set-ups: fresh-interpreter import "
                    f"{median([i for i, _ in setup]):.4f} s + fixture build "
                    f"{median([b for _, b in setup]):.4f} s"),
        "wall_norm_s": (median(scaled), "s",
                        f"median of n={len(scaled)} passes scaled to a {reference.REF_S} s "
                        f"reference slice; quartiles {quartiles(scaled)}"),
        "peak_rss_mb": (rss[0], "MiB", "whole process through set-up and the first pass, n=1"),
    }
    print(f"{args.workload} seed={args.seed} passes={len(walls)} calls/pass={len(calls)}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<13} {value:12.4f} {unit:<6} {note}")
    print(f"  {'wall_s':<13} {median(walls):12.4f} {'s':<6} median of n={len(walls)} passes, "
          f"unscaled; cpu {median([r[1] for r in results]):.4f} s; quartiles {quartiles(walls)}")
    print(f"  {'ref_slice_s':<13} {median(slices):12.4f} {'s':<6} median of n={len(slices)} "
          f"reference slices; quartiles {quartiles(slices)}")
    print(f"  {'failed_frac':<13} {runner.failed / runner.attempted:12.4f} {'ratio':<6} "
          f"{runner.failed} of n={runner.attempted} calls")
    if args.workload == "reduce-torus":
        for key in ("rows", "cols"):
            print(f"  reduced_{key:<5} {sum(f.get(key, 0) for f in facts):12d} {'count':<6} "
                  f"summed over n={len(calls)} fixtures")
    if drift is None:
        print(f"  {'output_drift':<13} {'-':>12} {'count':<6} no files written; stdout checked exactly")
    else:
        print(f"  {'output_drift':<13} {drift:12d} {'count':<6} of n={probed} default-seed "
              f"fixtures against {DIGESTS.name}")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def quartiles(values):
    if len(values) < 2:
        return "-"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4f}..{q3:.4f}"


def traced_run(args, calls, runner):
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"
    tracers, walls, per_pass, shares = [], {"untraced": [], "traced": []}, [], []

    def pair():
        walls["untraced"].append(runner.run_pass(calls)[0])
        tracer, counts = new_tracer()
        wall, _, facts = runner.run_pass(calls, tracer)
        walls["traced"].append(wall)
        tracers.append(tracer)
        shares.append(dominant_shares(calls, tracer.spans))
        per_pass.append(layer_metrics(args.workload, tracer, shares[-1], facts, counts))

    passes(args.seconds, pair, MIN_TRACED_PAIRS)
    metrics = {name: median([m[name] for m in per_pass]) for name in per_pass[0]}
    metrics["trace.overhead_frac"] = (median(walls["traced"]) / median(walls["untraced"]) - 1)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"run_id": run_id, "fields": ["name", "start_ns", "end_ns", "parent"],
                   "passes": [t.spans for t in tracers]}, fh)
    missing = sorted({name for t in tracers for name in t.missing})
    print(f"{args.workload} seed={args.seed} traced passes={len(tracers)} "
          f"(per-pass medians; spans in {spans_path.relative_to(ROOT)})")
    if missing:
        print(f"  not found, reported as 0 calls: {', '.join(missing)}")
    for k, call in enumerate(calls):
        share = median([p[k][1] / p[k][2] for p in shares if p[k][2]])
        print(f"  {call.fixture:<14} share of the call in its dominant layer {share:.3f}")
    for name, unit in PER_LAYER:
        print(f"  {name:<38} {metrics[name]:14.6f} {unit}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
