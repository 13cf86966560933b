"""The benchmark's workloads: seeded fixtures, the CLI calls made on them, and
the checks on every call's output.

Each call gives most of its time to one layer of `dowker` (its `dominant`
share), so a change to one layer shows on one call and is predicted to leave
the others alone.  `reduce-torus` holds the reducer's calls and
`check-betti` the three whole-complex calls, which never reduce (see
perfbench/README.md for the table of predictions).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from fixtures import (grid_triangles, rel_text, shuffled, toplex_text,
                      uv_sphere_triangles)

DEFAULT_SEED = 0
TORUS_BETTI = [1, 2, 1]
SPHERE_BETTI = [1, 0, 1]
REDUCE_TORI = ((12, 16), (20, 30))
DISK = (17, 18)
SPHERE = (80, 60)
INGEST_TORUS = (30, 60)


class CheckFailed(Exception):
    """A CLI call's output is wrong."""


@dataclass
class Call:
    """One CLI invocation and the check of its output.

    `check(stdout)` raises CheckFailed on a wrong output and otherwise
    returns the facts read from it (shape, counts, digests).  `outputs` are
    the files the call writes; they are deleted before every call so a stale
    file cannot pass the check.
    """

    fixture: str
    argv: list
    check: object
    # span seconds -> seconds spent in the layer this call is built to stress
    dominant: object
    outputs: list = field(default_factory=list)


def _expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _check_reduce(rows, rel_path, log_path, stdout):
    from dowker import Relation, betti_gf2
    try:
        report = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise CheckFailed(f"no JSON report in {stdout!r}") from None
    _expect(report.get("betti_preserved") is True, "betti_preserved is not true")
    _expect(report["betti_before"] == TORUS_BETTI and report["betti_after"] == TORUS_BETTI,
            f"Betti numbers {report['betti_before']} -> {report['betti_after']}")
    _expect((report["rows_before"], report["cols_before"]) == (rows, 2 * rows),
            "input shape")
    rel = Relation.from_text(Path(rel_path).read_text(encoding="utf-8"))
    _expect(rel.shape == (report["rows_after"], report["cols_after"]),
            f"written relation is {rel.shape}, report says "
            f"{report['rows_after']}x{report['cols_after']}")
    _expect(list(betti_gf2(rel.toplexes(), 2)) == TORUS_BETTI,
            "written relation has other Betti numbers")
    log = Path(log_path).read_text(encoding="utf-8").splitlines()
    _expect(len(log) == report["steps"], f"{len(log)} log lines for {report['steps']} steps")
    _expect(all(line.startswith(f"STEP {k}: ") for k, line in enumerate(log, 1)),
            "malformed step log")
    return {"rows": rel.nrows, "cols": rel.ncols, "steps": report["steps"],
            "tests": report["tests"], "budget": report["budget"],
            "digests": {"rel": _sha256(rel_path), "log": _sha256(log_path)}}


def _check_exact(expected, stdout):
    _expect(stdout == expected, f"output {stdout!r}, expected {expected!r}")
    return {}


def _check_disk(stdout):
    _check_exact("column-irreducible: yes\nstrong-collapsible: yes (core 1x1)\n", stdout)
    m = re.search(r"core (\d+)x(\d+)", stdout)
    return {"core_cells": int(m.group(1)) * int(m.group(2))}


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _reduce_share(s):
    return s("reducer.reduce") - s("collapse.is_strong_collapsible")


def reduce_torus(rng, workdir):
    calls = []
    for m, n in REDUCE_TORI:
        name = f"torus-{m}x{n}"
        src = _write(workdir / f"{name}.toplex", toplex_text(shuffled(grid_triangles(m, n), rng)))
        rel, log = str(workdir / f"{name}.rel"), str(workdir / f"{name}.log")
        argv = ["reduce", "--input", src, "--format", "toplex", "--check-betti",
                "--output", rel, "--log", log, "--json"]
        calls.append(Call(name, argv, partial(_check_reduce, m * n, rel, log),
                          _reduce_share, [rel, log]))
    return calls


def check_betti(rng, workdir):
    m, n = DISK
    disk = f"disk-{m}x{n}"
    disk_src = _write(workdir / f"{disk}.toplex",
                      toplex_text(shuffled(grid_triangles(m, n, wrap=False), rng)))
    m, n = INGEST_TORUS
    torus = f"torus-{m}x{n}"
    torus_src = _write(workdir / f"{torus}.toplex",
                       toplex_text(shuffled(grid_triangles(m, n), rng)))
    slices, stacks = SPHERE
    sphere = f"sphere-{slices}x{stacks}"
    sphere_src = _write(workdir / f"{sphere}.rel",
                        rel_text(shuffled(uv_sphere_triangles(slices, stacks), rng)))
    return [
        Call(disk, ["check", "--input", disk_src], _check_disk,
             lambda s: s("collapse.collapse_core")),
        Call(torus, ["betti", "--input", torus_src, "--format", "toplex"],
             partial(_check_exact, " ".join(map(str, TORUS_BETTI)) + "\n"),
             lambda s: s("complexio.parse_toplex_file") + s("relation.from_toplexes")),
        Call(sphere, ["betti", "--input", sphere_src, "--format", "rel"],
             partial(_check_exact, " ".join(map(str, SPHERE_BETTI)) + "\n"),
             lambda s: s("homology.betti_gf2")),
    ]


WORKLOADS = {
    "reduce-torus": reduce_torus,
    "check-betti": check_betti,
}


def build(workload, seed, workdir):
    """Write the workload's fixtures for `seed` into `workdir`; return its calls."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random(seed), workdir)
