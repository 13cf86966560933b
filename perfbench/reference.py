"""A fixed reference computation that tracks the host's speed.

The measuring host runs its vCPUs at changing speeds (see README.md, "Noise
on the measuring machine"), and CPU time tracks wall time, so a call's wall
time says as much about the host's phase as about the program.  `slice_s()`
times `REPEATS` runs of a small computation of the kind of the program's work
(labels parsed from toplex lines, bitmask incidence, the
restart-after-every-removal domination scan, text written back).  It is
fixed here and imports nothing from `dowker`, so a change to the program
cannot change it.  run.py times slices between the CLI calls and scales each
call's wall time by `REF_S / (its neighbouring slices' mean)`: the time the
call would take with the host running at the speed at which a slice takes
`REF_S`.
"""

from __future__ import annotations

import gc
import time

from fixtures import grid_triangles, toplex_text

# About the seconds of one slice on the measuring host in its fast phase
# (see README.md); it only fixes the scale of the scaled times.
REF_S = 0.030


LINES = toplex_text(grid_triangles(9, 9, wrap=False)).splitlines()
REPEATS = 20


def _collapse_once():
    """Parse a 9x9 grid disk, remove dominated rows until none is left, and
    write the columns out; the number of removed rows and the text length,
    which never change."""
    labels = {}
    cols = [[labels.setdefault(v, len(labels)) for v in line.split()] for line in LINES]
    rows = [0] * len(labels)
    for j, col in enumerate(cols):
        for i in col:
            rows[i] |= 1 << j
    live = list(range(len(rows)))
    removed = 0
    restart = True
    while restart:
        restart = False
        for ai in range(len(live)):
            mi = rows[live[ai]]
            for aj in range(len(live)):
                if aj == ai:
                    continue
                mj = rows[live[aj]]
                if mi & mj == mi and (mi != mj or ai > aj):
                    rows[live.pop(ai)] = 0
                    removed += 1
                    restart = True
                    break
            if restart:
                break
    text = "\n".join(" ".join(map(str, col)) for col in cols)
    return removed, len(text)


EXPECTED = _collapse_once()


def slice_s():
    """Wall seconds of one reference slice.

    The garbage collector is off while it runs, so that a large heap left
    by the program cannot slow the slice down.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(REPEATS):
            result = _collapse_once()
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if result != EXPECTED:
        raise RuntimeError(f"reference slice computed {result}, expected {EXPECTED}")
    return elapsed
