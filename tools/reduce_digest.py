"""Golden digests of `reduce` on fixed fixtures.

For each fixture, a SHA-256 over what `reduce` gives: the reduced
relation's `.rel` text, `format_step_log` of the reports, `repr` of the
stats (which holds `tested_pairs` and both star-size histories), and each
report's eight fields, read by name so that the digest does not depend on
the report's type.  A fixture of several relations hashes them in turn.
The random draws come from the test suite's seeded builders in
`tests/_util.py`; `dowker` is whichever one Python imports, so run from
outside the checkout, after `pip install .`, it checks the installed
package.

`--check` also runs every fixture with `reduce(r, records=False)` and
fails unless that gives what `reduce(r)` gives, apart from the three
records it leaves empty: `tested_pairs` and both star-size histories.

    python tools/reduce_digest.py                  # print the digests as JSON
    python tools/reduce_digest.py --check FILE     # exit 1 unless they match FILE
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from _util import random_irreducible_relation, with_repeats  # noqa: E402
from dowker import (Relation, format_step_log, gen_simplex_boundary,  # noqa: E402
                    gen_sphere_uv, gen_torus_grid, reduce)

FIELDS = ("pair", "z_label", "faces_absorbed", "duplicates_merged",
          "delta_z", "epsilon_z", "cols_before", "cols_after")
RECORDS = ("tested_pairs", "delta_max_history", "epsilon_max_history")


def _random(n, repeats, seed):
    rng = random.Random(seed)
    rels = [random_irreducible_relation(rng) for _ in range(n)]
    return [with_repeats(rng, r) for r in rels] if repeats else rels


def fixtures():
    """Fixture name -> list of relations."""
    toplexes = {"torus-12x16": gen_torus_grid(12, 16),
                "torus-20x30": gen_torus_grid(20, 30),
                "torus-60x80": gen_torus_grid(60, 80),
                "sphere-uv-24x21": gen_sphere_uv(24, 21),
                "sphere-uv-80x60": gen_sphere_uv(80, 60),
                "simplex-boundary-8": gen_simplex_boundary(8),
                "simplex-boundary-40": gen_simplex_boundary(40)}
    out = {name: [Relation.from_toplexes(t)] for name, t in toplexes.items()}
    out["random-irreducible-400"] = _random(400, False, 20261020)
    out["random-repeats-100"] = _random(100, True, 20261021)
    return out


def digest(relations):
    h = hashlib.sha256()
    for r in relations:
        reduced, stats, reports = reduce(r)
        h.update(reduced.to_text().encode())
        h.update(format_step_log(reports).encode())
        h.update(repr(stats).encode())
        for rep in reports:
            h.update(repr(tuple(getattr(rep, f) for f in FIELDS)).encode())
    return h.hexdigest()


def _outputs(r, **kwargs):
    reduced, stats, reports = reduce(r, **kwargs)
    return (reduced.to_text(), stats,
            [tuple(getattr(rep, f) for f in FIELDS) for rep in reports])


def records_off_agrees(relations):
    """Whether `reduce(r, records=False)` gives, for every relation, the
    relation, reports and stats that `reduce(r)` gives, with the three
    records empty."""
    for r in relations:
        text, stats, reports = _outputs(r)
        lean = _outputs(r, records=False)
        if lean != (text, dataclasses.replace(stats, **{f: [] for f in RECORDS}), reports):
            return False
    return True


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    fixed = fixtures()
    got = {name: digest(rels) for name, rels in fixed.items()}
    if not argv:
        print(json.dumps(got, indent=2))
        return 0
    if len(argv) != 2 or argv[0] != "--check":
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    want = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    bad = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    for name in bad:
        print(f"mismatch: {name}", file=sys.stderr)
    lean_bad = [name for name, rels in fixed.items() if not records_off_agrees(rels)]
    for name in lean_bad:
        print(f"records=False differs: {name}", file=sys.stderr)
    if bad or lean_bad:
        return 1
    print(f"{len(got)} digests match {argv[1]}, and records=False agrees on all, "
          f"reducing with {sys.modules['dowker'].__file__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
