"""Seeded, linear-time fixture builders for the benchmark.

The library's generators and `Relation.from_toplexes` normalise toplex lists
with pairwise containment scans, which is quadratic: building the uv-sphere
80x60 relation through them takes tens of seconds.  The triangulations built
here have no repeated or contained triangles, so they can be written out
directly, keeping fixture set-up out of the ingestion time that the benchmark
measures.  Unshuffled, the output is byte-equal to the library path, and
shuffled, `rel_text` equals `Relation.from_toplexes(...).to_text()`
(`perfbench/test_fixtures.py` checks both at small sizes).
"""

from __future__ import annotations


def grid_triangles(m, n, wrap=True):
    """Triangles of an m x n vertex grid, each cell split in two.

    With `wrap` the grid closes into a torus (the triangles and names of
    `gen_torus_grid(m, n)`); without it, it is a disk of (m-1)*(n-1) cells.
    """
    def v(i, j):
        return f"g{i % m}_{j % n}"

    rows, cols = (m, n) if wrap else (m - 1, n - 1)
    tris = []
    for i in range(rows):
        for j in range(cols):
            a, b = v(i, j), v(i + 1, j)
            c, d = v(i + 1, j + 1), v(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    return tris


def uv_sphere_triangles(slices, stacks):
    """Triangles and names of `gen_sphere_uv(slices, stacks)`."""
    rings = stacks - 1

    def v(ring, j):
        return f"r{ring}c{j % slices}"

    tris = [("pn", v(0, j), v(0, j + 1)) for j in range(slices)]
    for ring in range(rings - 1):
        for j in range(slices):
            a, b = v(ring, j), v(ring, j + 1)
            c, d = v(ring + 1, j + 1), v(ring + 1, j)
            tris.append((a, b, c))
            tris.append((a, c, d))
    tris.extend(("ps", v(rings - 1, j + 1), v(rings - 1, j)) for j in range(slices))
    return tris


def shuffled(tris, rng):
    """The toplexes in a seeded order, each with its vertices in a seeded order.

    Both orders fix the relation's row order (first appearance) and column
    order, which is all the seed changes: the complex stays the same.
    """
    out = [tuple(rng.sample(t, len(t))) for t in tris]
    rng.shuffle(out)
    return out


def toplex_text(tris):
    """The toplex file format: one toplex per line."""
    return "".join(" ".join(t) + "\n" for t in tris)


def rel_text(tris):
    """`Relation.from_toplexes(tris).to_text()` in linear time.

    Valid only when no toplex repeats or is contained in another, which
    holds for every triangulation above; a repeat raises ValueError.
    """
    if len({frozenset(t) for t in tris}) != len(tris):
        raise ValueError("repeated toplex")
    rows = {}
    for j, t in enumerate(tris):
        for v in t:
            rows.setdefault(v, []).append(j)
    out = [f"{len(rows)} {len(tris)}",
           " ".join(rows),
           " ".join(f"t{j}" for j in range(len(tris)))]
    out.extend(" ".join(map(str, cols)) for cols in rows.values())
    return "\n".join(out) + "\n"
