"""Complex ingestion and fixture generation.

Covers the three ways a relation enters the pipeline: toplex files (one
maximal simplex per line), ASCII OFF meshes (faces become toplexes, geometry
is discarded), and covers of a space (the nerve restricted to intersections
witnessed by elements).  Also provides the sphere/torus/simplex-boundary
generators used as regression fixtures, listed in one table, `FIXTURES`.
"""

from __future__ import annotations

from .errors import ParseError
from .relation import Relation, _counts, _lines, _normalise_toplexes, _other_axis


class ToplexList:
    """Ordered list of toplexes with a stable vertex order.

    Every list, parsed, generated or given, is numbered, checked and
    normalised by the one function `relation._normalise_toplexes`, which
    drops duplicate toplexes and toplexes set-contained in another, keeping
    the earliest occurrence.  `vertex_names` is the union of all input
    toplexes in first-appearance order, dropped ones included (or the
    explicit order given).  `vertex_indices` holds each toplex's ascending
    vertex indices into `vertex_names`, so a ToplexList passed on to
    `Relation.from_toplexes` or the homology oracle is used as it stands.
    """

    def __init__(self, toplexes, vertex_names=None):
        self.vertex_names, self.toplexes, self.vertex_indices = \
            _normalise_toplexes(toplexes, vertex_names)

    def __len__(self):
        return len(self.toplexes)

    def __iter__(self):
        return iter(self.toplexes)

    def __eq__(self, other):
        if not isinstance(other, ToplexList):
            return NotImplemented
        return (self.toplexes == other.toplexes
                and self.vertex_names == other.vertex_names)

    def __repr__(self):
        return f"ToplexList({len(self.toplexes)} toplexes, {len(self.vertex_names)} vertices)"

    def to_text(self):
        """One toplex per line, vertex names whitespace-separated."""
        return "".join(" ".join(str(v) for v in t) + "\n" for t in self.toplexes)


def parse_toplex_file(text) -> ToplexList:
    """Parse the toplex file format.

    Each line that `relation._lines` reads is one toplex as
    whitespace-separated vertex names.  The split lines go to `ToplexList`
    as they are read, with no line bookkeeping, so the one normaliser
    numbers and checks each of them once, in first-appearance order.  With
    no explicit order it refuses only an empty toplex (a blank line) or one
    that repeats a vertex, and stops at the first; only then are the lines
    read again, to report that line's number.
    """
    try:
        return ToplexList(raw.split() for _, raw in _lines(text))
    except ValueError:
        for n, raw in _lines(text):
            names = raw.split()
            if not names or len(set(names)) != len(names):
                what = "vertex repeated within a toplex" if names else "blank line in toplex file"
                raise ParseError(what, line=n) from None
        raise


def parse_off(text) -> ToplexList:
    """Parse an ASCII OFF mesh into its face toplexes.

    Coordinates are discarded: only which vertices span each face matters to
    the reduction.  Polygon faces are kept whole as toplexes.  Vertex names
    are the decimal indices from the file.  Blank lines are skipped, and
    comments are as `relation._lines` reads them.
    """
    lines = ((n, words) for n, raw in _lines(text) if (words := raw.split()))

    def next_line(what):
        for line in lines:
            return line
        raise ParseError(f"truncated OFF file: missing {what}")

    n, header = next_line("header")
    if header != ["OFF"]:
        raise ParseError("not a valid OFF header", line=n)
    n, parts = next_line("counts line")
    if len(parts) < 2 or not all(p.removeprefix("-").isdecimal() for p in parts):
        raise ParseError("counts line must be '<vertices> <faces> [<edges>]'", line=n)
    n_verts, n_faces = _counts(parts[:2], n)
    if n_verts < 0 or n_faces < 0:
        raise ParseError("negative count", line=n)
    for _ in range(n_verts):
        next_line("vertex line")
    tops = []
    for _ in range(n_faces):
        n, words = next_line("face line")
        try:
            nums = [int(t) for t in words]
        except ValueError:
            raise ParseError("face line must be integers", line=n) from None
        if nums[0] < 1 or len(nums) < nums[0] + 1:
            raise ParseError("face line must be 'k i1 ... ik'", line=n)
        face = nums[1:nums[0] + 1]
        for i in face:
            if not 0 <= i < n_verts:
                raise ParseError(f"face index {i} out of range", line=n)
        if len(set(face)) != len(face):
            raise ParseError("face repeats a vertex", line=n)
        tops.append(tuple(str(i) for i in face))
    return ToplexList(tops)


def witness_relation(cover) -> Relation:
    """Relation of a cover: rows are cover set names, columns the distinct
    membership fingerprints of the underlying elements.

    Two elements contained in exactly the same cover sets give one column,
    and fingerprint columns contained in another are dropped, so the complex
    of the result is the nerve of the cover restricted to intersections
    actually witnessed by elements.
    """
    items = list(cover.items()) if hasattr(cover, "items") else [tuple(p) for p in cover]
    names = [name for name, _ in items]
    if len(set(names)) != len(names):
        raise ValueError("duplicate cover set names")
    membership = {}
    for i, (name, elements) in enumerate(items):
        elements = list(elements)
        if not elements:
            raise ValueError(f"cover set {name!r} is empty")
        for e in elements:
            membership.setdefault(e, set()).add(i)
    first = {}
    for e, fp in membership.items():
        first.setdefault(tuple(sorted(fp)), e)
    col_labels = []
    used = set()
    for e in first.values():
        label = str(e)
        while label in used:
            label += "'"
        used.add(label)
        col_labels.append(label)
    rows = _other_axis(first, len(names))
    return Relation(names, col_labels, rows).make_column_irreducible()


# ----------------------------------------------------------------------
# fixture generators

def fixture_incidences(shape, *params):
    """The vertex-toplex incidence count of the fixture `shape` generated
    with `params`, from the parameters alone; each generator checks its
    parameters here, so parameters it refuses raise ValueError.
    """
    _, names, low, count = FIXTURES[shape]
    if min(params, default=low) < low:
        raise ValueError(f"{' and '.join(names)} must be >= {low}")
    return count(*params)


def gen_sphere_cube() -> ToplexList:
    """Cube surface, each square face split into two triangles.

    8 vertices, 12 triangles; a 2-sphere.
    """
    quads = [(0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1),
             (2, 3, 7, 6), (0, 2, 6, 4), (1, 5, 7, 3)]
    tris = []
    for a, b, c, d in quads:
        tris.append((a, b, c))
        tris.append((a, c, d))
    return ToplexList([tuple(f"v{i}" for i in t) for t in tris])


def gen_sphere_uv(slices, stacks) -> ToplexList:
    """Latitude/longitude sphere triangulation with two pole fans.

    slices*(stacks-1)+2 vertices and 2*slices*(stacks-1) triangles.
    """
    fixture_incidences("sphere-uv", slices, stacks)
    rings = stacks - 1

    def v(ring, j):
        return f"r{ring}c{j % slices}"

    tris = []
    for j in range(slices):
        tris.append(("pn", v(0, j), v(0, j + 1)))
    for ring in range(rings - 1):
        for j in range(slices):
            a, b = v(ring, j), v(ring, j + 1)
            c, d = v(ring + 1, j + 1), v(ring + 1, j)
            tris.append((a, b, c))
            tris.append((a, c, d))
    for j in range(slices):
        tris.append(("ps", v(rings - 1, j + 1), v(rings - 1, j)))
    return ToplexList(tris)


def gen_torus_grid(m, n) -> ToplexList:
    """m x n vertex grid with wraparound, each cell split into two triangles.

    m*n vertices and 2*m*n triangles; a torus for all m, n >= 3.
    """
    fixture_incidences("torus", m, n)

    def v(i, j):
        return f"g{i % m}_{j % n}"

    tris = []
    for i in range(m):
        for j in range(n):
            a, b = v(i, j), v(i + 1, j)
            c, d = v(i + 1, j + 1), v(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    return ToplexList(tris)


def gen_simplex_boundary(n) -> ToplexList:
    """Facets of the boundary of an (n+1)-simplex: n+2 vertices, n+2 toplexes.

    The worst case for the reducer: every pair's union of stars is the whole
    complex, which is not contractible.
    """
    fixture_incidences("simplex-boundary", n)
    verts = [f"v{i}" for i in range(n + 2)]
    tops = [tuple(v for k, v in enumerate(verts) if k != omit)
            for omit in range(n + 2)]
    return ToplexList(tops)


# the one table of fixture shapes: shape -> (generator, parameter names,
# which are also the `dowker gen` options, lower bound of each parameter,
# vertex-toplex incidence count); a triangulated surface has three
# incidences per triangle, and the boundary of an (n+1)-simplex n+2 facets
# of n+1 vertices each
FIXTURES = {
    "sphere-cube": (gen_sphere_cube, (), 0, lambda: 3 * 12),
    "sphere-uv": (gen_sphere_uv, ("slices", "stacks"), 3, lambda s, t: 3 * 2 * s * (t - 1)),
    "torus": (gen_torus_grid, ("m", "n"), 3, lambda m, n: 3 * 2 * m * n),
    "simplex-boundary": (gen_simplex_boundary, ("n",), 1, lambda n: (n + 2) * (n + 1)),
}
