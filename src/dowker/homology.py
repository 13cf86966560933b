"""GF(2) simplicial homology oracle.

Independent of the reduction path: it expands toplexes into explicit simplex
lists, builds each boundary map as one tuple of face indices per simplex,
and computes Betti numbers by GF(2) rank.  Used to certify that reductions
preserve the mod-2 Betti numbers.  The toplexes come as a Relation, whose
ascending column tuples are used as they are, or as vertex-name
collections, numbered by the one toplex normaliser,
`relation._normalise_toplexes`.  The vertices are listed from their count,
and each level above them is built in bulk, a chunk of toplexes at a time,
under the simplex cap.  The lists come in two orders: the canonical form
sorts each level, so each boundary tuple is ascending, and the listing form
keeps each level in the order its simplices first appear among the
toplexes' faces.  A rank depends on neither order, so the Betti numbers are
computed from the listing form, which skips the sort.

The rank kernel treats columns with one or two entries as graph edges and
ranks them by union-find; only the heavier columns are eliminated, as small
ints over the graph's components.  The boundary of an edge is a vertex pair,
and a (d-1)-simplex of a d-dimensional (pseudo)manifold lies in at most two
d-simplices, so ranking d_1 by its columns and each higher map by its
transpose leaves no heavy column in d_1 or in the top map; on a surface there
are none at all.  The transpose is read from the face tuples as each face's
first and second coface in two int lists, with a dict only for faces that
have more.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, combinations, repeat
from math import comb

from .errors import SizeCapError
from .relation import Relation, _normalise_toplexes

DEFAULT_SIZE_CAP = 5_000_000


@dataclass
class ChainComplexGF2:
    """Simplices by dimension plus the boundary maps between them.

    `simplices_by_dim[k]` is the list of k-simplices as ascending
    vertex-index tuples, sorted in the canonical form and in first-appearance
    order in the listing form; the vertices in use are numbered in vertex
    order (row order for a Relation), so `simplices_by_dim[0][i]` is `(i,)`
    in both.  `boundary[k]` holds the GF(2) boundary map from k-chains to
    (k-1)-chains as one column per k-simplex, in `simplices_by_dim[k]`
    order: the tuple of the indices into `simplices_by_dim[k-1]` of its k+1
    faces, taken in lexicographic vertex order, which for an edge is the
    edge itself.  In the canonical form each such tuple is ascending.
    `boundary[0]` is one empty tuple per vertex (the zero map).
    """

    simplices_by_dim: list = field(default_factory=list)
    boundary: list = field(default_factory=list)

    def counts(self):
        return tuple(len(s) for s in self.simplices_by_dim)


def _vertex_tuples(toplexes):
    """Each toplex as the ascending tuple of its vertex indices, with the
    vertices in use numbered in vertex order, and the number of those
    vertices.

    Vertex-name toplexes go through `_normalise_toplexes`; only an explicit
    order that holds names no toplex uses makes the tuples be renumbered,
    to the vertices in use.
    """
    if isinstance(toplexes, Relation):
        # every row meets a column, and column tuples are ascending
        return toplexes.cols, toplexes.nrows
    order, _, cols = _normalise_toplexes(toplexes)
    used = set().union(*cols)
    if len(used) == len(order):
        return cols, len(order)
    pos = {v: k for k, v in enumerate(sorted(used))}
    return [tuple(map(pos.__getitem__, c)) for c in cols], len(used)


def _faces(toplexes, k):
    """The k-faces of each of `toplexes`, vertex-index tuples, in turn."""
    return chain.from_iterable(map(combinations, toplexes, repeat(k + 1)))


def enumerate_simplices(toplexes, max_dim=None, size_cap=DEFAULT_SIZE_CAP, *,
                        canonical=True) -> ChainComplexGF2:
    """All simplices of the complex generated by `toplexes`, up to max_dim+1.

    `toplexes` is a Relation, whose columns are the toplexes and whose rows
    are the vertices in row order, or a ToplexList or iterable of vertex-name
    collections, which `_normalise_toplexes` numbers; names of an explicit
    vertex order that no toplex uses are not vertices.  Going one
    dimension above max_dim makes the Betti number at max_dim exact; no
    level above the largest toplex is built, since it would be empty.
    `max_dim` defaults to the dimension of the largest toplex (0 without
    toplexes).  Every vertex numbered is in use, so the vertices are listed
    from their count; each level above is built in bulk from chunks of
    toplexes whose face counts, summed, fit in the room left under
    `size_cap` (a chunk holds at least one toplex), so the levels never hold
    more than `size_cap` plus one toplex's faces.  Raises SizeCapError when
    the deduplicated simplex count would exceed `size_cap`.

    With `canonical` (the default) each level is sorted, so each boundary
    tuple is ascending.  With `canonical=False` each level is in the order
    its simplices first appear among the toplexes' faces (a dict keeps that
    order), and each boundary tuple lists the faces' indices in the faces'
    lexicographic vertex order: the same complex and the same ranks, without
    the sort.
    """
    cols, total = _vertex_tuples(toplexes)
    top_dim = max(map(len, cols), default=0) - 1
    if max_dim is None:
        max_dim = max(top_dim, 0)
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    if total > size_cap:
        raise SizeCapError(f"simplex count exceeds cap {size_cap}")
    levels = [list(zip(range(total)))] if cols else []
    for k in range(1, min(max_dim + 1, top_dim) + 1):
        # bounds[q] - bounds[p] bounds the k-faces of toplexes p..q-1
        bounds = list(accumulate(map(comb, map(len, cols), repeat(k + 1)), initial=0))
        level = {}
        p = 0
        while p < len(cols):
            q = max(bisect_right(bounds, bounds[p] + size_cap - total) - 1, p + 1)
            if bounds[q] - bounds[p] > size_cap:
                raise SizeCapError(f"simplex count exceeds cap {size_cap}")
            before = len(level)
            level.update(zip(_faces(cols[p:q], k), repeat(None)))
            total += len(level) - before
            if total > size_cap:
                raise SizeCapError(f"simplex count exceeds cap {size_cap}")
            p = q
        # the dict is emptied once listed, so the next level is built beside
        # this level's list only
        levels.append(sorted(level) if canonical else list(level))
        level.clear()
    boundary = [[()] * len(levels[0])] if levels else []
    if len(levels) > 1:
        # an edge's endpoints are its faces' indices
        boundary.append(list(levels[1]))
    for k in range(2, len(levels)):
        # faces of s in lexicographic order, k + 1 of them per simplex; in
        # the sorted levels that is ascending index order
        index = dict(zip(levels[k - 1], range(len(levels[k - 1])))).__getitem__
        faces = map(index, chain.from_iterable(map(combinations, levels[k], repeat(k))))
        boundary.append(list(zip(*[faces] * (k + 1))))
    return ChainComplexGF2(simplices_by_dim=levels, boundary=boundary)


def rank_gf2(columns, n) -> int:
    """Rank over GF(2) of columns over coordinates 0..n-1, each given as the
    sequence of its distinct non-zero coordinates; the input is not
    modified.

    Columns with one or two entries are edges of a graph on the coordinates
    plus a ground node n (a single entry joins ground, and so does an entry
    n, which is how `_transposed_rank` passes single entries), and their
    rank is the number of unions that join two components; `find` (path
    halving) is inlined in that loop.  Their span is every vector with an
    even number of entries in each component without ground, so a heavier
    column reduces, modulo that span, to the int with bit j set when it has
    an odd number of entries in the j-th such component; those ints are
    ranked by lead-bit elimination.
    """
    parent = list(range(n + 1))
    rank = 0
    heavy = []
    for c in columns:
        size = len(c)
        if size > 2:
            heavy.append(c)
        elif size:
            a = c[0]
            b = c[1] if size == 2 else n
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[a] = b
                rank += 1

    def find(a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    ground = find(n)
    bit = {}
    lead = {}
    for c in heavy:
        v = 0
        for x in c:
            r = find(x)
            if r != ground:
                v ^= 1 << bit.setdefault(r, len(bit))
        while v:
            h = v.bit_length() - 1
            w = lead.get(h)
            if w is None:
                lead[h] = v
                break
            v ^= w
    return rank + len(lead)


def _transposed_rank(columns, n) -> int:
    """`rank_gf2(columns, n)` computed by `rank_gf2` on the transpose, whose
    column f holds the columns that have entry f; the transpose is never
    built as one list per coordinate.

    Each coordinate's first and second column go in two int lists, with
    the ground node len(columns) standing for none, and only a coordinate
    in three or more columns goes in a dict, as a heavy column.  Every
    other coordinate is then the pair of its two lists' entries: an edge,
    an edge to ground for one column, and ground to ground, which joins
    nothing, for none.
    """
    ground = len(columns)
    first = [ground] * n
    second = [ground] * n
    more = {}
    for j, c in enumerate(columns):
        for f in c:
            if first[f] == ground:
                first[f] = j
            elif second[f] == ground:
                second[f] = j
            elif f in more:
                more[f].append(j)
            else:
                more[f] = [first[f], second[f], j]
    for f in more:
        first[f] = second[f] = ground
    return rank_gf2(chain(zip(first, second), more.values()), ground)


def betti_gf2(toplexes, max_dim=None, size_cap=DEFAULT_SIZE_CAP):
    """Mod-2 Betti numbers (beta_0, ..., beta_max_dim) of the complex
    generated by `toplexes`, a Relation or vertex-name collections as for
    `enumerate_simplices`.

    beta_k = dim ker boundary_k - rank boundary_{k+1}.  `max_dim` defaults
    to the dimension of the largest toplex.  The maps come from
    `enumerate_simplices` in the listing form (`canonical=False`), since a
    rank does not depend on the order of either basis.  d_1 is ranked on
    its columns (vertex pairs) and each higher map on its transpose, the
    cofaces of each face, which has the same rank; `_transposed_rank` reads
    each face's cofaces straight from `boundary[k]`, so no list per face is
    built.
    Above the largest toplex every Betti number is 0; the result holds
    max_dim + 1 numbers, so SizeCapError is raised when that exceeds
    `size_cap`.
    """
    if max_dim is not None and max_dim + 1 > size_cap:
        raise SizeCapError(f"{max_dim + 1} Betti numbers exceed cap {size_cap}")
    # boundary[k] has one column per k-simplex, so the simplex lists are
    # dropped at once: their tuples would be held through both ranks
    boundary = enumerate_simplices(toplexes, max_dim, size_cap=size_cap, canonical=False).boundary
    n = len(boundary)
    if max_dim is None:
        max_dim = max(n - 1, 0)
    ranks = [0] * (n + 1)
    if n > 1:
        ranks[1] = rank_gf2(boundary[1], len(boundary[0]))
    for k in range(2, n):
        ranks[k] = _transposed_rank(boundary[k], len(boundary[k - 1]))
    betti = [len(boundary[k]) - ranks[k] - ranks[k + 1] for k in range(n)][:max_dim + 1]
    return tuple(betti) + (0,) * (max_dim + 1 - len(betti))
