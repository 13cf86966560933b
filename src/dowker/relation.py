"""Sparse binary relation core: the vertex/toplex incidence matrix.

A relation between row labels (vertices) and column labels (toplexes) is the
single source of truth for a simplicial complex: the simplices of the complex
are exactly the row sets that share a column.  Incidence is stored sparsely
in both orientations: a relation holds the ascending index tuple of every row
and every column, and the mutable draft that operations edit holds one set per
column and one tuple per row, at first the relation's own: a draft costs
little more than the relation it edits, and an edit replaces the tuples of
the rows it changes.  Row-side domination scans and column-side
clean-up each run on their natural axis without transposing the whole
matrix, and their cost follows the ones of the matrix, not its width.

No method changes a Relation once it is constructed: every operation
returns a new value, or the relation itself when it changes nothing.  One
function, `_freeze`, renumbers: it turns the live rows and columns of a
relation or a draft, or only a selection of its columns, into a new value.
Restriction and column clean-up call it on the relation itself, and clean-up
selects the maximal columns with `_maximal`, so neither edits a draft; when
every column is maximal, clean-up returns the relation and renumbers
nothing.  Adding a row goes through the constructor.  Removing rows edits a
private mutable draft in place and renumbers the survivors once, when the
draft is frozen.

One kernel removes contained sets: `_dominated`, through `_exhaust`.  It
serves whole relations (`_maximal`) and the collapse fixpoint
(`_collapse`), which the core and every strong-collapse test run, on a
whole relation or on a selection of its columns, always on sets (`<=`
orders tuples).  It finds a member's supersets through the other
orientation, so its cost follows the set sizes, not the axis length, and
its removals keep both orientations exact as the fixpoint alternates
axes.  A merge's own clean-up
(`reducer._absorbed`) tests only the few columns that can have become
dominated, against the cone row's columns, and tells the faces from the
duplicates, the split a merge reports.

The three text formats read their lines through one generator, `_lines`,
which skips comments and numbers every line of the file, and the two
writers, of relations and of toplex lists, turn labels into tokens through
one function, `_tokens`, which refuses a label that would read back as
something else.

Vertex-name toplexes become index tuples in one function,
`_normalise_toplexes`: it numbers the names in one pass, in
first-appearance order, checks each toplex as it reads it, and keeps the
maximal toplexes with the same `_maximal`.  `ToplexList`,
`parse_toplex_file`, `from_toplexes` and the homology oracle go through
it, and a ToplexList it has built is used as it stands.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index, lt

from .errors import ParseError


def _other_axis(lists, n):
    """For each of n members of the other axis, the ascending positions in
    `lists` whose collection holds it."""
    out = [[] for _ in range(n)]
    for k, members in enumerate(lists):
        for b in members:
            out[b].append(k)
    return out


def _smallest(other, s):
    """The smallest other[b] over b in the non-empty set s."""
    it = iter(s)
    smallest = other[next(it)]
    for b in it:
        if len(other[b]) < len(smallest):
            smallest = other[b]
    return smallest


def _dominated(sets, other, i, within):
    """Whether a member of `within` dominates member i.

    k dominates i when sets[i] is contained in sets[k] and the sets differ
    or k < i (equal sets keep the lowest index); sets[i] must be non-empty.
    `other` is the other orientation of `sets`, so every superset of sets[i]
    lies in other[b] for each b in sets[i]: the candidates come from the
    smallest of those, scanned unsorted up to the first hit, and the cost
    follows the set sizes, not the axis length.
    """
    s = sets[i]
    n = len(s)
    for k in _smallest(other, s):
        # a superset differs exactly when it is larger
        if k != i and k in within and s <= sets[k] and (k < i or len(sets[k]) != n):
            return True
    return False


_DEAD = frozenset()


def _drop(sets_a, sets_b, i):
    """Remove member i of axis a in place: remove it from the sets of axis b,
    which must be sets, and give it the shared empty set, so a dead slot
    keeps no set of its own.  Returns the set it had.  The set-based copies
    edit with it: the collapse fixpoint and `_maximal`, through `_exhaust`,
    and `Relation.remove_rows`, which drops rows from a draft's column
    sets."""
    s = sets_a[i]
    for b in s:
        sets_b[b].discard(i)
    sets_a[i] = _DEAD
    return s


def _exhaust(live, sets_a, sets_b, todo):
    """Remove, in place, the dominated members of axis a among `todo`, drop
    them from `live` too, and return the sets the removed members had.

    A member goes away when its set is strictly contained in another live
    member's, or equals the set of a lower-indexed one (duplicates keep the
    lowest index).  Members outside `live` never dominate.  `sets_b` is the
    other orientation of `sets_a`; removals go through `_drop`, so subset
    tests stay exact without compacting indices.  `_maximal` and
    `_collapse` call it.
    """
    # a removal shrinks sets on axis b only, so no earlier member becomes
    # dominated, and one ascending pass removes what a fixed-set scan would
    removed = []
    for i in sorted(todo):
        if _dominated(sets_a, sets_b, i, live):
            live.discard(i)
            removed.append(_drop(sets_a, sets_b, i))
    return removed


def _collapse(row_sets, col_sets, rows, cols):
    """Alternate row and column domination removal, in place, until a column
    pass removes nothing; `rows` and `cols` are the live ids and keep the
    survivors.  `collapse_core` and every strong-collapse test run it from
    scratch, rows first.  Both axes must hold sets, never tuples:
    `_dominated` tests containment with `<=`, which orders tuples.

    The first pass on each axis tests every live member.  After that, a
    pass tests only the members whose sets the pass just before it shrank.
    A removal on one axis only shrinks sets on the other, so a member whose
    set did not change cannot have become dominated, and the same members
    go in the same order as under full rescans.
    """
    # the sets a row pass removes hold live columns only, so adding them to
    # the first column worklist, every live column, adds nothing
    todo_rows, todo_cols = rows, cols
    while True:
        todo_cols.update(*_exhaust(rows, row_sets, col_sets, todo_rows))
        removed = _exhaust(cols, col_sets, row_sets, todo_cols)
        if not removed:
            return
        todo_rows, todo_cols = set().union(*removed), set()


class Relation:
    """Binary incidence between vertices (rows) and toplexes (columns); no
    method changes it.

    `rows[i]` holds the ascending column indices of row i and `cols[j]` the
    ascending row indices of column j.  Invariants: labels are unique per
    axis, the two orientations hold the same ones, and no row or column is
    empty (the 0x0 relation is the only degenerate value allowed).
    """

    __slots__ = ("row_labels", "col_labels", "rows", "cols")

    def __init__(self, row_labels, col_labels, rows):
        """Build from per-row column index collections.

        `rows[i]` lists the column indices incident to row i.  Duplicate
        labels, empty rows, uncovered columns and out-of-range indices are
        rejected with ValueError.
        """
        row_labels = tuple(row_labels)
        col_labels = tuple(col_labels)
        if len(set(row_labels)) != len(row_labels):
            raise ValueError("duplicate row labels")
        if len(set(col_labels)) != len(col_labels):
            raise ValueError("duplicate column labels")
        rows = [tuple(sorted({index(c) for c in cols})) for cols in rows]
        if len(rows) != len(row_labels):
            raise ValueError("row count does not match row label count")
        ncols = len(col_labels)
        for label, cols in zip(row_labels, rows):
            for c in cols:
                if not 0 <= c < ncols:
                    raise ValueError(f"column index {c} out of range in row {label!r}")
        self._set(row_labels, col_labels, rows, _other_axis(rows, ncols))

    @classmethod
    def _build(cls, row_labels, col_labels, rows, cols):
        """Trusted constructor from both orientations, as ascending index
        sequences."""
        self = object.__new__(cls)
        self._set(row_labels, col_labels, rows, cols)
        return self

    def _set(self, row_labels, col_labels, rows, cols):
        """Store labels and both orientations, and reject empty rows and
        columns."""
        self.row_labels = tuple(row_labels)
        self.col_labels = tuple(col_labels)
        self.rows = tuple(map(tuple, rows))
        self.cols = tuple(map(tuple, cols))
        if not all(self.rows):
            label = self.row_labels[self.rows.index(())]
            raise ValueError(f"row {label!r} has no incident column")
        if not all(self.cols):
            label = self.col_labels[self.cols.index(())]
            raise ValueError(f"column {label!r} has no incident row")

    # ------------------------------------------------------------------
    # basic access

    @property
    def nrows(self):
        return len(self.row_labels)

    @property
    def ncols(self):
        return len(self.col_labels)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def row(self, i):
        """Ascending column indices incident to row i."""
        return self.rows[i]

    def col(self, j):
        """Ascending row indices incident to column j."""
        return self.cols[j]

    def row_index(self, label):
        try:
            return self.row_labels.index(label)
        except ValueError:
            raise ValueError(f"unknown row label {label!r}") from None

    def to_dense(self):
        return [[int(j in row) for j in range(self.ncols)] for row in map(set, self.rows)]

    def toplexes(self):
        """Per-column vertex label tuples (ascending row index).

        On a column-irreducible relation these are exactly the toplexes of
        the complex, one per column.
        """
        return [tuple(self.row_labels[i] for i in col) for col in self.cols]

    def __eq__(self, other):
        if not isinstance(other, Relation):
            return NotImplemented
        return (self.row_labels == other.row_labels
                and self.col_labels == other.col_labels
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.row_labels, self.col_labels, self.rows))

    def __repr__(self):
        return f"Relation({self.nrows}x{self.ncols})"

    # ------------------------------------------------------------------
    # construction from complexes

    @classmethod
    def from_toplexes(cls, toplexes):
        """Relation whose complex equals the complex generated by `toplexes`.

        Accepts a ToplexList or any iterable of vertex-name collections.
        Rows are the vertices in first-appearance order, as
        `_normalise_toplexes` numbers them; columns are the maximal input
        toplexes.  Duplicate and set-contained toplexes are dropped, keeping
        the earliest occurrence, so the result is column irreducible, and
        every vertex lies in a kept toplex, since a dropped toplex lies in
        one.
        """
        order, _, cols = _normalise_toplexes(toplexes)
        return cls._build(order, [f"t{j}" for j in range(len(cols))],
                          _other_axis(cols, len(order)), cols)

    # ------------------------------------------------------------------
    # operations

    def restrict_to_columns(self, cols):
        """Sub-relation on the given columns, with now-empty rows dropped.

        When `cols` is the union of the column sets of a vertex set A, the
        complex of the result is exactly the union of the closed stars of A.
        Only the selection is read, and it is renumbered straight into the
        result, with no draft.
        """
        cols = sorted(set(cols))
        if not cols:
            raise ValueError("empty column selection")
        if cols[0] < 0 or cols[-1] >= self.ncols:
            raise ValueError("column index out of range")
        rows = sorted(set().union(*(self.cols[c] for c in cols)))
        return SubRelation(tuple(rows), tuple(cols), _freeze(self, cols))

    def add_row(self, label, cols):
        """New relation with a row appended at the end (highest index)."""
        return Relation(self.row_labels + (label,), self.col_labels, self.rows + (cols,))

    def remove_rows(self, labels):
        """New relation without the given rows.

        Columns left with no incident row are removed together with their
        labels; the remaining indexing is compacted preserving order.
        """
        drop = {self.row_index(l) for l in labels}
        if not drop:
            return self
        draft = _Draft.of(self)
        for i in drop:
            _drop(draft.rows, draft.cols, i)
        return draft.freeze()

    def transpose(self):
        """Rows and columns swapped; an involution."""
        if self.nrows == 0:
            return self
        return Relation._build(self.col_labels, self.row_labels, self.cols, self.rows)

    def make_column_irreducible(self):
        """The relation without the columns whose row set is contained in
        another's; exact duplicates keep the lowest column index.  Rows and
        their order are unchanged, since a removed column lies in a kept
        one.  When every column is maximal, the relation itself."""
        keep = _maximal(self.cols, self.nrows)
        return self if len(keep) == self.ncols else _freeze(self, keep)

    def is_column_irreducible(self):
        return len(_maximal(self.cols, self.nrows)) == self.ncols

    # ------------------------------------------------------------------
    # text format

    def to_text(self):
        """Serialize to the relation text format (bit-exact round trip).

        Line 1: `<rows> <cols>`; line 2: row labels; line 3: column labels;
        then one line per row with the ascending column indices of its ones.
        A label that `_tokens` refuses raises ValueError.
        """
        out = [f"{self.nrows} {self.ncols}",
               " ".join(_tokens(self.row_labels)),
               " ".join(_tokens(self.col_labels))]
        for row in self.rows:
            out.append(" ".join(map(str, row)))
        return "\n".join(out) + "\n"

    @classmethod
    def from_text(cls, text):
        """Parse the relation text format; comments are as `_lines` reads
        them.

        An empty body line would be an empty row and is rejected.
        """
        lines = list(_lines(text))
        if len(lines) < 3:
            raise ParseError("expected a size line and two label lines")
        n_size, size_line = lines[0]
        parts = size_line.split()
        if len(parts) != 2 or not all(p.isdecimal() for p in parts):
            raise ParseError("size line must be '<rows> <cols>'", line=n_size)
        nrows, ncols = _counts(parts, n_size)
        n_row, row_line = lines[1]
        n_col, col_line = lines[2]
        row_labels = row_line.split()
        col_labels = col_line.split()
        if len(row_labels) != nrows:
            raise ParseError(f"expected {nrows} row labels, got {len(row_labels)}",
                             line=n_row)
        if len(col_labels) != ncols:
            raise ParseError(f"expected {ncols} column labels, got {len(col_labels)}",
                             line=n_col)
        body = lines[3:]
        if len(body) != nrows:
            raise ParseError(f"expected {nrows} row lines, got {len(body)}")
        rows = []
        for n, raw in body:
            if not raw.strip():
                raise ParseError("empty row", line=n)
            try:
                idx = tuple(map(int, raw.split()))
            except ValueError:
                raise ParseError("row line must list column indices", line=n) from None
            if not (all(map(lt, idx, idx[1:])) and 0 <= idx[0] and idx[-1] < ncols):
                # only a refused row is sorted: an index out of range is
                # reported before the order
                ascending = sorted(set(idx))
                if ascending[0] < 0 or ascending[-1] >= ncols:
                    raise ParseError("column index out of range", line=n)
                raise ParseError("column indices must be strictly ascending", line=n)
            rows.append(idx)
        # the rows are checked above, so only the labels and the columns remain
        if len(set(row_labels)) != nrows:
            raise ParseError("duplicate row labels")
        if len(set(col_labels)) != ncols:
            raise ParseError("duplicate column labels")
        cols = _other_axis(rows, ncols)
        # one column at a time, so no column is held as a list and a tuple
        for j, c in enumerate(cols):
            cols[j] = tuple(c)
        try:
            return cls._build(row_labels, col_labels, rows, cols)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc


def _lines(text):
    """(line number, line) for each line of `text` that is not a comment,
    blank lines included: the one reader of the three text formats.  Lines
    are numbered from 1, comments included, and a comment is a line whose
    first non-blank character is `#`."""
    return ((n, raw) for n, raw in enumerate(text.splitlines(), 1)
            if not raw.lstrip().startswith("#"))


def _tokens(labels):
    """Each of `labels` as a text token, the one rule of the writers: a
    label that is empty, holds whitespace or starts with `#` would not read
    back as itself, so ValueError is raised for it."""
    tokens = list(map(str, labels))
    for t in tokens:
        if not t or t.split() != [t] or t.startswith("#"):
            raise ValueError(f"label {t!r} cannot be written as a text token")
    return tokens


def _counts(words, n):
    """The decimal words of line n as ints; int() refuses more than 4300
    digits, and so does this, naming the line."""
    try:
        return [int(w) for w in words]
    except ValueError:
        raise ParseError("count has too many digits", line=n) from None


def _freeze(r, cols=None):
    """The live rows and columns of r, a relation or a draft, renumbered in
    ascending index order, as a Relation; r is left unchanged.

    With column ids `cols`, only the live ones among them and the rows that
    meet them.
    """
    keep = [c for c in (range(len(r.cols)) if cols is None else sorted(cols)) if r.cols[c]]
    # a live column holds only live rows, and every live row meets a live column
    rows = sorted(set().union(*[r.cols[c] for c in keep]))
    col_pos = {c: k for k, c in enumerate(keep)}
    row_pos = {i: k for k, i in enumerate(rows)}
    return Relation._build(
        [r.row_labels[i] for i in rows], [r.col_labels[c] for c in keep],
        [sorted(col_pos[c] for c in r.rows[i] if c in col_pos) for i in rows],
        [sorted(map(row_pos.__getitem__, r.cols[c])) for c in keep])


@dataclass(slots=True)
class _Draft:
    """Mutable incidence over stable indices: one set of row ids per column
    and one tuple of column ids per row.

    `_Draft.of` makes a draft of a relation, which shares the relation's
    row tuples.  A row is never edited in place: the reducer's merge
    (`reducer._merge`), the one edit that changes a live row, replaces the
    tuple of each row it edits, so every row of the draft stays a tuple.
    Columns are always sets: every merge edits its union's columns.

    A dead member keeps its index with the shared empty set, and a new row
    takes the next index, so edits never renumber anything; `freeze`,
    which is `_freeze`, renumbers the live members once.  The merge is also
    the one edit that adds a row: it appends the cone row and its label
    and, in one pass over the cone row's columns, takes the merged pair out
    of each and puts the cone row in.  `Relation.remove_rows` drops rows
    with `_drop`, which edits only column sets.  `collapse.collapse_core`
    builds its draft with set rows itself, since the fixpoint's
    `_dominated` tests containment with `<=`, which orders tuples.
    """

    row_labels: list
    col_labels: tuple
    rows: list
    cols: list

    @classmethod
    def of(cls, r):
        """A draft of the whole of the relation r, sharing its row tuples;
        only its labels and its two orientations are read, and r is left
        unchanged."""
        return cls(list(r.row_labels), r.col_labels, list(r.rows), [set(c) for c in r.cols])

    freeze = _freeze


@dataclass(frozen=True)
class SubRelation:
    """A relation restricted to a column subset, with empty rows dropped.

    `relation` holds the local incidence (parent labels preserved);
    `parent_rows` / `parent_cols` map local indices back to the parent.
    """

    parent_rows: tuple
    parent_cols: tuple
    relation: Relation


def _maximal(cols, n):
    """Ascending positions of the toplexes to keep among `cols`, ascending
    index tuples over n vertices: the earliest of equal ones, and none that
    is strictly contained in another.  A relation's own `cols` and `nrows`
    serve as well, which is how its column clean-up and its test run.

    Exact duplicates go in one dict pass.  After that, a toplex can only be
    strictly contained in a larger one, so only the toplexes smaller than
    the largest are tested, and the per-toplex and per-vertex sets are built
    only when there are such toplexes.
    """
    # the last value stored for a key, walking backwards, is its earliest position
    first = dict(zip(reversed(cols), range(len(cols) - 1, -1, -1)))
    keep = range(len(cols)) if len(first) == len(cols) else sorted(first.values())
    largest = max(map(len, cols), default=0)
    if min(map(len, cols), default=0) == largest:
        return keep
    todo = [j for j in keep if len(cols[j]) < largest]
    live = set(keep)
    _exhaust(live, [set(col) for col in cols],
             [set(row) for row in _other_axis(cols, n)], todo)
    return sorted(live)


def _normalise_toplexes(toplexes):
    """Vertex order, kept toplexes and their ascending vertex-index tuples,
    from a ToplexList or an iterable of vertex-name collections; the one
    place where vertex names are numbered and checked.

    A ToplexList is returned as it stands.  Otherwise names are numbered in
    one pass, in first-appearance order, and each toplex is checked as it
    is read: it must be non-empty and repeat no vertex.  `_maximal` then
    drops duplicate and set-contained toplexes, keeping the earliest; the
    vertex order still holds the vertices of dropped ones, each of which
    lies in a kept toplex.
    """
    cols = getattr(toplexes, "vertex_indices", None)
    if cols is not None:
        return toplexes.vertex_names, toplexes.toplexes, cols
    index = {}
    tops, cols = [], []
    for t in toplexes:
        t = tuple(t)
        if not t:
            raise ValueError("empty toplex")
        col = sorted([index.setdefault(v, len(index)) for v in t])
        if len(set(col)) != len(t):
            raise ValueError(f"toplex {t!r} repeats a vertex")
        tops.append(t)
        cols.append(tuple(col))
    keep = _maximal(cols, len(index))
    return tuple(index), tuple([tops[j] for j in keep]), tuple([cols[j] for j in keep])
