"""Sparse binary relation core: the vertex/toplex incidence matrix.

A relation between row labels (vertices) and column labels (toplexes) is the
single source of truth for a simplicial complex: the simplices of the complex
are exactly the row sets that share a column.  Incidence is stored as bitmasks
in both orientations, so row-side domination scans and column-side clean-up
each run on their natural axis without transposing the whole matrix.

Relation values are immutable once constructed; every operation returns a new
value, which makes sharing across threads safe without locking.  Operations
that remove rows or columns edit a private mutable draft in place and renumber
the survivors once, when the draft is frozen into a new value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError


def _iter_bits(mask):
    """Yield the set bit positions of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(indices):
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _union(masks, indices):
    """OR of masks[i] over `indices`."""
    m = 0
    for i in indices:
        m |= masks[i]
    return m


def _transpose(masks, n):
    """The other orientation of `masks`: bit k of out[b] is bit b of masks[k]."""
    out = [0] * n
    for k, m in enumerate(masks):
        for b in _iter_bits(m):
            out[b] |= 1 << k
    return out


def _supersets(mask, other, within):
    """Members in bit set `within` whose mask contains `mask`.

    `other` is the other orientation of the members' masks, so the answer is
    the AND of `other` over the set bits of `mask`: O(|mask| * n / 64).
    """
    for b in _iter_bits(mask):
        within &= other[b]
    return within


def _dominator(masks, other, i, within):
    """First member of bit set `within` that dominates member i, or None.

    k dominates i when masks[i] is contained in masks[k] and the masks
    differ or k < i (equal masks keep the lowest index).
    """
    m = masks[i]
    for k in _iter_bits(_supersets(m, other, within & ~(1 << i))):
        if k < i or masks[k] != m:
            return k
    return None


def _drop(masks_a, masks_b, i):
    """Remove member i of axis a in place: zero its mask and clear its bit
    on axis b."""
    bit = ~(1 << i)
    for b in _iter_bits(masks_a[i]):
        masks_b[b] &= bit
    masks_a[i] = 0


def _exhaust(live_a, masks_a, masks_b):
    """Remove, in place, the dominated members of axis a among the bit set
    `live_a`, and return the members that survive.

    A member goes away when its mask is strictly contained in another live
    member's, or equals the mask of a lower-indexed one (duplicates keep the
    lowest index).  Members outside `live_a` never dominate.  `masks_b` is the
    other orientation of `masks_a`; removals go through `_drop`, so subset
    tests stay exact without compacting indices.
    """
    # a removal clears bits on axis b only, so no earlier member becomes
    # dominated, and one ascending pass removes what a fixed-set scan would
    for i in _iter_bits(live_a):
        if _dominator(masks_a, masks_b, i, live_a) is not None:
            live_a &= ~(1 << i)
            _drop(masks_a, masks_b, i)
    return live_a


class Relation:
    """Immutable binary incidence between vertices (rows) and toplexes (columns).

    Invariants: labels are unique per axis, the two mask orientations are exact
    transposes, and no row or column is all-zero (the 0x0 relation is the only
    degenerate value allowed).
    """

    __slots__ = ("row_labels", "col_labels", "row_masks", "col_masks")

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
        rows = list(rows)
        if len(rows) != len(row_labels):
            raise ValueError("row count does not match row label count")
        ncols = len(col_labels)
        row_masks = []
        for label, cols in zip(row_labels, rows):
            m = 0
            for c in cols:
                if not 0 <= c < ncols:
                    raise ValueError(f"column index {c} out of range in row {label!r}")
                m |= 1 << c
            row_masks.append(m)
        self._set(row_labels, col_labels, row_masks)

    @classmethod
    def _build(cls, row_labels, col_labels, row_masks):
        """Trusted constructor from row masks; re-derives the column masks."""
        self = object.__new__(cls)
        self._set(row_labels, col_labels, row_masks)
        return self

    def _set(self, row_labels, col_labels, row_masks):
        """Store labels and row masks, derive the column masks, and reject
        empty rows and columns."""
        self.row_labels = tuple(row_labels)
        self.col_labels = tuple(col_labels)
        self.row_masks = tuple(row_masks)
        for label, m in zip(self.row_labels, self.row_masks):
            if m == 0:
                raise ValueError(f"row {label!r} has no incident column")
        self.col_masks = tuple(_transpose(self.row_masks, len(self.col_labels)))
        for label, m in zip(self.col_labels, self.col_masks):
            if m == 0:
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
        return tuple(_iter_bits(self.row_masks[i]))

    def col(self, j):
        """Ascending row indices incident to column j."""
        return tuple(_iter_bits(self.col_masks[j]))

    def row_index(self, label):
        try:
            return self.row_labels.index(label)
        except ValueError:
            raise ValueError(f"unknown row label {label!r}") from None

    def to_dense(self):
        return [[(m >> j) & 1 for j in range(self.ncols)] for m in self.row_masks]

    def toplexes(self):
        """Per-column vertex label tuples (ascending row index).

        On a column-irreducible relation these are exactly the toplexes of
        the complex, one per column.
        """
        return [tuple(self.row_labels[i] for i in _iter_bits(m)) for m in self.col_masks]

    def __eq__(self, other):
        if not isinstance(other, Relation):
            return NotImplemented
        return (self.row_labels == other.row_labels
                and self.col_labels == other.col_labels
                and self.row_masks == other.row_masks)

    def __hash__(self):
        return hash((self.row_labels, self.col_labels, self.row_masks))

    def __repr__(self):
        return f"Relation({self.nrows}x{self.ncols})"

    # ------------------------------------------------------------------
    # construction from complexes

    @classmethod
    def from_toplexes(cls, toplexes):
        """Relation whose complex equals the complex generated by `toplexes`.

        Accepts a ToplexList or any iterable of vertex-name collections.
        Rows are the vertices (input vertex order when the argument carries
        one, first-appearance order otherwise); columns are the maximal input
        toplexes.  Duplicate and set-contained toplexes are dropped, keeping
        the earliest occurrence, so the result is column irreducible.
        """
        col_masks = getattr(toplexes, "masks", None)
        if col_masks is None:
            order, _, col_masks = _maximal_toplexes(toplexes)
        else:
            # a ToplexList was normalised when it was built
            order = toplexes.vertex_names
        row_masks = _transpose(col_masks, len(order))
        for label, m in zip(order, row_masks):
            if m == 0:
                raise ValueError(f"vertex {label!r} belongs to no toplex")
        col_labels = [f"t{j}" for j in range(len(col_masks))]
        return cls._build(order, col_labels, row_masks)

    # ------------------------------------------------------------------
    # operations

    def restrict_to_columns(self, cols):
        """Sub-relation on the given columns, with now-empty rows dropped.

        When `cols` is the union of the column sets of a vertex set A, the
        complex of the result is exactly the union of the closed stars of A.
        """
        cols = sorted(set(cols))
        if not cols:
            raise ValueError("empty column selection")
        if cols[0] < 0 or cols[-1] >= self.ncols:
            raise ValueError("column index out of range")
        return SubRelation(tuple(_iter_bits(_union(self.col_masks, cols))), tuple(cols),
                           _Draft(self).freeze(_mask_of(cols)))

    def add_row(self, label, cols):
        """New relation with a row appended at the end (highest index)."""
        if label in self.row_labels:
            raise ValueError(f"duplicate row label {label!r}")
        mask = 0
        for c in cols:
            if not 0 <= c < self.ncols:
                raise ValueError(f"column index {c} out of range")
            mask |= 1 << c
        if mask == 0:
            raise ValueError("new row needs at least one column")
        return Relation._build(self.row_labels + (label,), self.col_labels,
                               self.row_masks + (mask,))

    def remove_rows(self, labels):
        """New relation without the given rows.

        Columns left with no incident row are removed together with their
        labels; the remaining indexing is compacted preserving order.
        """
        drop = {self.row_index(l) for l in labels}
        if not drop:
            return self
        draft = _Draft(self)
        for i in drop:
            _drop(draft.row_masks, draft.col_masks, i)
        return draft.freeze()

    def transpose(self):
        """Rows and columns swapped; an involution."""
        if self.nrows == 0:
            return self
        return Relation._build(self.col_labels, self.row_labels, self.col_masks)

    def make_column_irreducible(self, restrict_to=None):
        """Remove columns whose row set is contained in another's.

        With `restrict_to` given, only pairs with both members inside that
        column set are compared (enough to restore irreducibility after a
        pair merge); without it the result is fully column irreducible.
        Exact duplicates keep the lowest column index.
        """
        candidates = range(self.ncols) if restrict_to is None else sorted(set(restrict_to))
        if candidates and (candidates[0] < 0 or candidates[-1] >= self.ncols):
            raise ValueError("column index out of range")
        draft = _Draft(self)
        _exhaust(_mask_of(candidates), draft.col_masks, draft.row_masks)
        return draft.freeze()

    def is_column_irreducible(self):
        everything = (1 << self.ncols) - 1
        return all(_supersets(m, self.row_masks, everything) == 1 << j
                   for j, m in enumerate(self.col_masks))

    # ------------------------------------------------------------------
    # text format

    def to_text(self):
        """Serialize to the relation text format (bit-exact round trip).

        Line 1: `<rows> <cols>`; line 2: row labels; line 3: column labels;
        then one line per row with the ascending column indices of its ones.
        """
        tokens = [str(l) for l in self.row_labels + self.col_labels]
        for t in tokens:
            if not t or t.split() != [t] or t.startswith("#"):
                raise ValueError(f"label {t!r} cannot be written as a text token")
        out = [f"{self.nrows} {self.ncols}",
               " ".join(str(l) for l in self.row_labels),
               " ".join(str(l) for l in self.col_labels)]
        for m in self.row_masks:
            out.append(" ".join(str(c) for c in _iter_bits(m)))
        return "\n".join(out) + "\n"

    @classmethod
    def from_text(cls, text):
        """Parse the relation text format; `#` lines are comments.

        An empty body line would be an empty row and is rejected.
        """
        lines = [(n, raw) for n, raw in enumerate(text.splitlines(), 1)
                 if not raw.lstrip().startswith("#")]
        if len(lines) < 3:
            raise ParseError("expected a size line and two label lines")
        n_size, size_line = lines[0]
        parts = size_line.split()
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise ParseError("size line must be '<rows> <cols>'", line=n_size)
        nrows, ncols = int(parts[0]), int(parts[1])
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
                idx = [int(t) for t in raw.split()]
            except ValueError:
                raise ParseError("row line must list column indices", line=n) from None
            if any(not 0 <= c < ncols for c in idx):
                raise ParseError("column index out of range", line=n)
            if idx != sorted(set(idx)):
                raise ParseError("column indices must be strictly ascending", line=n)
            rows.append(idx)
        try:
            return cls(row_labels, col_labels, rows)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc


class _Draft:
    """Mutable copy of a relation's incidence over stable indices.

    A member dropped with `_drop` keeps its index with a zero mask, and a
    new row takes the next index, so edits never renumber anything;
    `freeze` renumbers the live members once.
    """

    __slots__ = ("row_labels", "col_labels", "row_masks", "col_masks")

    def __init__(self, r):
        self.row_labels = list(r.row_labels)
        self.col_labels = r.col_labels
        self.row_masks = list(r.row_masks)
        self.col_masks = list(r.col_masks)

    def add_row(self, label, mask):
        """Append a row with column bit set `mask`; returns its index."""
        k = len(self.row_masks)
        for c in _iter_bits(mask):
            self.col_masks[c] |= 1 << k
        self.row_labels.append(label)
        self.row_masks.append(mask)
        return k

    def freeze(self, cols=None):
        """The live rows and columns, renumbered in ascending index order, as
        a Relation.

        With a column bit set `cols`, only those columns and the rows that
        meet them; for the union of some rows' columns, that is the union of
        their closed stars.
        """
        live = range(len(self.col_masks)) if cols is None else _iter_bits(cols)
        keep = [c for c in live if self.col_masks[c]]
        rows = list(_iter_bits(_union(self.col_masks, keep)))
        kept = _mask_of(keep)
        pos = {c: k for k, c in enumerate(keep)}
        return Relation._build(
            [self.row_labels[i] for i in rows], [self.col_labels[c] for c in keep],
            [_mask_of(pos[c] for c in _iter_bits(self.row_masks[i] & kept)) for i in rows])


@dataclass(frozen=True)
class SubRelation:
    """A relation restricted to a column subset, with empty rows dropped.

    `relation` holds the local incidence (parent labels preserved);
    `parent_rows` / `parent_cols` map local indices back to the parent.
    """

    parent_rows: tuple
    parent_cols: tuple
    relation: Relation


def _toplex_name_sets(toplexes, order=None):
    """Vertex order and per-toplex name tuples from a ToplexList or iterable.

    An iterable takes the explicit `order` if given, first-appearance order
    otherwise.
    """
    members = getattr(toplexes, "toplexes", None)
    order = getattr(toplexes, "vertex_names", order)
    if members is None:
        members = list(toplexes)
    tops = [tuple(t) for t in members]
    for t in tops:
        if not t:
            raise ValueError("empty toplex")
        if len(set(t)) != len(t):
            raise ValueError(f"toplex {t!r} repeats a vertex")
    if order is None:
        seen = {}
        for t in tops:
            for v in t:
                seen.setdefault(v, None)
        order = tuple(seen)
    else:
        order = tuple(order)
        if len(set(order)) != len(order):
            raise ValueError("duplicate vertex names")
        missing = {v for t in tops for v in t} - set(order)
        if missing:
            raise ValueError(f"toplex vertices missing from vertex order: {missing}")
    return order, tops


def _maximal_toplexes(toplexes, order=None):
    """`_toplex_name_sets` without duplicate and set-contained toplexes.

    The earliest occurrence is kept.  Also returns each kept toplex's vertex
    mask.
    """
    order, tops = _toplex_name_sets(toplexes, order)
    index = {v: i for i, v in enumerate(order)}
    masks = [_mask_of(index[v] for v in t) for t in tops]
    # _exhaust zeroes the mask of every toplex it drops
    _exhaust((1 << len(masks)) - 1, masks, _transpose(masks, len(order)))
    return order, [t for t, m in zip(tops, masks) if m], [m for m in masks if m]
