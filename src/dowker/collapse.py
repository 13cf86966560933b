"""Row/column domination and the strong-collapse core.

A row is dominated when its column set is contained in another row's; deleting
it does not change the homotopy type of the complex.  Alternating one pass of
row removals and one of column removals (the same scan on the other axis)
until neither removes anything yields the core.  After the first pass on each
axis, a pass re-tests only the members whose sets the pass before it shrank
(`relation._collapse`).  The core and every strong-collapse test, of a whole
relation or of a selection, run that one fixpoint, rows first, from
scratch; the labels the core keeps depend on the order.  A dominated column
is a face of another toplex, so removing it leaves the complex as it is; a
dominated row is a dominated vertex, and removing it is a strong collapse.
So every order of the passes ends at the complex's strong-collapse core,
which is unique up to isomorphism (Barmak & Minian 2012), and gives the same
verdict.

Before the fixpoint, the test tries the rows it is given as apexes, reading
r in place (`_is_apex`): when every selected column without a row w lies,
within the picked rows, in a selected column with w, every maximal column
holds w, and the answer is the cone's True with nothing copied.  The
reducer's pair test goes through `is_strong_collapsible` with the rows in
both stars and the pair itself, and gives the pair as the apexes: on a
torus every union of two stars that a merge follows is a cone on one of
the pair, so only failing tests copy anything.  Why leaving out the rows in
one star only keeps the verdict is stated once, at that call in
`reducer._steps`.  A relation whose
core is 1x1 is strong collapsible, hence contractible; a larger core is
inconclusive.
"""

from .relation import Relation, _collapse, _Draft


def collapse_core(r: Relation) -> Relation:
    """Alternate row and column domination removal to the fixpoint.

    The core has no dominated row and no dominated column, and the same mod-2
    Betti numbers as the input.
    """
    # set rows: `_dominated` tests containment with `<=`, which orders tuples
    draft = _Draft(list(r.row_labels), r.col_labels, list(map(set, r.rows)),
                   list(map(set, r.cols)))
    _collapse(draft.rows, draft.cols, set(range(r.nrows)), set(range(r.ncols)))
    return draft.freeze()


def _is_apex(r, cols, rows, w):
    """Whether row w is an apex of the selection: w is in the row set `rows`
    and in a selected column, and every other selected column's part within
    `rows` lies in a selected column that holds w.  Then a
    column without w lies strictly inside one with w and is not maximal,
    so every maximal column holds w.  A column holding w and such a part
    is strictly longer than the part, so only longer ones are compared.
    Nothing is copied beyond one column's part at a time."""
    if w not in rows:
        return False
    mine = r.rows[w]
    held = [r.cols[c] for c in mine if c in cols]
    for c in cols:
        if c not in mine and (part := rows.intersection(r.cols[c])):
            n = len(part)
            for s in held:
                if len(s) > n and part.issubset(s):
                    break
            else:
                return False
    return bool(held)


def is_strong_collapsible(r, cols=None, rows=None, apexes=()) -> bool:
    """True when the core of r, a relation or a draft, is a single vertex in
    a single toplex.

    With column ids `cols`, the union of the stars on them is tested: only
    their live columns' row sets and those rows' column sets within `cols`
    are copied, keyed by r's own ids, with nothing renumbered.  Without, all
    of r; a draft's dead slots are not part of it.  With a set of row ids
    `rows`, only those rows are copied, which is the full subcomplex on
    them; a column left with none of them goes too.  Without, `rows` is
    every row id of r, which every later step reads.  Each row id in
    `apexes` is tried first, with nothing copied: when every maximal
    selected column holds it (`_is_apex`), the complex is a cone on it and
    the answer is True.  The rest of the test would give the same answer,
    since a cone's core is a single vertex; a row that fails, is not in
    `rows`, or is a dead slot changes nothing.  Otherwise the selected
    columns' row sets, and those rows' column sets within the selection,
    are copied and collapsed rows first from scratch, as `collapse_core`
    does, and the answer is read from the live row and column counts.
    True implies the complex is contractible; False is inconclusive.  r is
    left unchanged.
    """
    if cols is None:
        cols = range(len(r.cols))
    elif cols and not 0 <= min(cols) <= max(cols) < len(r.cols):
        raise ValueError("column index out of range")
    if rows is None:
        rows = set(range(len(r.rows)))
    for w in apexes:
        if _is_apex(r, cols, rows, w):
            return True
    col_sets = {c: s for c in cols if (s := rows.intersection(r.cols[c]))}
    if not col_sets:
        raise ValueError("empty relation")
    cols = set(col_sets)
    rows = set().union(*col_sets.values())
    row_sets = {i: cols.intersection(r.rows[i]) for i in rows}
    # removal keeps every live row and column non-empty, so the live counts
    # are the core's shape
    _collapse(row_sets, col_sets, rows, cols)
    return len(rows) == len(cols) == 1
