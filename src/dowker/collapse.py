"""Row/column domination and the strong-collapse core.

A row is dominated when its column set is contained in another row's; deleting
it does not change the homotopy type of the complex.  Alternating one pass of
row removals and one of column removals (the same scan on the other axis)
until neither removes anything yields the core.  After the first pass on each
axis, a pass re-tests only the members whose sets the pass before it shrank
(`relation._collapse`); the core, the whole-relation test and the reducer's
pair test all run that one fixpoint.  `collapse_core` and the test of a
whole relation start with the rows, from scratch; the labels the core keeps
depend on the order.  The test of a column selection starts with the
columns, as one scan from the largest column down that keeps the distinct
maximal ones (`relation._keep_maximal`), and goes on rows first from there.
That scan compares each column with every larger kept one, which suits the
few columns of a union of two stars but not a whole relation.  A dominated
column is a face of another toplex, so removing it leaves the complex as it
is; a dominated row is a dominated vertex, and removing it is a strong
collapse.  So both orders end at the complex's strong-collapse core, which
is unique up to isomorphism (Barmak & Minian 2012), and give the same
verdict.  When the maximal columns of a selection share a row, that row
dominates every other one and the core is a single vertex in a single
toplex: the complex is a cone, and the test stops there, before it copies
any row.

Before any of that, the test tries the rows it is given as apexes, reading
r in place (`_is_apex`): when every selected column without a row w lies,
within the picked rows, in a selected column with w, every maximal column
holds w, and the answer is the cone's True with nothing copied.  The
reducer's pair test goes through `is_strong_collapsible` with the rows in
both stars and the pair itself, and gives the pair as the apexes: on a
torus every union of two stars that a merge follows is a cone on one of
the pair, so only failing tests copy anything.  It drops first the rows
that lie in one star only, since within the union such a row lies only in
toplexes that hold one of the pair, which dominates it.  A relation whose
core is 1x1 is strong collapsible, hence contractible; a larger core is
inconclusive.
"""

from .relation import Relation, _collapse, _Draft, _keep_maximal


def collapse_core(r: Relation) -> Relation:
    """Alternate row and column domination removal to the fixpoint.

    The core has no dominated row and no dominated column, and the same mod-2
    Betti numbers as the input.
    """
    draft = _Draft.of(r)
    cols = range(r.ncols)
    _collapse(draft.rows, draft.cols, set(range(r.nrows)), set(cols), set(cols))
    return draft.freeze()


def _is_apex(r, cols, rows, w):
    """Whether row w is an apex of the selection: w is in `rows` (any row
    when None) and in a selected column, and every other selected column's
    part within `rows` lies in a selected column that holds w.  Then a
    column without w lies strictly inside one with w and is not maximal,
    so every maximal column holds w.  A column holding w and such a part
    is strictly longer than the part, so only longer ones are compared.
    Nothing is copied beyond one column's part at a time."""
    if rows is not None and w not in rows:
        return False
    mine = r.rows[w]
    held = [r.cols[c] for c in mine if c in cols]
    keep = set if rows is None else rows.intersection
    for c in cols:
        if c not in mine and (part := keep(r.cols[c])):
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
    them; a column left with none of them goes too.  Each row id in
    `apexes` is tried first, with nothing copied: when every maximal
    selected column holds it (`_is_apex`), the complex is a cone on it and
    the answer is True.  The rest of the test would give the same answer,
    since a cone's core is a single vertex and the kept columns below then
    share that row; a row that fails, is not in `rows`, or is a dead slot
    changes nothing.  Without `cols`, the
    copy is collapsed rows first from scratch, as `collapse_core` does.
    With them, the column pass is `relation._keep_maximal`, one scan of the
    copied columns from the largest down: a column equal to a kept one, or
    contained in a larger kept one, goes.  When the kept columns share a
    row, the copy is a cone and the answer is True, with no row set copied.
    Otherwise the rows' sets within the kept columns are copied and
    collapsed rows first, going on from the column pass rather than
    starting over; this gives the verdict rows first from scratch would
    (see the module docstring).  True implies the complex is contractible;
    False is inconclusive.  r is left unchanged.
    """
    if whole := cols is None:
        cols = range(len(r.cols))
    elif cols and not 0 <= min(cols) <= max(cols) < len(r.cols):
        raise ValueError("column index out of range")
    if any(_is_apex(r, cols, rows, w) for w in apexes):
        return True
    keep = set if rows is None else rows.intersection
    col_sets = {c: s for c in cols if (s := keep(r.cols[c]))}
    if not col_sets:
        raise ValueError("empty relation")
    if whole:
        # the column scan would compare each column with every larger kept
        # one, so a whole relation goes to the fixpoint from scratch
        cols, todo = set(col_sets), set(col_sets)
    else:
        kept = _keep_maximal(col_sets, col_sets)[0]
        # a row in every kept column dominates every other row: a cone
        if frozenset.intersection(*kept):
            return True
        # every kept column is maximal, so the first column pass tests only
        # those the row pass shrinks
        cols, todo = set(kept.values()), set()
    rows = set().union(*map(col_sets.get, cols))
    row_sets = {i: cols.intersection(r.rows[i]) for i in rows}
    # removal keeps every live row and column non-empty, so the live counts
    # are the core's shape
    _collapse(row_sets, col_sets, rows, cols, todo)
    return len(rows) == len(cols) == 1
