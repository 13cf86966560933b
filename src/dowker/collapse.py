"""Row/column domination and the strong-collapse core.

A row is dominated when its column set is contained in another row's; deleting
it does not change the homotopy type of the complex.  Alternating one pass of
row removals and one of column removals (the same scan on the other axis)
until neither removes anything yields the core.  After the first pass on each
axis, a pass re-tests only the members whose sets the pass before it shrank
(`relation._collapse`); the core, the whole-relation test and the reducer's
pair test all run that one fixpoint.  `collapse_core` starts with the rows,
since the labels it keeps depend on the order.  `is_strong_collapsible`
starts with the columns, as one scan from the largest column down that
keeps the distinct maximal ones (`relation._keep_maximal`, which the
reducer's merge runs for its column clean-up too), and goes on rows first
from there.  A dominated column is a face of another toplex, so removing it
leaves the complex as it is; a dominated row is a dominated vertex, and
removing it is a strong collapse.  So both orders end at the complex's
strong-collapse core, which is unique up to isomorphism (Barmak & Minian
2012), and give the same verdict.  When the maximal columns share a row,
that row dominates every other one and the core is a single vertex in a
single toplex: the complex is a cone, and the test stops there, before it
copies any row.  On the reducer's pair tests on a torus, nearly every union
of two stars is such a cone.  The pair test goes through
`is_strong_collapsible` with the rows in both stars and the pair itself:
it drops first the rows that lie in one star only, since within the union
such a row lies only in toplexes that hold one of the pair, which
dominates it.  A relation whose core is 1x1 is strong collapsible, hence
contractible; a larger core is inconclusive.
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


def is_strong_collapsible(r, cols=None, rows=None) -> bool:
    """True when the core of r, a relation or a draft, is a single vertex in
    a single toplex.

    With column ids `cols`, the union of the stars on them is tested: only
    their live columns' row sets and those rows' column sets within `cols`
    are copied, keyed by r's own ids, with nothing renumbered.  Without, all
    of r; a draft's dead slots are not part of it.  With a set of row ids
    `rows`, only those rows are copied, which is the full subcomplex on
    them; a column left with none of them goes too.  The column pass is
    `relation._keep_maximal`, one scan of the copied columns from the
    largest down: a column equal to a kept one, or contained in a larger
    kept one, goes.  When the kept columns share a row, the copy is a cone
    and the answer is True, with no row set copied.  Otherwise the rows'
    sets within the kept columns are copied and collapsed rows first, going
    on from the column pass rather than starting over; this gives the
    verdict rows first from scratch would (see the module docstring).  True
    implies the complex is contractible; False is inconclusive.  r is left
    unchanged.
    """
    if cols is None:
        cols = range(len(r.cols))
    elif cols and not 0 <= min(cols) <= max(cols) < len(r.cols):
        raise ValueError("column index out of range")
    keep = set if rows is None else rows.intersection
    col_sets = {c: s for c in cols if (s := keep(r.cols[c]))}
    if not col_sets:
        raise ValueError("empty relation")
    kept = _keep_maximal(col_sets, col_sets)[0]
    # a row in every kept column dominates every other row: a cone
    if frozenset.intersection(*kept):
        return True
    cols = set(kept.values())
    rows = set().union(*kept)
    row_sets = {i: cols.intersection(r.rows[i]) for i in rows}
    # removal keeps every live row and column non-empty, so the live counts
    # are the core's shape; every kept column is maximal, so the first
    # column pass tests only those the row pass shrinks
    _collapse(row_sets, col_sets, rows, cols, set())
    return len(rows) == len(cols) == 1
