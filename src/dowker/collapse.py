"""Row/column domination and the strong-collapse core.

A row is dominated when its column set is contained in another row's; deleting
it does not change the homotopy type of the complex.  Alternating one pass of
row removals and one of column removals (the same scan on the other axis)
until neither removes anything yields the core.  After the first pass on each
axis, a pass re-tests only the members whose sets the pass before it shrank
(`relation._collapse`); the core, the whole-relation test and the reducer's
pair test all run that one fixpoint.  `collapse_core` starts with the rows,
since the labels it keeps depend on the order.  `is_strong_collapsible`
starts with the columns: in the pair tests on a torus, a first row pass
removes nothing.  Either order gives the same verdict.  A dominated column
is a face of another toplex, so removing it leaves the complex as it is; a
dominated row is a dominated vertex, and removing it is a strong collapse.
So both orders end at the complex's strong-collapse core, which is unique
up to isomorphism (Barmak & Minian 2012).  The pair test goes through
`is_strong_collapsible` with the rows in both stars and the pair itself:
it drops first the rows that lie in one star only, since within the union
such a row lies only in toplexes that hold one of the pair, which
dominates it.  A relation whose core is 1x1 is strong collapsible, hence
contractible; a larger core is inconclusive.
"""

from .relation import Relation, _collapse, _Draft, _dominated, _smallest


def find_dominated_row(r: Relation):
    """First (dominated, dominating) row index pair under the ascending scan.

    The dominated row is the first that `relation._dominated` finds
    dominated, and the dominating one the lowest of its candidates that
    dominates it alone.  Equal rows report the higher index as dominated.
    None when every row is maximal.
    """
    d = _Draft.of(r)
    everything = range(r.nrows)
    for i in everything:
        if _dominated(d.rows, d.cols, i, everything):
            return (i, min(k for k in _smallest(d.cols, d.rows[i])
                           if _dominated(d.rows, d.cols, i, (k,))))
    return None


def collapse_core(r: Relation) -> Relation:
    """Alternate row and column domination removal to the fixpoint.

    The core has no dominated row and no dominated column, and the same mod-2
    Betti numbers as the input.
    """
    draft = _Draft.of(r)
    _collapse(draft.rows, draft.cols, set(range(r.nrows)), set(range(r.ncols)))
    return draft.freeze()


def is_strong_collapsible(r, cols=None, rows=None) -> bool:
    """True when the core of r, a relation or a draft, is a single vertex in
    a single toplex.

    With column ids `cols`, the union of the stars on them is tested: only
    their live columns' row sets and those rows' column sets within `cols`
    are copied, keyed by r's own ids, with nothing renumbered.  Without, all
    of r; a draft's dead slots are not part of it.  With a set of row ids
    `rows`, only those rows are copied, which is the full subcomplex on
    them; a column left with none of them goes too.  The copy is collapsed
    columns first, which gives the verdict rows first would (see the module
    docstring).  True implies the complex is contractible; False is
    inconclusive.  r is left unchanged.
    """
    if cols is None:
        cols = range(len(r.cols))
    elif cols and not 0 <= min(cols) <= max(cols) < len(r.cols):
        raise ValueError("column index out of range")
    keep = set if rows is None else rows.intersection
    col_sets = {c: s for c in cols if (s := keep(r.cols[c]))}
    if not col_sets:
        raise ValueError("empty relation")
    cols = set(col_sets)
    rows = set().union(*col_sets.values())
    row_sets = {i: cols.intersection(r.rows[i]) for i in rows}
    # removal keeps every live row and column non-empty, so the live counts
    # are the core's shape
    _collapse(col_sets, row_sets, cols, rows)
    return len(rows) == len(cols) == 1
