"""Row/column domination and the strong-collapse core.

A row is dominated when its column set is contained in another row's; deleting
it does not change the homotopy type of the complex.  Alternating one pass of
row removals and one of column removals (the same scan on the other axis)
until neither removes anything yields the core.  A relation whose core is 1x1
is strong collapsible, hence contractible; a larger core is inconclusive.
"""

from .relation import Relation, _Draft, _dominator, _exhaust


def find_dominated_row(r: Relation):
    """First (dominated, dominating) row index pair under the ascending scan.

    Equal rows report the higher index as dominated.  None when every row is
    maximal.
    """
    everything = (1 << r.nrows) - 1
    for i in range(r.nrows):
        j = _dominator(r.row_masks, r.col_masks, i, everything)
        if j is not None:
            return (i, j)
    return None


def collapse_core(r: Relation) -> Relation:
    """Alternate row and column domination removal to the fixpoint.

    The core has no dominated row and no dominated column, and the same mod-2
    Betti numbers as the input.
    """
    draft = _Draft(r)
    live_rows, live_cols = (1 << r.nrows) - 1, (1 << r.ncols) - 1
    while True:
        rows = _exhaust(live_rows, draft.row_masks, draft.col_masks)
        cols = _exhaust(live_cols, draft.col_masks, draft.row_masks)
        if rows == live_rows and cols == live_cols:
            return draft.freeze()
        live_rows, live_cols = rows, cols


def is_strong_collapsible(r: Relation) -> bool:
    """True when the core is a single vertex in a single toplex.

    True implies the complex is contractible; False is inconclusive.
    """
    if r.nrows == 0:
        raise ValueError("empty relation")
    return collapse_core(r).shape == (1, 1)
