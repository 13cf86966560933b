"""Row/column domination and the strong-collapse core.

A row is dominated when its column set is contained in another row's; deleting
it does not change the homotopy type of the complex.  Alternating one pass of
row removals and one of column removals (the same scan on the other axis)
until neither removes anything yields the core.  A relation whose core is 1x1
is strong collapsible, hence contractible; a larger core is inconclusive.
"""

from .relation import Relation, _dominator, _iter_bits


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


def _exhaust(live_a, masks_a, masks_b):
    """Remove the dominated members of axis a among the bit set `live_a`.

    A removed member's bit is cleared on axis b, so subset tests stay exact
    without compacting indices.  Returns the new live set.
    """
    # a removal clears bits on axis b only, so no earlier member becomes dominated
    for i in _iter_bits(live_a):
        if _dominator(masks_a, masks_b, i, live_a) is not None:
            bit = ~(1 << i)
            live_a &= bit
            for b in _iter_bits(masks_a[i]):
                masks_b[b] &= bit
    return live_a


def collapse_core(r: Relation) -> Relation:
    """Alternate row and column domination removal to the fixpoint.

    The core has no dominated row and no dominated column, and the same mod-2
    Betti numbers as the input.
    """
    row_masks = list(r.row_masks)
    col_masks = list(r.col_masks)
    live_rows, live_cols = (1 << r.nrows) - 1, (1 << r.ncols) - 1
    while True:
        rows = _exhaust(live_rows, row_masks, col_masks)
        cols = _exhaust(live_cols, col_masks, row_masks)
        if rows == live_rows and cols == live_cols:
            break
        live_rows, live_cols = rows, cols
    rows = list(_iter_bits(live_rows))
    col_pos = {c: k for k, c in enumerate(_iter_bits(live_cols))}
    return Relation([r.row_labels[i] for i in rows],
                    [r.col_labels[j] for j in col_pos],
                    [[col_pos[c] for c in _iter_bits(row_masks[i])] for i in rows])


def is_strong_collapsible(r: Relation) -> bool:
    """True when the core is a single vertex in a single toplex.

    True implies the complex is contractible; False is inconclusive.
    """
    if r.nrows == 0:
        raise ValueError("empty relation")
    return collapse_core(r).shape == (1, 1)
