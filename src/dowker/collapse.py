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
    draft = _Draft.of(r)
    everything = range(r.nrows)
    for i in everything:
        j = _dominator(draft.rows, draft.cols, i, everything)
        if j is not None:
            return (i, j)
    return None


def _core(r):
    """A draft of r, a relation or a draft, with row and column domination
    removal run to the fixpoint, and its live row and column id sets."""
    draft = _Draft.of(r)
    rows = {i for i, row in enumerate(draft.rows) if row}
    cols = {c for c, col in enumerate(draft.cols) if col}
    while True:
        size = len(rows) + len(cols)
        _exhaust(rows, draft.rows, draft.cols)
        _exhaust(cols, draft.cols, draft.rows)
        if len(rows) + len(cols) == size:
            return draft, rows, cols


def collapse_core(r: Relation) -> Relation:
    """Alternate row and column domination removal to the fixpoint.

    The core has no dominated row and no dominated column, and the same mod-2
    Betti numbers as the input.
    """
    return _core(r)[0].freeze()


def is_strong_collapsible(r) -> bool:
    """True when the core of r, a relation or a draft, is a single vertex in
    a single toplex.

    True implies the complex is contractible; False is inconclusive.  A
    draft's dead slots are not part of it, and r is left unchanged.
    """
    if not r.rows:
        raise ValueError("empty relation")
    # removal keeps every live row and column non-empty, so the live counts
    # are the core's shape
    _, rows, cols = _core(r)
    return len(rows) == len(cols) == 1
