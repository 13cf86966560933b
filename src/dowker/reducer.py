"""Single-pass pair-merge reduction of a relation.

The driver walks the rows once with a cursor.  For the cursor row it orders
candidate partners (rows sharing a column first, then rows two column-hops
away, ascending index within each class), tests whether the union of the two
closed stars collapses to a point, and on the first success replaces the pair
by one fresh cone vertex whose row is the union of the two rows.  Columns
that became duplicated or absorbed by the merge are cleaned up immediately;
only the new row's columns can be affected, and only by each other, so the
clean-up is one scan of those columns for the maximal ones, the scan the
pair test runs on its copy (`relation._keep_maximal`).  Each step removes
two rows and adds one, preserving the mod-2 Betti numbers whenever the
tested subcomplex really was contractible.

All of this edits one mutable working draft.  The pass is a stream,
`_steps`: it merges pairs on the draft in place and yields each step's report
once its merge is applied; `reduce` runs it to the end and builds one
relation, the result.  Each input row's star rows are listed once, for the
comparison budget and the starting star sizes.  Each cursor row's star rows
and each partner's are built once per visit and shared by the pair test and
the merge, and the two-hop partners are listed only once every one-hop test
has failed.  The pair test copies, keyed by the draft's own ids, the two
rows' columns restricted to the rows in both stars and the pair itself: a
row in one star alone is dominated by one of the pair there, and since a
strong-collapse core is unique up to isomorphism, leaving it out first does
not change the verdict.  It keeps the maximal columns with the same scan,
and when they share a row, a cone, as in nearly every test on a surface, it
answers without copying a row; only otherwise does it collapse the copy.

`reduce` makes one pass and does not revisit pairs: rows the cursor has
passed are never reconsidered, even though a later merge can make a pair that
failed (or was never tested) contractible, so a second `reduce` on the result
may shrink it further.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .collapse import is_strong_collapsible
from .relation import Relation, _Draft, _drop, _keep_maximal

_Z_LABEL = re.compile(r"^z([0-9]+)$")


@dataclass(frozen=True)
class StepReport:
    """Bookkeeping for one pair merge.

    `delta_z` is the vertex count of the whole union of the merged rows'
    closed stars, `len(star_i | star_j)`; the pair test copies only the
    rows in both stars and the pair itself, so it is not the row count of
    the tested submatrix.  `epsilon_z` is the toplex count
    of the new vertex's star after clean-up.  `faces_absorbed` counts columns
    removed because the merge turned them into a face of another toplex,
    `duplicates_merged` columns removed because two toplexes became the same
    one; together they account exactly for the column count drop.
    """

    pair: tuple
    z_label: str
    faces_absorbed: int
    duplicates_merged: int
    delta_z: int
    epsilon_z: int
    cols_before: int
    cols_after: int


@dataclass
class ReductionStats:
    """Per-run counters and size tracking.

    `_steps` records each pair test and history entry as it happens, and
    `reduce` fills in the rest once the stream ends.  `comparison_budget` is
    the pair-test bound computed on the input; `delta_max_history` /
    `epsilon_max_history` sample the largest star vertex/toplex count over
    live vertices, once before any step and once after each step.  The
    starting counts come from the star rows `reduce` lists once per input
    row.  After that they are kept per merge by the step equations, which
    the test suite audits against a recount for every step: the cone row's
    counts come from the StepReport, a row whose star held both merged rows
    loses one star vertex, a row the clean-up removed columns from keeps the
    size of its own column set, and no other count changes, so no star is
    recounted.
    """

    rows_before: int = 0
    cols_before: int = 0
    rows_after: int = 0
    cols_after: int = 0
    steps_applied: int = 0
    contractibility_tests: int = 0
    comparison_budget: int = 0
    delta_max_seen: int = 0
    epsilon_max_seen: int = 0
    delta_max_history: list = field(default_factory=list)
    epsilon_max_history: list = field(default_factory=list)
    tested_pairs: list = field(default_factory=list)


def _star_rows(r, i):
    """Rows sharing at least one column with row i (includes i), as a set."""
    return set().union(*[r.cols[c] for c in r.rows[i]])


def _two_hop_rows(r, one):
    """Rows sharing a column with a row in the set `one`; for the star rows
    of row i, the rows within two column hops of i."""
    cols = set().union(*[r.rows[i] for i in one])
    return set().union(*[r.cols[c] for c in cols])


def _partners(r, x, one):
    """Merge partners for row x, whose star rows are `one`, in test order,
    as a generator.

    Rows of `one` with index greater than x come first, then the other such
    rows two column hops away; ascending index within each class.  The
    two-hop rows are listed only when the next partner is asked for after
    the last one-hop row, so a stream that merges with a one-hop partner
    never lists them.
    """
    yield from sorted([i for i in one if i > x])
    yield from sorted([i for i in _two_hop_rows(r, one) - one if i > x])


def candidate_vertices(r: Relation, x: int):
    """Merge partners for row x, in test order.

    All rows with index greater than x whose closed star meets the closed
    star of x, rows sharing a column with x first, then the remaining
    two-hop rows; ascending index within each class.  This is the list of
    what `_partners` yields from the star rows of x.
    """
    if not 0 <= x < len(r.rows):
        raise ValueError("row index out of range")
    return list(_partners(r, x, _star_rows(r, x)))


def _pair_collapsible(d, x, y, sx, sy):
    """Whether the union of the closed stars of rows x and y of draft `d`,
    whose star rows are `sx` and `sy`, is strong collapsible; `d` is left
    unchanged.

    `is_strong_collapsible` tests the columns of x and y with only the rows
    in both stars, and x and y, kept.  A row in the star of x alone lies,
    within the union, only in columns that hold x, so x dominates it (and
    likewise for y); a strong-collapse core is unique up to isomorphism, so
    dropping those rows first gives the verdict of the whole union.  When
    the maximal columns of what is left share a row, the union is a cone
    and the test ends there; only otherwise are rows copied and collapsed.
    """
    return is_strong_collapsible(d, d.rows[x] | d.rows[y], (sx & sy) | {x, y})


def _budget(stars):
    """Half the sum over rows of their two-hop neighbor counts, from the
    star rows `stars[i]` of each row i: the rows within two column hops of
    row i are the union of the stars of its star rows."""
    return sum(len(set().union(*[stars[k] for k in s])) - 1 for s in stars) // 2


def _stars(r):
    """The star rows of every row of the relation r, as lists.

    Lists, not tuples: CPython keeps freed tuples of up to 19 items on a
    free list, which would hold their memory after `reduce` drops them."""
    return [list(_star_rows(r, i)) for i in range(r.nrows)]


def comparison_budget(r: Relation) -> int:
    """Bound on pair tests: half the sum over vertices of their two-hop
    neighbor counts, read from every row's star rows."""
    return _budget(_stars(r))


def _successor(digits):
    """The decimal digits of n + 1, where `digits` are those of n >= 0 with
    no leading zero ("" for 0), worked out on the string: `int` refuses to
    convert long digit strings."""
    head = digits.rstrip("9")
    carried = "0" * (len(digits) - len(head))
    return (head[:-1] + chr(ord(head[-1]) + 1) if head else "1") + carried


def _fresh_z(labels):
    """The decimal digits of the lowest n above every label of the form
    z<n>, n in ASCII digits, so z<n> is fresh; with no leading zeros, a
    longer digit string is the larger number."""
    found = (_Z_LABEL.match(str(l)) for l in labels)
    digits = [m.group(1).lstrip("0") for m in found if m]
    return _successor(max(digits, key=lambda d: (len(d), d))) if digits else "0"


def _merge(d, xi, xj, star_i, star_j, z, ncols):
    """Replace rows xi and xj of draft `d`, whose star rows are `star_i` and
    `star_j`, by the cone row `z`, in place.

    The cone row takes the next index and the union of the two rows'
    columns.  Columns among those that the merge made dominated are dropped;
    nothing else can be affected.  `ncols` is the draft's live column count
    before the merge.  Returns the step's StepReport, the rows other than the
    pair in both merged rows' stars, and the set of rows other than the cone
    row that the clean-up removed a column from.

    The clean-up is the pair test's column scan, `_keep_maximal`, on the
    cone row's columns in ascending order.  On a column-irreducible draft
    that is enough: a column without the cone row is unchanged, so it lies
    in no other, and a column with it lies only in columns with it.  Of
    equal columns the lowest id stays.
    """
    union = d.rows[xi] | d.rows[xj]
    pair = (d.row_labels[xi], d.row_labels[xj])
    _drop(d.rows, d.cols, xi)
    _drop(d.rows, d.cols, xj)
    zi = d.add_row(z, union)
    _, faces, dups = _keep_maximal(sorted(union), d.cols)
    gone = [_drop(d.cols, d.rows, c) for c in faces + dups]
    rep = StepReport(pair=pair, z_label=z,
                     faces_absorbed=len(faces), duplicates_merged=len(dups),
                     delta_z=len(star_i | star_j), epsilon_z=len(d.rows[zi]),
                     cols_before=ncols, cols_after=ncols - len(gone))
    return rep, (star_i & star_j) - {xi, xj}, set().union(*gone) - {zi}


def reduction_step(r: Relation, xi: int, xj: int):
    """Merge rows xi and xj into a fresh cone row appended at the end.

    The caller must already have verified that the union of the two closed
    stars is strong collapsible; this function does not re-test it, and
    applying it to a non-contractible union silently breaks the homotopy
    guarantee.  Requires a column-irreducible input for the scoped clean-up
    to restore full irreducibility.
    """
    if not (0 <= xi < r.nrows and 0 <= xj < r.nrows):
        raise ValueError("row index out of range")
    if xi == xj:
        raise ValueError("need two distinct rows")
    d = _Draft.of(r)
    report = _merge(d, xi, xj, _star_rows(d, xi), _star_rows(d, xj),
                    f"z{_fresh_z(r.row_labels)}", r.ncols)[0]
    return d.freeze(), report


class _RunningMax:
    """The maximum of a per-slot value list under point updates.

    `count[v]` is the number of slots holding v.  `top` rises to a larger
    value at once and, only when no slot holds it any more, walks down past
    values that no slot holds, so no update rescans the slots.
    """

    def __init__(self, values):
        self.values = list(values)
        self.count = [0] * (max(self.values, default=0) + 1)
        for v in self.values:
            self.count[v] += 1
        self.top = len(self.count) - 1

    def set(self, k, v):
        """Give slot k the value v; k may be the next new slot."""
        values, count = self.values, self.count
        if k == len(values):
            values.append(0)
            count[0] += 1
        old = values[k]
        count[old] -= 1
        if v >= len(count):
            count.extend([0] * (v + 1 - len(count)))
        count[v] += 1
        values[k] = v
        if v > self.top:
            self.top = v
        elif old == self.top and not count[old]:
            top = old
            while top and not count[top]:
                top -= 1
            self.top = top


def _steps(d, stats, sizes=None):
    """Merge pairs of the draft `d` in place, in one pass of the cursor,
    and yield each merge's StepReport once it is applied.

    The cursor walks the slots in ascending order.  At a live slot it builds
    the cursor row's star rows once and tests the partners `_partners` gives
    in turn, building each partner's star rows once; the pair test and the
    merge both use those two sets.  On the first success the pair is merged,
    which leaves the cursor's slot dead, and the cursor moves on, as it does
    when every test fails; a dead slot is passed over, and a cone row is
    processed when the cursor reaches it.  Each test and each star-size
    maximum goes into `stats` as it happens.  `sizes` gives each slot's star
    row count at the start, as `reduce` has them from its star pass; without
    it the pass counts them on the draft, so it can run again on a draft an
    earlier pass left, dead slots and all.
    """
    # star vertex and toplex count per slot; a dead slot counts 0
    if sizes is None:
        sizes = [len(_star_rows(d, i)) for i in range(len(d.rows))]
    delta = _RunningMax(sizes)
    epsilon = _RunningMax(map(len, d.rows))
    stats.delta_max_history.append(delta.top)
    stats.epsilon_max_history.append(epsilon.top)
    ncols = sum(1 for c in d.cols if c)
    # a dead slot's label is below the last cone label, which is live, and
    # the last cone label always survives into the next step, so counting
    # up gives the labels a fresh scan of the live row labels would
    z = _fresh_z(d.row_labels)
    cursor = 0
    while cursor < len(d.rows):
        if d.rows[cursor]:
            sx = _star_rows(d, cursor)
            for j in _partners(d, cursor, sx):
                sy = _star_rows(d, j)
                ok = _pair_collapsible(d, cursor, j, sx, sy)
                stats.contractibility_tests += 1
                stats.tested_pairs.append((d.row_labels[cursor], d.row_labels[j], ok))
                if not ok:
                    continue
                rep, both, lost = _merge(d, cursor, j, sx, sy, f"z{z}", ncols)
                z = _successor(z)
                ncols = rep.cols_after
                for k in (cursor, j):
                    delta.set(k, 0)
                    epsilon.set(k, 0)
                # the step equations: the cone row's counts are the report's,
                # a row whose star held both merged rows loses one star
                # vertex, a row that lost columns to the clean-up holds the
                # rest, and no other count changes
                delta.set(len(d.rows) - 1, rep.delta_z - 1)
                epsilon.set(len(d.rows) - 1, rep.epsilon_z)
                for k in both:
                    delta.set(k, delta.values[k] - 1)
                for k in lost:
                    epsilon.set(k, len(d.rows[k]))
                stats.delta_max_history.append(delta.top)
                stats.epsilon_max_history.append(epsilon.top)
                yield rep
                break
        cursor += 1


def reduce(r: Relation):
    """Run the single-pass reduction to exhaustion.

    Returns (reduced relation, ReductionStats, list of StepReport).  The
    input must be column irreducible.  Each input row's star rows are
    listed once, on r; the comparison budget and the stream's starting star
    sizes both come from that list, which is dropped before the stream
    starts.  `_steps` merges pairs on one mutable draft of r, whose indices
    stay fixed: a merged row's slot goes dead and the cone row takes a new
    slot at the tail, and each pair's union of closed stars is collapsed
    from a copy of those stars alone, under the draft's ids.  The draft is
    frozen once, into the one relation a run builds.
    """
    stars = _stars(r)
    stats = ReductionStats(rows_before=r.nrows, cols_before=r.ncols,
                           comparison_budget=_budget(stars))
    sizes = list(map(len, stars))
    del stars
    d = _Draft.of(r)
    log = list(_steps(d, stats, sizes))
    cur = d.freeze()
    stats.rows_after, stats.cols_after = cur.shape
    stats.steps_applied = len(log)
    stats.delta_max_seen = max(stats.delta_max_history)
    stats.epsilon_max_seen = max(stats.epsilon_max_history)
    return cur, stats, log


def format_step_log(reports) -> str:
    """Line-oriented step log, one line per merge."""
    lines = [f"STEP {n}: merge {rep.pair[0]} {rep.pair[1]} -> {rep.z_label} "
             f"cols {rep.cols_before}->{rep.cols_after} "
             f"dup {rep.duplicates_merged} face {rep.faces_absorbed}"
             for n, rep in enumerate(reports, 1)]
    return "".join(line + "\n" for line in lines)
