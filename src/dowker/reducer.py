"""Single-pass pair-merge reduction of a relation.

The driver walks the rows once with a cursor.  For the cursor row it orders
candidate partners (rows sharing a column first, then rows two column-hops
away, ascending index within each class), tests whether the union of the two
closed stars collapses to a point, and on the first success replaces the pair
by one fresh cone vertex whose row is the union of the two rows.  Columns
that became duplicated or absorbed by the merge are cleaned up immediately;
only the new row's columns can be affected, only by each other, and only
those whose other rows lie in both merged rows' stars, so the clean-up
compares each of those few with the new row's columns in one pass
(`_absorbed`).  Each step removes two rows and adds one, preserving the
mod-2 Betti numbers whenever the tested subcomplex really was contractible.

All of this edits one mutable working draft, which starts from the input's
row tuples and keeps every row a tuple (`relation._Draft`); a merge changes
only the rows the step equations name (`ReductionStats`).  The pass is a
stream, `_steps`: it merges pairs on the draft in place and yields each
step's report once its merge is applied; `reduce` runs it to the end and
builds one relation, the result.  Each input row's star rows are listed once, for the
comparison budget and the starting star sizes.  Each cursor row's star rows
and each partner's are built once per visit, and each test builds the
pair's column union and the rows in both stars once; the pair test and the
merge share them all.  The two-hop partners are listed only once every
one-hop test has failed.  The pair test is one `is_strong_collapsible` call
on the draft's own ids: the two rows' columns restricted to the rows in both
stars and the pair itself (why that keeps the verdict is stated at the call,
in `_steps`).  It first tries x and y as the apex of a cone, reading the
draft in place, which answers every test that a merge follows on a torus
with nothing copied; otherwise it copies those columns and collapses the
copy.  A verdict depends only on the union of the pair's columns, and the
draft changes only at the merge that ends a visit, so within one visit a
partner whose union already failed is recorded as failing with no test run.

`reduce` makes one pass and does not revisit pairs: rows the cursor has
passed are never reconsidered, even though a later merge can make a pair that
failed (or was never tested) contractible, so a second `reduce` on the result
may shrink it further.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .collapse import is_strong_collapsible
from .relation import _DEAD, Relation, _Draft

_Z_LABEL = re.compile(r"^z([0-9]+)$")


class StepReport(NamedTuple):
    """Bookkeeping for one pair merge, as an immutable named tuple.

    `delta_z` is the vertex count of the whole union of the merged rows'
    closed stars, `len(star_i | star_j)`; the pair test keeps only the
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
    `reduce` fills in the rest once the stream ends.  With
    `reduce(r, records=False)`, `tested_pairs` and both histories stay
    empty and every other field is the same.  The input they
    describe is the one `reduce` runs on, after its column clean-up, so
    `cols_before` counts only the maximal columns.  `comparison_budget` is
    the pair-test bound computed on the input; `delta_max_history` /
    `epsilon_max_history` sample the largest star vertex/toplex count over
    live vertices, once before any step and once after each step.  The
    starting counts come from the star rows `reduce` lists once per input
    row.  After that they are kept per merge by the step equations, which
    the test suite audits against a recount for every step.  A merge
    changes only the merged pair, whose slots go dead, the cone row, whose
    counts come from the StepReport, and the rows in both merged rows'
    stars: each loses one star vertex and keeps the size of its own column
    set, which the clean-up may have cut.  No other row and no other count
    changes, so no star is recounted.  `delta_max_seen` /
    `epsilon_max_seen`, the largest value each history holds, are worked
    out without the histories, from the starting counts and each report's
    cone row counts: under the step equations a count only falls, except
    at the cone row's new slot, so a maximum rises only there, to the cone
    row's count.
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


def _absorbed(cols, union, inner):
    """The faces and the duplicates among the columns `union` of `cols`,
    testing only those that lie within the row set `inner`: a face lies in
    a larger column of `union`, and a duplicate that is not a face equals
    one with a lower id.  One pass over `union` per tested column stops at
    the first larger superset and notes on the way whether an equal column
    has a lower id.  `cols` is read, not changed."""
    faces, dups = [], []
    for c in union:
        s = cols[c]
        if s <= inner:
            n = len(s)
            dup = False
            for k in union:
                if k != c and s <= cols[k]:
                    if len(cols[k]) > n:
                        faces.append(c)
                        break
                    if k < c:
                        dup = True
            else:
                if dup:
                    dups.append(c)
    return faces, dups


def _merge(d, xi, xj, union, both, delta, z, ncols):
    """Replace rows xi and xj of draft `d` by the cone row `z`, in place, and
    return the step's StepReport.  `union` holds the two rows' columns,
    `both` the rows other than the pair in both merged rows' stars, and
    `delta` is the vertex count of the union of those stars, all as the
    pair test had them; `ncols` is the draft's live column count before
    the merge.

    The cone row, a tuple of `union`, takes the next index, and one pass
    over its columns takes the pair out of each and puts the cone row in.
    The columns among those that the merge made dominated go, and nothing
    else can be affected: each row that held one, the cone row or a row of
    `both`, is replaced by a tuple without it.  So this is the one edit of
    a row, every row stays a tuple, and what changes is what the step
    equations say (`ReductionStats`).

    The clean-up, `_absorbed`, tests only the cone row's columns whose other
    rows all lie in both stars, each in one pass over the cone row's
    columns.  On a column-irreducible draft that is exact.  A column without
    the cone row is unchanged, so it lies in no other.  A column C with it
    can lie only in a column D with it.  If C's members of the pair were
    among D's, C would have lain in D before the merge; so C held one of the
    pair that D lacks, D held the other, and C's other rows lie in both
    stars.  A face lies in a larger column, and of equal columns the lowest
    id stays.
    """
    pair = (d.row_labels[xi], d.row_labels[xj])
    zi = len(d.rows)
    cone = tuple(union)
    for c in cone:
        s = d.cols[c]
        s.discard(xi)
        s.discard(xj)
        s.add(zi)
    d.rows[xi] = d.rows[xj] = _DEAD
    d.rows.append(cone)
    d.row_labels.append(z)
    faces, dups = _absorbed(d.cols, cone, both | {zi})
    for c in faces + dups:
        for k in d.cols[c]:
            d.rows[k] = tuple([b for b in d.rows[k] if b != c])
        d.cols[c] = _DEAD
    return StepReport(pair=pair, z_label=z,
                      faces_absorbed=len(faces), duplicates_merged=len(dups),
                      delta_z=delta, epsilon_z=len(d.rows[zi]),
                      cols_before=ncols, cols_after=ncols - len(faces) - len(dups))


def reduction_step(r: Relation, xi: int, xj: int):
    """Merge rows xi and xj into a fresh cone row appended at the end.

    The caller must already have verified that the union of the two closed
    stars is strong collapsible; this function does not re-test it, and
    applying it to a non-contractible union silently breaks the homotopy
    guarantee.  The scoped clean-up is exact only on a column-irreducible
    relation, so the merge runs on `r.make_column_irreducible()`: its rows
    are r's, in r's order, so xi and xj name the same rows, and the report
    counts its columns.
    """
    if not (0 <= xi < r.nrows and 0 <= xj < r.nrows):
        raise ValueError("row index out of range")
    if xi == xj:
        raise ValueError("need two distinct rows")
    r = r.make_column_irreducible()
    d = _Draft.of(r)
    sx, sy = _star_rows(d, xi), _star_rows(d, xj)
    report = _merge(d, xi, xj, {*d.rows[xi], *d.rows[xj]}, (sx & sy) - {xi, xj},
                    len(sx | sy), f"z{_fresh_z(r.row_labels)}", r.ncols)
    return d.freeze(), report


class _RunningMax:
    """The maximum of a per-slot value list under the two updates a merge
    makes.

    `count[v]` is the number of slots holding v.  `lower` lowers one slot's
    value, and only when that slot was the last one holding `top` does `top`
    walk down, past values that no slot holds, to the largest one left;
    `push` opens the next slot, and `top` rises to its value at once.  No
    update rescans the slots.
    """

    def __init__(self, values):
        self.values = list(values)
        self.count = [0] * (max(self.values, default=0) + 1)
        for v in self.values:
            self.count[v] += 1
        self.top = len(self.count) - 1

    def lower(self, k, v):
        """Give slot k, which holds no less than v, the value v."""
        count = self.count
        count[self.values[k]] -= 1
        self.values[k] = v
        count[v] += 1
        while not count[self.top]:
            self.top -= 1

    def push(self, v):
        """Open the next slot with the value v."""
        self.values.append(v)
        if v >= len(self.count):
            self.count.extend([0] * (v + 1 - len(self.count)))
        self.count[v] += 1
        if v > self.top:
            self.top = v


def _steps(d, stats, sizes=None, records=True):
    """Merge pairs of the draft `d` in place, in one pass of the cursor,
    and yield each merge's StepReport once it is applied.

    The cursor walks the slots in ascending order.  At a live slot it builds
    the cursor row's star rows once and tests the partners `_partners` gives
    in turn, building each partner's star rows, the pair's column union and
    the rows in both stars once; the failed-union key, the pair test and
    the merge share them.  On the first success the pair is merged, which
    leaves the cursor's slot dead and changes only what the step equations
    name (see ReductionStats), and the cursor moves on, as it does
    when every test fails; a dead slot is passed over, and a cone row is
    processed when the cursor reaches it.  Each test is counted in `stats`
    as it happens.  With `records`, each test also goes into
    `stats.tested_pairs` and each star-size maximum into the histories;
    without, neither is kept and no `_RunningMax` is built, since the
    reports give the maxima (see ReductionStats).  `sizes` gives each slot's
    star row count at the start, as `reduce` has them from its star pass;
    without it a recording pass counts them on the draft, so it can run
    again on a draft an earlier pass left, dead slots and all.

    A visit keeps the frozen column unions whose test failed, and a partner
    whose union is among them is recorded as failing, counted and listed
    like any test, with no test run.  This is exact:
    a verdict depends only on the union, the draft changes only at the
    merge that ends the visit, and a success always ends it.  The first
    failure of a visit builds the first key, so a visit that merges at its
    first test builds none, and the set is dropped with the visit, so it
    never holds more keys than one cursor row has partners.
    """
    if records:
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
            failed = set()
            for j in _partners(d, cursor, sx):
                union = {*d.rows[cursor], *d.rows[j]}
                key = frozenset(union) if failed else None
                if key in failed:
                    ok = False
                else:
                    sy = _star_rows(d, j)
                    common = sx & sy
                    # the pair test keeps only the rows in both stars and the
                    # pair x = cursor, y = j itself.  A row in the star of x
                    # alone lies, within the union, only in columns that
                    # hold x, so x dominates it (and likewise for y); a
                    # strong-collapse core is unique up to isomorphism
                    # (Barmak & Minian 2012), so dropping those rows first
                    # gives the verdict of the whole union.  x is in the star
                    # of y exactly when y is in the star of x, so `common`
                    # holds both or neither, and both for every one-hop
                    # partner.  x and y are the apexes tried first: on a
                    # torus every union a merge follows is a cone on one of
                    # them, so only failing tests copy anything
                    rows = common if cursor in common else common | {cursor, j}
                    ok = is_strong_collapsible(d, union, rows, (cursor, j))
                stats.contractibility_tests += 1
                if records:
                    stats.tested_pairs.append((d.row_labels[cursor], d.row_labels[j], ok))
                if not ok:
                    failed.add(key if failed else frozenset(union))
                    continue
                both = common - {cursor, j}
                rep = _merge(d, cursor, j, union, both, len(sx) + len(sy) - len(common),
                             f"z{z}", ncols)
                z = _successor(z)
                ncols = rep.cols_after
                if records:
                    # the step equations (see ReductionStats)
                    for m, v in ((delta, rep.delta_z - 1), (epsilon, rep.epsilon_z)):
                        m.lower(cursor, 0)
                        m.lower(j, 0)
                        m.push(v)
                    for k in both:
                        delta.lower(k, delta.values[k] - 1)
                        epsilon.lower(k, len(d.rows[k]))
                    stats.delta_max_history.append(delta.top)
                    stats.epsilon_max_history.append(epsilon.top)
                yield rep
                break
        cursor += 1


def reduce(r: Relation, *, records=True):
    """Run the single-pass reduction to exhaustion.

    Returns (reduced relation, ReductionStats, list of StepReport).  The
    merge's clean-up is exact only on a column-irreducible relation, so the
    run starts from `r.make_column_irreducible()`, which is r itself when
    every column is maximal; the stats and the reports count the columns
    of that relation.  Each input row's star rows are
    listed once, on r; the comparison budget and the stream's starting star
    sizes both come from that list, which is dropped before the stream
    starts, and so is r once its widest row is read and its draft made, so
    a relation the caller does not hold is freed during the pass (from
    CPython 3.11; 3.10 keeps a call's arguments on the caller's stack until
    it returns).  `_steps` merges pairs on one mutable draft of r, whose
    indices stay fixed: a merged row's slot goes dead and the cone row
    takes a new slot at the tail, and each pair's union of closed stars is
    collapsed from a copy of those stars alone, under the draft's ids.  The
    draft is frozen once, into the one relation a run builds.

    With `records=False` the stats keep no `tested_pairs` and no star-size
    histories, which cost a tuple per test and a few updates per merge;
    the relation, the reports and every other stats field are the same.
    Both maxima come from the starting star sizes and the reports in
    either mode, and equal the histories' largest values.
    """
    r = r.make_column_irreducible()
    stars = _stars(r)
    stats = ReductionStats(rows_before=r.nrows, cols_before=r.ncols,
                           comparison_budget=_budget(stars))
    sizes = list(map(len, stars))
    del stars
    widest = max(map(len, r.rows), default=0)
    d = _Draft.of(r)
    del r
    log = list(_steps(d, stats, sizes, records))
    cur = d.freeze()
    stats.rows_after, stats.cols_after = cur.shape
    stats.steps_applied = len(log)
    stats.delta_max_seen = max([max(sizes, default=0)] + [rep.delta_z - 1 for rep in log])
    stats.epsilon_max_seen = max([widest] + [rep.epsilon_z for rep in log])
    return cur, stats, log


def format_step_log(reports) -> str:
    """Line-oriented step log, one line per merge."""
    lines = [f"STEP {n}: merge {rep.pair[0]} {rep.pair[1]} -> {rep.z_label} "
             f"cols {rep.cols_before}->{rep.cols_after} "
             f"dup {rep.duplicates_merged} face {rep.faces_absorbed}"
             for n, rep in enumerate(reports, 1)]
    return "".join(line + "\n" for line in lines)
