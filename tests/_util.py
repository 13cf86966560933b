"""Brute-force oracles and random complex builders shared by the tests.

The oracles here deliberately avoid the library's incidence machinery:
complexes are expanded to explicit simplex sets and stars are computed by
the subset definition, so they can certify the library's sparse
implementations.
"""

from itertools import combinations

from dowker import Relation, reduction_step
from dowker.reducer import ReductionStats, _steps
from dowker.relation import _Draft

# the running example: two triangles sharing an edge, with pendant edges
FAN_TOPLEXES = [("x1", "x2"), ("x1", "x3"), ("x2", "x3", "x4"),
                ("x3", "x4", "x5"), ("x4", "x6"), ("x5", "x6")]

FAN_DENSE = [[1, 1, 0, 0, 0, 0],
             [1, 0, 1, 0, 0, 0],
             [0, 1, 1, 1, 0, 0],
             [0, 0, 1, 1, 1, 0],
             [0, 0, 0, 1, 0, 1],
             [0, 0, 0, 0, 1, 1]]

FAN_STAR_DENSE = [[1, 0, 0, 0],
                  [0, 1, 0, 0],
                  [1, 1, 1, 0],
                  [0, 1, 1, 1],
                  [0, 0, 1, 0],
                  [0, 0, 0, 1]]

FAN_MERGED_DENSE = [[1, 1, 0, 0, 0, 0],
                    [1, 0, 1, 0, 0, 0],
                    [0, 0, 0, 1, 0, 1],
                    [0, 0, 0, 0, 1, 1],
                    [0, 1, 1, 1, 1, 0]]


def fan_relation():
    return Relation.from_toplexes(FAN_TOPLEXES)


def disk_relation(m, n):
    """Relation of an m x n vertex grid without wrap-around, each of its
    (m-1)(n-1) cells split into two triangles: a disk."""
    def v(i, j):
        return f"g{i}_{j}"

    tris = []
    for i in range(m - 1):
        for j in range(n - 1):
            tris += [(v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                     (v(i, j), v(i + 1, j + 1), v(i, j + 1))]
    return Relation.from_toplexes(tris)


def simplices_of_columns(column_vertex_sets):
    """Every non-empty subset of every toplex, deduplicated."""
    out = set()
    for top in column_vertex_sets:
        t = tuple(top)
        for k in range(1, len(t) + 1):
            for c in combinations(t, k):
                out.add(frozenset(c))
    return out


def complex_of(relation):
    """The complex of a relation as a set of frozensets of row labels."""
    return simplices_of_columns(relation.toplexes())


def closed_star(simplex_set, vertex):
    """All simplices s with s union {vertex} in the complex."""
    return {s for s in simplex_set if frozenset(s | {vertex}) in simplex_set}


def random_relation(rng, max_rows=8, max_cols=8, density=0.45):
    """Random relation with no zero rows or columns (not necessarily
    column irreducible)."""
    m = rng.randint(1, max_rows)
    n = rng.randint(1, max_cols)
    while True:
        rows = [[j for j in range(n) if rng.random() < density] for _ in range(m)]
        if all(rows) and all(any(j in row for row in rows) for j in range(n)):
            return Relation([f"x{i}" for i in range(m)],
                            [f"y{j}" for j in range(n)], rows)


def with_repeats(rng, relation, p=0.3):
    """`relation` with some rows and some columns repeated, in shuffled row
    order, so that equal masks occur on both axes."""
    rows = [list(relation.row(i)) for i in range(relation.nrows)]
    rows += [list(row) for row in rows if rng.random() < p]
    copies = [j for j in range(relation.ncols) if rng.random() < p]
    for k, j in enumerate(copies):
        for row in rows:
            if j in row:
                row.append(relation.ncols + k)
    rng.shuffle(rows)
    return Relation([f"x{i}" for i in range(len(rows))],
                    [f"y{j}" for j in range(relation.ncols + len(copies))], rows)


def first_dominators(sets, candidates=None):
    """Pairwise domination by the definition, the reference for the kernel.

    For each candidate i (all indices by default), the first candidate j in
    ascending order with sets[i] a subset of sets[j] and either the sets
    differ or j < i; None when there is no such j.
    """
    cands = range(len(sets)) if candidates is None else sorted(candidates)
    return {i: next((j for j in cands
                     if j != i and sets[i] <= sets[j] and (sets[i] != sets[j] or j < i)),
                    None)
            for i in cands}


def faces_and_duplicates(sets, ids):
    """The faces and the duplicates among sets[c] for c in `ids`, by the
    definition, in ascending id order: a face lies strictly inside another
    of them, and a duplicate is not a face and equals one with a lower id."""
    ids = sorted(ids)
    faces = [c for c in ids if any(set(sets[c]) < set(sets[k]) for k in ids)]
    dups = [c for c in ids if c not in faces
            and any(k < c and set(sets[k]) == set(sets[c]) for k in ids)]
    return faces, dups


def star_rows(relation, i):
    """The rows sharing a column with row i, i included: the vertices of
    its closed star, by the definition."""
    return {k for c in relation.row(i) for k in relation.col(c)}


def star_size_maxima(relation):
    """The largest closed-star vertex count and toplex count over the
    vertices, each 0 without vertices: the reference for the reducer's
    `delta_max_history` and `epsilon_max_history` entries."""
    return (max((len(star_rows(relation, i)) for i in range(relation.nrows)), default=0),
            max((len(relation.row(i)) for i in range(relation.nrows)), default=0))


def verify_step_equations(before, after, report):
    """Audit one merge step against the size-update rules, from scratch.

    Re-derives every surviving vertex's star vertex/toplex counts on both
    sides and checks them against the four-case update rules: the merged
    rows disappear, the cone row's counts come from the two stars and the
    clean-up removals, a vertex whose star contained both merged rows loses
    exactly one star vertex and its star's removed columns, and any other
    vertex is untouched.  Also re-classifies the removed columns by
    replaying the merge substitution.  Stars are counted by `star_rows`, so
    the audit shares no kernel with the reducer it checks.  Returns True
    iff everything matches.
    """
    li, lj = report.pair
    z = report.z_label
    try:
        xi = before.row_labels.index(li)
        xj = before.row_labels.index(lj)
    except ValueError:
        return False
    if after.row_labels != tuple(l for l in before.row_labels if l not in (li, lj)) + (z,):
        return False
    after_cols = set(after.col_labels)
    if [c for c in before.col_labels if c in after_cols] != list(after.col_labels):
        return False
    removed = [c for c in before.col_labels if c not in after_cols]
    if before.ncols != report.cols_before or after.ncols != report.cols_after:
        return False
    if report.faces_absorbed + report.duplicates_merged != len(removed):
        return False

    union_cols = {before.col_labels[c] for c in before.rows[xi] + before.rows[xj]}
    if any(c not in union_cols for c in removed):
        return False

    # replay the substitution on every column of `before`
    subst = {}
    before_rows = {}
    for c in range(before.ncols):
        label = before.col_labels[c]
        rows = frozenset(before.row_labels[i] for i in before.cols[c])
        before_rows[label] = rows
        if label in union_cols:
            rows = (rows - {li, lj}) | {z}
        subst[label] = rows
    for j, label in enumerate(after.col_labels):
        got = frozenset(after.row_labels[i] for i in after.cols[j])
        if got != subst[label]:
            return False
    faces = dups = 0
    for c in removed:
        if any(subst[k] == subst[c] for k in after.col_labels):
            dups += 1
        elif any(subst[c] < subst[k] for k in after.col_labels):
            faces += 1
        else:
            return False
    if faces != report.faces_absorbed or dups != report.duplicates_merged:
        return False

    def star_labels(rel, i):
        return frozenset(rel.row_labels[v] for v in star_rows(rel, i))

    sv_i, sv_j = star_labels(before, xi), star_labels(before, xj)
    if report.delta_z != len(sv_i | sv_j):
        return False
    shared_cols = len(set(before.rows[xi]) & set(before.rows[xj]))
    eps_i = len(before.rows[xi])
    eps_j = len(before.rows[xj])
    if report.epsilon_z != (eps_i + eps_j - shared_cols
                            - report.faces_absorbed - report.duplicates_merged):
        return False
    z_idx = after.nrows - 1
    if len(star_labels(after, z_idx)) != report.delta_z - 1:
        return False
    if len(after.rows[z_idx]) != report.epsilon_z:
        return False

    removed_by_vertex = {}
    for c in removed:
        for v in before_rows[c]:
            removed_by_vertex[v] = removed_by_vertex.get(v, 0) + 1
    after_pos = {l: i for i, l in enumerate(after.row_labels)}
    for kb, label in enumerate(before.row_labels):
        if label in (li, lj):
            continue
        ka = after_pos[label]
        sv_b = star_labels(before, kb)
        d_b = len(sv_b)
        d_a = len(star_labels(after, ka))
        e_b = len(before.rows[kb])
        e_a = len(after.rows[ka])
        in_star = removed_by_vertex.get(label, 0)
        if li in sv_b and lj in sv_b:
            if d_a != d_b - 1 or e_a != e_b - in_star:
                return False
        else:
            if in_star != 0 or d_a != d_b or e_a != e_b:
                return False
    return True


def core_labels_reference(relation):
    """Row and column labels left by strong collapse, removing the first
    dominated row, then the first dominated column, one at a time and
    rescanning from the start after each removal."""
    axes = ({relation.row_labels[i]: {relation.col_labels[c] for c in relation.row(i)}
             for i in range(relation.nrows)},
            {relation.col_labels[j]: {relation.row_labels[i] for i in relation.col(j)}
             for j in range(relation.ncols)})
    changed = True
    while changed:
        changed = False
        for a, b in ((0, 1), (1, 0)):
            while True:
                labels = list(axes[a])
                dom = first_dominators([axes[a][l] for l in labels])
                victim = next((labels[i] for i in dom if dom[i] is not None), None)
                if victim is None:
                    break
                for other in axes[a].pop(victim):
                    axes[b][other].discard(victim)
                changed = True
    return tuple(axes[0]), tuple(axes[1])


def random_toplex_list(rng, max_vertices=12, max_toplexes=20, max_size=5):
    nv = rng.randint(2, max_vertices)
    nt = rng.randint(1, max_toplexes)
    tops = []
    for _ in range(nt):
        size = rng.randint(1, min(max_size, nv))
        tops.append(tuple(f"v{i}" for i in sorted(rng.sample(range(nv), size))))
    return tops


def random_toplex_file(rng):
    """Seeded toplex file text with comment lines, duplicate lines (some
    reordered), equal or mixed toplex sizes, and sometimes a first line that
    a later toplex contains, so its vertices are first seen in a dropped
    toplex."""
    nv = rng.randint(2, 10)
    sizes = [rng.randint(1, min(5, nv))] if rng.random() < 0.4 else range(1, min(5, nv) + 1)
    lines = [rng.sample([f"v{i}" for i in range(nv)], rng.choice(sizes))
             for _ in range(rng.randint(1, 15))]
    lines += [rng.sample(t, len(t)) for t in rng.sample(lines, len(lines) // 3)]
    rng.shuffle(lines)
    if rng.random() < 0.3:
        # a vertex named only here and in a later, larger toplex
        lines.insert(0, ["new"])
        lines.append(["new", *lines[-1]])
    text = [" ".join(t) for t in lines]
    for _ in range(rng.randint(0, 3)):
        text.insert(rng.randint(0, len(text)), rng.choice(["# note", "  #x y", "#"]))
    return "\n".join(text) + "\n"


def off_text(toplexes):
    """ASCII OFF text of the ToplexList `toplexes`: one vertex line at the
    origin per vertex, in vertex order, and one face line per kept toplex,
    its ascending vertex indices, which read back as vertex names."""
    lines = ["OFF", f"{len(toplexes.vertex_names)} {len(toplexes)} 0"]
    lines += ["0 0 0"] * len(toplexes.vertex_names)
    lines += [f"{len(face)} {' '.join(map(str, face))}" for face in toplexes.vertex_indices]
    return "\n".join(lines) + "\n"


def random_irreducible_relation(rng, **kwargs):
    return Relation.from_toplexes(random_toplex_list(rng, **kwargs))


def replay_and_verify(initial, reports):
    """Re-apply a step log from scratch, auditing every step.

    Returns (final relation, list of per-step booleans); each boolean is
    True when the replayed step reproduces the logged report and passes the
    update-rule audit.
    """
    cur = initial
    results = []
    for rep in reports:
        xi = cur.row_labels.index(rep.pair[0])
        xj = cur.row_labels.index(rep.pair[1])
        nxt, rep2 = reduction_step(cur, xi, xj)
        results.append(rep2 == rep and verify_step_equations(cur, nxt, rep2))
        cur = nxt
    return cur, results


def step_snapshots(r, stats=None):
    """The reducer's merge stream on a fresh draft of r, with the draft
    frozen after each merge: yields (before, after, report), where `before`
    is r for the first merge and the previous `after` for each later one.
    The stream records its tests and histories in `stats` when given."""
    d = _Draft.of(r)
    before = r
    for rep in _steps(d, ReductionStats() if stats is None else stats):
        after = d.freeze()
        yield before, after, rep
        before = after


def edge_use_counts(toplexes):
    """How many triangles contain each edge; all values are 2 on a closed
    surface."""
    counts = {}
    for t in toplexes:
        assert len(t) == 3
        for e in combinations(sorted(t), 2):
            counts[e] = counts.get(e, 0) + 1
    return counts


def rank_int_columns(vectors):
    """GF(2) rank of int bitsets (bit i is coordinate i) by lead-bit
    elimination: the dense reference for the library's rank kernel."""
    lead = {}
    for v in vectors:
        while v:
            h = v.bit_length() - 1
            w = lead.get(h)
            if w is None:
                lead[h] = v
                break
            v ^= w
    return len(lead)


def betti_dense_reference(toplexes, max_dim):
    """Mod-2 Betti numbers (beta_0, ..., beta_max_dim) by the definition.

    Every simplex is listed by brute force (`simplices_of_columns`), each
    boundary column is one int bitset over the faces one dimension down,
    and ranks come from `rank_int_columns`.
    """
    simplices = simplices_of_columns(toplexes)
    levels = [sorted(tuple(sorted(s)) for s in simplices if len(s) == k + 1)
              for k in range(max_dim + 2)]
    ranks = [0]
    for faces, level in zip(levels, levels[1:]):
        pos = {f: i for i, f in enumerate(faces)}
        ranks.append(rank_int_columns(
            [sum(1 << pos[f] for f in combinations(s, len(s) - 1)) for s in level]))
    ranks.append(0)
    return tuple(len(levels[k]) - ranks[k] - ranks[k + 1] for k in range(max_dim + 1))


def rank_by_rowspace(rows):
    """GF(2) rank via the size of the row span; rows are 0/1 lists.

    Exponential, only for tiny matrices; independent of the elimination in
    the library.
    """
    ints = [int("".join(str(int(b)) for b in row), 2) if any(row) else 0
            for row in rows]
    span = {0}
    for v in ints:
        span |= {w ^ v for w in span}
    return len(span).bit_length() - 1
