"""Domination detection and the strong-collapse core."""

import random
from collections import Counter
from itertools import islice

import pytest

import dowker.reducer
from dowker import collapse as collapse_module
from dowker import relation as relation_module
from dowker import (Relation, betti_gf2, collapse_core, gen_torus_grid,
                    is_strong_collapsible, reduce)
from dowker.reducer import ReductionStats, _star_rows, _steps
from dowker.relation import _Draft, _freeze
from _util import (core_labels_reference, disk_relation, fan_relation, first_dominators,
                   random_irreducible_relation, random_relation, with_repeats)


def tetra_boundary():
    from dowker import gen_simplex_boundary
    return Relation.from_toplexes(gen_simplex_boundary(2))


def has_dominated_row(r):
    """Whether some row of r is dominated, by the pairwise definition."""
    dom = first_dominators([set(r.row(i)) for i in range(r.nrows)])
    return any(j is not None for j in dom.values())


def test_fan_star_submatrix_has_dominated_row():
    r = fan_relation()
    sub = r.restrict_to_columns(set(r.row(2)) | set(r.row(3))).relation
    dom = first_dominators([set(sub.row(i)) for i in range(sub.nrows)])
    # x1's single column sits inside x3's
    assert dom[sub.row_index("x1")] == sub.row_index("x3")


def test_identity_has_no_dominated_row():
    r = Relation(list("abcd"), list("pqrs"), [[0], [1], [2], [3]])
    assert not has_dominated_row(r)


def test_repeated_row_reports_higher_index():
    # equal rows keep the lower index
    r = Relation(["a", "b"], ["p"], [[0], [0]])
    assert collapse_core(r).row_labels == ("a",)


def test_fan_star_submatrix_collapses_to_point():
    r = fan_relation()
    sub = r.restrict_to_columns(set(r.row(2)) | set(r.row(3))).relation
    core = collapse_core(sub)
    assert core.shape == (1, 1)
    assert is_strong_collapsible(sub)


def test_triangle_boundary_is_its_own_core():
    # exhaustive scan: no row or column comparable to another
    r = Relation(["a", "b", "c"], ["ab", "ac", "bc"], [[0, 1], [0, 2], [1, 2]])
    assert not has_dominated_row(r)
    assert not has_dominated_row(r.transpose())
    assert collapse_core(r) == r


def test_cone_collapses_to_point():
    r = fan_relation().add_row("apex", range(6))
    core = collapse_core(r)
    assert core.shape == (1, 1)
    assert core.row_labels == ("apex",)


def test_full_simplex_is_collapsible():
    r = Relation(["a", "b", "c", "d"], ["t"], [[0], [0], [0], [0]])
    assert is_strong_collapsible(r)


def test_tetra_boundary_not_collapsible():
    r = tetra_boundary()
    assert not has_dominated_row(r)
    assert not has_dominated_row(r.transpose())
    core = collapse_core(r)
    assert core.shape == (4, 4)
    assert not is_strong_collapsible(r)


def test_empty_relation_rejected():
    with pytest.raises(ValueError):
        is_strong_collapsible(Relation((), (), ()))


def test_pair_test_rejects_column_ids_out_of_range():
    r = fan_relation()
    for cols in ({-1}, {0, r.ncols}):
        with pytest.raises(ValueError, match="column index out of range"):
            is_strong_collapsible(r, cols)
    with pytest.raises(ValueError):
        is_strong_collapsible(r, set())


def test_picked_rows_give_the_full_subcomplex_on_them():
    # with picked rows, the verdict is that of the relation the picked
    # columns span once every other row is deleted: a column left with no
    # picked row is the empty face and goes, as does a picked row outside
    # every picked column
    rng = random.Random(151)
    verdicts = set()
    for _ in range(400):
        r = random_relation(rng)
        cols = set(rng.sample(range(r.ncols), rng.randint(1, r.ncols)))
        rows = set(rng.sample(range(r.nrows), rng.randint(0, r.nrows)))
        assert is_strong_collapsible(r, cols, set(range(r.nrows))) \
            == is_strong_collapsible(r, cols)
        faces = [f for f in ([i for i in r.col(c) if i in rows] for c in sorted(cols)) if f]
        if not faces:
            with pytest.raises(ValueError, match="empty relation"):
                is_strong_collapsible(r, cols, rows)
            continue
        used = sorted(set().union(*faces))
        full = Relation(used, range(len(faces)),
                        [[k for k, f in enumerate(faces) if i in f] for i in used])
        got = is_strong_collapsible(r, cols, rows)
        assert got == is_strong_collapsible(full)
        verdicts.add(got)
    assert verdicts == {True, False}


def test_collapsing_columns_first_keeps_every_verdict():
    # the test collapses columns first and collapse_core rows first; a
    # dominated column is a face of another toplex, so removing it leaves
    # the complex as it is, and both orders reach its strong-collapse core,
    # which is unique up to isomorphism; the transpose's complex has the
    # same core shape, transposed
    rng = random.Random(167)
    verdicts = set()
    for _ in range(300):
        r = random_irreducible_relation(rng)
        for rel in (r, with_repeats(rng, r)):
            got = is_strong_collapsible(rel)
            assert is_strong_collapsible(rel.transpose()) == got
            assert (collapse_core(rel).shape == (1, 1)) == got
            cols = set(rng.sample(range(rel.ncols), rng.randint(1, rel.ncols)))
            sub = rel.restrict_to_columns(cols)
            rows = set(rng.sample(sub.parent_rows, rng.randint(1, len(sub.parent_rows))))
            full = sub.relation.remove_rows(
                [rel.row_labels[i] for i in sub.parent_rows if i not in rows])
            for picked, whole in ((None, sub.relation), (rows, full)):
                got = is_strong_collapsible(rel, cols, picked)
                assert is_strong_collapsible(whole) == got
                assert is_strong_collapsible(whole.transpose()) == got
                assert (collapse_core(whole).shape == (1, 1)) == got
                verdicts.add(got)
    assert verdicts == {True, False}


def test_cone_exit_and_fallback_match_the_core(monkeypatch):
    # with no apex to try, every test collapses its copy from scratch, rows
    # first, a whole relation and picked columns alike, and a cone reaches
    # a single vertex there; each must give the verdict of the core, on
    # whole relations, with rows and columns repeated, and on picked columns
    # and rows, which span the full subcomplex on them
    collapsed = []
    collapse = collapse_module._collapse

    def recording(*args):
        collapsed.append(args)
        return collapse(*args)

    monkeypatch.setattr(collapse_module, "_collapse", recording)

    def decide(r, cols=None, rows=None):
        """The verdict, and whether the collapse gave it."""
        collapsed.clear()
        return is_strong_collapsible(r, cols, rows), bool(collapsed)

    def core_is_a_point(faces):
        used = sorted(set().union(*faces))
        full = Relation(used, range(len(faces)),
                        [[k for k, f in enumerate(faces) if i in f] for i in used])
        return collapse_core(full).shape == (1, 1)

    rng = random.Random(173)
    seen = {(fallback, verdict): 0 for fallback in (False, True) for verdict in (False, True)}
    for _ in range(400):
        r = random_relation(rng)
        for rel in (r, with_repeats(rng, r)):
            cols = set(rng.sample(range(rel.ncols), rng.randint(1, rel.ncols)))
            rows = set(rng.sample(range(rel.nrows), rng.randint(1, rel.nrows)))
            picked = [f for f in ([i for i in rel.col(c) if i in rows] for c in sorted(cols)) if f]
            cases = [(decide(rel), collapse_core(rel).shape == (1, 1))]
            if picked:
                cases.append((decide(rel, cols, rows), core_is_a_point(picked)))
            for (got, fallback), expected in cases:
                assert got == expected
                seen[fallback, got] += 1
    assert seen[False, False] == seen[False, True] == 0
    assert seen[True, False] >= 100 and seen[True, True] >= 100

    # a fan around a, tested on the columns of the pair x, y: the apex a is
    # neither row of the pair
    fan = Relation.from_toplexes([("a", "x", "p"), ("a", "p", "y"), ("a", "y", "q")])
    x, y = fan.row_labels.index("x"), fan.row_labels.index("y")
    assert decide(fan, set(fan.row(x) + fan.row(y))) == (True, True)
    # duplicate maximal columns: p and q are both {a, b}
    dup = Relation("abc", "pqs", [[0, 1], [0, 1, 2], [2]])
    assert decide(dup, {0, 1, 2}) == (True, True)
    assert decide(dup) == (True, True)
    # a circle with an edge twice, and a path with an edge twice
    assert decide(Relation("abc", "pqst", [[0, 1, 3], [0, 1, 2], [2, 3]])) == (False, True)
    assert decide(Relation("abcd", "pqrs", [[0], [0, 1, 2], [1, 2, 3], [3]])) == (True, True)
    # a single column, picked whole and in part, and the whole relation
    single = Relation("ab", "p", [[0], [0]])
    assert decide(single, {0}) == decide(single, {0}, {1}) == (True, True)
    assert decide(single) == (True, True)


def test_apexes_never_change_a_verdict():
    # a row passed as an apex ends the test only when every maximal picked
    # column holds it, with the answer True; a row outside the
    # picked rows, a row in no picked column and a dead slot are never
    # apexes, and no list of apexes changes a verdict, on whole relations,
    # with rows and columns repeated, and on a working draft of the reducer
    rng = random.Random(179)
    inputs = []
    for _ in range(150):
        r = random_relation(rng)
        inputs += [r, with_repeats(rng, r)]
        d = _Draft.of(random_irreducible_relation(rng))
        list(islice(_steps(d, ReductionStats()), rng.randint(1, 4)))
        inputs.append(d)
    seen = {"hit": 0, "missed": 0, "outside": 0, "no column": 0, "dead": 0}
    for rel in inputs:
        nrows, ncols = len(rel.rows), len(rel.cols)
        cols = set(rng.sample(range(ncols), rng.randint(1, ncols)))
        for rows in (None, set(rng.sample(range(nrows), rng.randint(1, nrows)))):
            # `is_strong_collapsible` hands `_is_apex` every row id for None
            picked = set(range(nrows)) if rows is None else rows
            never = {"outside": [i for i in range(nrows) if rows is not None and i not in rows],
                     "no column": [i for i in range(nrows) if rel.rows[i]
                                   and not cols.intersection(rel.rows[i])],
                     "dead": [i for i in range(nrows) if not rel.rows[i]]}
            apexes = sorted(set().union(*(rel.cols[c] for c in cols)))
            for kind, ids in never.items():
                for w in ids:
                    assert not collapse_module._is_apex(rel, cols, picked, w)
                if ids:
                    apexes.append(rng.choice(ids))
                    seen[kind] += 1
            rng.shuffle(apexes)
            try:
                expected = is_strong_collapsible(rel, cols, rows)
            except ValueError:
                with pytest.raises(ValueError, match="empty relation"):
                    is_strong_collapsible(rel, cols, rows, apexes)
                continue
            assert is_strong_collapsible(rel, cols, rows, apexes) == expected
            hit = any(collapse_module._is_apex(rel, cols, picked, w) for w in apexes)
            assert expected or not hit
            seen["hit" if hit else "missed"] += 1
        assert is_strong_collapsible(rel, None, None, range(nrows)) == is_strong_collapsible(rel)
    assert min(seen.values()) >= 50, seen

def test_core_idempotent_and_undominated():
    rng = random.Random(31)
    for _ in range(60):
        r = random_relation(rng)
        core = collapse_core(r)
        assert collapse_core(core) == core
        assert not has_dominated_row(core)
        assert not has_dominated_row(core.transpose())
        assert core.nrows <= r.nrows and core.ncols <= r.ncols


def test_core_preserves_betti():
    rng = random.Random(37)
    for _ in range(100):
        r = random_relation(rng)
        core = collapse_core(r)
        assert betti_gf2(r.toplexes(), 3) == betti_gf2(core.toplexes(), 3)


def test_collapsible_implies_point_homology():
    rng = random.Random(41)
    seen = 0
    for _ in range(200):
        r = random_relation(rng, max_rows=6, max_cols=6)
        if is_strong_collapsible(r):
            seen += 1
            assert betti_gf2(r.toplexes(), 3) == (1, 0, 0, 0)
    assert seen >= 10  # the sample must actually exercise the claim


def test_domination_matches_pairwise_reference():
    rng = random.Random(43)
    for n in range(200):
        r = random_relation(rng)
        if n % 2:
            r = with_repeats(rng, r)
        core = collapse_core(r)
        assert (core.row_labels, core.col_labels) == core_labels_reference(r)


def test_core_matches_the_rescanning_reference():
    # the worklist re-tests only changed members; the reference rescans
    # everything after each single removal, so both must leave the same
    # labels, also under the duplicate tie rule on both axes
    rng = random.Random(137)
    inputs = [disk_relation(5, 6), fan_relation().add_row("apex", range(6))]
    inputs += [with_repeats(rng, random_relation(rng)) for _ in range(100)]
    for r in inputs:
        for rel in (r, r.transpose()):
            core = collapse_core(rel)
            assert (core.row_labels, core.col_labels) == core_labels_reference(rel)


def test_core_collapses_set_rows_not_the_relations_tuples():
    # `_dominated` tests containment with `<=`, which on tuples is
    # lexicographic order: (0, 1) <= (0, 2, 3), though {0, 1} is not a
    # subset of {0, 2, 3}.  Fed this relation's tuple rows, the fixpoint
    # takes row a as dominated by row b, and its first column removal
    # fails, since `_drop` edits sets only
    r = Relation(list("abc"), list("pqrs"), [(0, 1), (0, 2, 3), (1,)])
    assert r.rows[0] <= r.rows[1] and not set(r.rows[0]) <= set(r.rows[1])
    d = _Draft.of(r)
    rows, cols = set(range(r.nrows)), set(range(r.ncols))
    with pytest.raises(AttributeError):
        relation_module._collapse(d.rows, d.cols, rows, cols)
    assert 0 not in rows
    core = collapse_core(r)
    assert (core.row_labels, core.col_labels) == core_labels_reference(r) == (("a",), ("p",))


def test_the_fixpoint_is_never_handed_a_tuple_row(monkeypatch):
    # every row of a draft is a tuple, so every caller of `_collapse` must
    # hand it set rows: the core, `reduce` and the pair tests, on the
    # seeded draws, and the core still matches the reference
    collapse = relation_module._collapse
    calls = Counter()
    phase = None

    def checking(row_sets, col_sets, rows, cols):
        sets = row_sets.values() if isinstance(row_sets, dict) else row_sets
        assert not any(type(s) is tuple for s in sets)
        calls[phase] += 1
        return collapse(row_sets, col_sets, rows, cols)

    monkeypatch.setattr(relation_module, "_collapse", checking)
    monkeypatch.setattr(collapse_module, "_collapse", checking)
    rng = random.Random(193)
    inputs = [random_irreducible_relation(rng) for _ in range(300)]
    inputs += [with_repeats(rng, random_relation(rng)) for _ in range(100)]
    for r in inputs:
        phase = "core"
        core = collapse_core(r)
        assert (core.row_labels, core.col_labels) == core_labels_reference(r)
        phase = "reduce"
        reduce(r)
        phase = "pair"
        d = _Draft.of(r.make_column_irreducible())
        for x in range(len(d.rows)):
            for y in range(x + 1, len(d.rows)):
                # the rows `_steps` passes: those in both stars and the pair
                common = _star_rows(d, x) & _star_rows(d, y)
                rows = common if x in common else common | {x, y}
                is_strong_collapsible(d, {*d.rows[x], *d.rows[y]}, rows, (x, y))
    assert min(calls[p] for p in ("core", "reduce", "pair")) > 100


def test_core_domination_tests_do_not_grow_per_member(monkeypatch):
    # a disk collapses from its boundary inward, about one layer per pass, so
    # rescanning every live member per pass would make the tests per member
    # grow as the square root of the size, about 3x from 400 to 3600 rows
    calls = []
    dominated = relation_module._dominated

    def counting(sets, other, i, within):
        calls.append(i)
        return dominated(sets, other, i, within)

    monkeypatch.setattr(relation_module, "_dominated", counting)
    per_member = []
    for m in (20, 60):
        r = disk_relation(m, m)
        calls.clear()
        assert collapse_core(r).shape == (1, 1)
        per_member.append(len(calls) / (r.nrows + r.ncols))
    assert per_member[1] / per_member[0] < 1.5


def test_whole_relation_test_hands_no_column_to_the_star_union_scan(monkeypatch):
    # a scan that compared each column with every larger kept one would be
    # quadratic on a relation whose column sizes differ, such as a disk with
    # a pendant edge at every vertex; a whole relation and a selection of
    # all its columns both go to the one fixpoint, with the verdict of the
    # core, and make the same domination checks
    checks = []
    dominated = relation_module._dominated

    def counting(sets, other, i, within):
        checks.append(i)
        return dominated(sets, other, i, within)

    monkeypatch.setattr(relation_module, "_dominated", counting)
    disk = disk_relation(20, 20)
    pendant = Relation.from_toplexes(disk.toplexes() + [(v, f"p{v}") for v in disk.row_labels])
    torus = Relation.from_toplexes(gen_torus_grid(6, 6))
    verdicts = set()
    for r in (pendant, pendant.transpose(), torus, torus.add_row("apex", range(torus.ncols))):
        got = is_strong_collapsible(r)
        assert got == (collapse_core(r).shape == (1, 1))
        verdicts.add(got)
    assert verdicts == {True, False}
    per_call = []
    for cols in (None, set(range(pendant.ncols))):
        checks.clear()
        assert is_strong_collapsible(pendant, cols)
        per_call.append(len(checks))
    # 3783 each on disk 20x20
    assert per_call[0] == per_call[1] > 3000


def test_restricted_draft_verdict_matches_the_restricted_relation(monkeypatch):
    # on every working draft of the reducer, dead slots and cone rows
    # included: a draft frozen on a pair's stars, or on random ids that may
    # be dead, and the test of those ids on the working draft itself get the
    # verdict of the same restriction of the frozen relation, and no draft is
    # changed by the test
    rng = random.Random(131)
    partners = dowker.reducer._partners
    seen = {"verdicts": [], "dead": 0, "cone": 0}

    def sets(d):
        return [set(row) for row in d.rows], [set(col) for col in d.cols]

    def checking(d, x, one):
        out = list(partners(d, x, one))
        frozen = d.freeze()
        pos = {c: k for k, c in enumerate(c for c, col in enumerate(d.cols) if col)}
        before = sets(d)
        picks = [set(d.rows[x]) | set(d.rows[j]) for j in out]
        picks.append(set(rng.sample(range(len(d.cols)), rng.randint(1, len(d.cols)))))
        for cols in picks:
            sub = _freeze(d, cols)
            kept = sets(sub)
            picked = sorted(pos[c] for c in cols if c in pos)
            if not picked:
                with pytest.raises(ValueError):
                    is_strong_collapsible(sub)
                with pytest.raises(ValueError):
                    is_strong_collapsible(d, cols)
                continue
            got = is_strong_collapsible(sub)
            assert got == is_strong_collapsible(frozen.restrict_to_columns(picked).relation)
            assert is_strong_collapsible(d, cols) == got
            assert sets(d) == before
            assert sets(sub) == kept
            seen["verdicts"].append(got)
        assert is_strong_collapsible(d) == is_strong_collapsible(frozen)
        assert sets(d) == before
        seen["dead"] += not all(d.rows) or not all(d.cols)
        seen["cone"] += any(str(label).startswith("z") for label in frozen.row_labels)
        return out

    inputs = [random_irreducible_relation(rng) for _ in range(300)]
    inputs.append(Relation.from_toplexes(gen_torus_grid(4, 6)))
    expected = [reduce(r) for r in inputs]
    monkeypatch.setattr(dowker.reducer, "_partners", checking)
    assert [reduce(r) for r in inputs] == expected
    assert set(seen["verdicts"]) == {True, False}
    assert seen["dead"] > 300 and seen["cone"] > 300
