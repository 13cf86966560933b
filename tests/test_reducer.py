"""The pair-merge reducer: candidates, steps, the full pass, and the audit."""

import copy
import random
import sys
import tracemalloc
import weakref
from collections import Counter
from itertools import islice

import pytest

from dowker import (Relation, betti_gf2, candidate_vertices, comparison_budget,
                    format_step_log, gen_simplex_boundary, gen_sphere_cube,
                    gen_sphere_uv, gen_torus_grid, is_strong_collapsible, reduce,
                    reduction_step)
import dowker.reducer
from dowker import cli
from dowker import collapse as collapse_module
from dowker import relation as relation_module
from dowker.reducer import ReductionStats, StepReport, _star_rows, _steps
from dowker.relation import _Draft
from _util import (FAN_MERGED_DENSE, complex_of, faces_and_duplicates, fan_relation,
                   first_dominators, random_irreducible_relation, random_relation,
                   replay_and_verify, star_size_maxima, step_snapshots,
                   verify_step_equations, with_repeats)


# ----------------------------------------------------------------------
# candidate ordering

def test_fan_candidates_one_hop_before_two_hop():
    r = fan_relation()
    # brute force from the dense matrix: rows sharing a column with x3,
    # then rows sharing a column with one of those
    dense = r.to_dense()
    one_hop = {i for i in range(6)
               if any(dense[i][c] and dense[2][c] for c in range(6))}
    two_hop = {i for i in range(6)
               if any(dense[i][c] and dense[v][c] for v in one_hop for c in range(6))}
    assert sorted(one_hop) == [0, 1, 2, 3, 4]
    assert sorted(two_hop) == [0, 1, 2, 3, 4, 5]
    assert candidate_vertices(r, 2) == [3, 4, 5]  # x4, x5 one-hop; x6 two-hop


@pytest.mark.parametrize("x", [-1, 6])
def test_candidate_vertices_rejects_a_row_out_of_range(x):
    r = fan_relation()
    assert r.nrows == 6
    with pytest.raises(ValueError, match="^row index out of range$"):
        candidate_vertices(r, x)


def test_isolated_vertex_has_no_candidates():
    r = Relation.from_toplexes([("a",), ("b", "c")])
    assert candidate_vertices(r, 0) == []


def test_full_simplex_candidates_all_one_hop():
    r = Relation.from_toplexes([("a", "b", "c", "d")])
    assert candidate_vertices(r, 0) == [1, 2, 3]


# ----------------------------------------------------------------------
# the pair test and the partners the stream lists

def test_pair_test_matches_the_test_of_the_union_of_stars(monkeypatch):
    # the pair test drops the rows that lie in one star only; on every
    # ordered pair of live rows of each input, with and without repeated
    # rows and columns, and of each draft the stream leaves, dead slots and
    # cone rows included, it must give the verdict of the whole union and
    # leave the draft as it is; so must every pair test the stream itself
    # runs, on the draft as it stands at that test
    pair_test = dowker.reducer.is_strong_collapsible
    streamed = []

    def checking(d, union, rows, apexes):
        got = pair_test(d, union, rows, apexes)
        assert got == pair_test(d, union)
        streamed.append(got)
        return got

    monkeypatch.setattr(dowker.reducer, "is_strong_collapsible", checking)
    rng = random.Random(157)
    draws = [random_irreducible_relation(rng) for _ in range(300)]
    drafts = []
    for r in draws:
        for rel in (r, with_repeats(rng, r)):
            drafts.append(_Draft.of(rel))
        d = _Draft.of(r)
        for _ in _steps(d, ReductionStats()):
            drafts.append(copy.deepcopy(d))
    assert set(streamed) == {True, False}
    verdicts = set()
    for d in drafts:
        before = ([set(row) for row in d.rows], [set(col) for col in d.cols])
        live = [i for i, row in enumerate(d.rows) if row]
        for x in live:
            for y in live:
                if x == y:
                    continue
                # the rows `_steps` passes: those in both stars and the pair
                common = _star_rows(d, x) & _star_rows(d, y)
                rows = common if x in common else common | {x, y}
                got = pair_test(d, set(d.rows[x]) | set(d.rows[y]), rows, (x, y))
                assert got == is_strong_collapsible(d, set(d.rows[x]) | set(d.rows[y]))
                verdicts.add(got)
        assert ([set(row) for row in d.rows], [set(col) for col in d.cols]) == before
    assert verdicts == {True, False}
    assert sum(not all(d.rows) for d in drafts) > 300


def test_two_hop_partners_are_listed_for_few_cursor_rows_on_a_torus(monkeypatch):
    # on a torus the first one-hop partner nearly always merges, so listing
    # the two-hop rows of every live cursor row, rather than only once every
    # one-hop test has failed, would be mostly waste
    listed = []
    two_hop = dowker.reducer._two_hop_rows

    def counting(r, one):
        listed.append(bool(one))
        return two_hop(r, one)

    monkeypatch.setattr(dowker.reducer, "_two_hop_rows", counting)
    d = _Draft.of(Relation.from_toplexes(gen_torus_grid(20, 30)))
    steps = len(list(_steps(d, ReductionStats())))
    assert steps > 500
    assert sum(listed) < steps / 10


def test_the_stream_tests_a_prefix_of_the_candidate_list(monkeypatch):
    # the partners come lazily, but in the candidate order on the draft as
    # it stands at the cursor visit: one-hop rows, then two-hop rows, each
    # ascending; all of them are tested unless one merges
    visits = []
    partners = dowker.reducer._partners

    def recording(d, x, one):
        assert one == {k for c in d.rows[x] for k in d.cols[c]}
        two = {k for i in one for c in d.rows[i] for k in d.cols[c]} - one
        expected = sorted(k for k in one if k > x) + sorted(k for k in two if k > x)
        got = []
        visits.append((expected, got))
        for j in partners(d, x, one):
            got.append(j)
            yield j

    monkeypatch.setattr(dowker.reducer, "_partners", recording)
    rng = random.Random(163)
    inputs = [random_irreducible_relation(rng) for _ in range(100)]
    inputs += [Relation.from_toplexes(gen_torus_grid(12, 16)),
               Relation.from_toplexes(gen_simplex_boundary(6))]
    for r in inputs:
        visits.clear()
        stats = ReductionStats()
        steps = len(list(_steps(_Draft.of(r), stats)))
        tested = iter(stats.tested_pairs)
        merged = 0
        for expected, got in visits:
            assert got == expected[:len(got)]
            ok = [ok for _, _, ok in islice(tested, len(got))]
            assert not any(ok[:-1])
            merged += bool(ok) and ok[-1]
            assert got == expected or ok[-1]
        assert next(tested, None) is None and merged == steps


def test_pair_test_collapses_few_rows_on_a_torus(monkeypatch):
    # a union of two adjacent torus stars has about 9 rows, but only the
    # rows in both stars and the pair itself are copied, and most unions
    # are a cone on one of the pair, so no row is copied or collapsed at all
    handed = []
    collapse = collapse_module._collapse
    pair_test = dowker.reducer.is_strong_collapsible

    def recording(row_sets, col_sets, rows, *rest):
        # the fallback collapses rows first, so the row ids come third
        handed[-1].append(len(rows))
        return collapse(row_sets, col_sets, rows, *rest)

    def measured(*args):
        handed.append([])
        return pair_test(*args)

    monkeypatch.setattr(collapse_module, "_collapse", recording)
    monkeypatch.setattr(dowker.reducer, "is_strong_collapsible", measured)
    d = _Draft.of(Relation.from_toplexes(gen_torus_grid(20, 30)))
    stats = ReductionStats()
    list(_steps(d, stats))
    assert len(handed) == stats.contractibility_tests > 500
    assert sum(map(sum, handed)) / len(handed) <= 5
    assert sum(not calls for calls in handed) >= 0.85 * len(handed)



def test_pair_tests_on_a_torus_mostly_end_at_an_apex(monkeypatch):
    # every union of two stars that a merge follows on a torus is a cone on
    # one of the pair, so the test tries x and y as apexes and ends before
    # it copies anything; only the failing tests collapse a copy, 73 of 665
    # on torus 20x30 and 174 of 4965 on torus 60x80, and no union fails
    # twice in one visit there, so each failing test runs its own
    collapsed = []
    collapse = collapse_module._collapse

    def counting(row_sets, col_sets, rows, cols):
        collapsed.append(len(cols))
        return collapse(row_sets, col_sets, rows, cols)

    monkeypatch.setattr(collapse_module, "_collapse", counting)
    for m, n, share in ((20, 30, 0.12), (60, 80, 0.05)):
        collapsed.clear()
        stats = ReductionStats()
        steps = len(list(_steps(_Draft.of(Relation.from_toplexes(gen_torus_grid(m, n))), stats)))
        assert len(collapsed) == stats.contractibility_tests - steps
        assert len(collapsed) <= share * stats.contractibility_tests


def test_a_visit_reuses_the_verdict_of_a_union_that_failed(monkeypatch):
    # every union of two stars is the whole boundary of the 21-simplex, so
    # each cursor visit runs its first test and finds every later partner's
    # union among those that failed: 21 visits with a partner run 21 tests
    # of the 231 recorded, and every recorded verdict fails
    calls = []
    pair_test = dowker.reducer.is_strong_collapsible

    def counting(d, union, rows, apexes):
        calls.append(apexes)
        return pair_test(d, union, rows, apexes)

    monkeypatch.setattr(dowker.reducer, "is_strong_collapsible", counting)
    stats = ReductionStats()
    steps = list(_steps(_Draft.of(Relation.from_toplexes(gen_simplex_boundary(20))), stats))
    assert steps == [] and stats.contractibility_tests == 22 * 21 // 2 == 231
    assert len(stats.tested_pairs) == 231
    assert len(calls) == 21 and [x for x, _ in calls] == list(range(21))
    assert not any(ok for _, _, ok in stats.tested_pairs)


def test_reused_verdicts_equal_the_test_on_the_relation_as_it_stood(monkeypatch):
    # replay each pass: every recorded verdict, run or reused, must be the
    # verdict of the union of the pair's columns on the draft as it stood at
    # that test, and some verdicts must be reused
    calls = []
    pair_test = dowker.reducer.is_strong_collapsible

    def counting(*args):
        calls.append(args[3])
        return pair_test(*args)

    monkeypatch.setattr(dowker.reducer, "is_strong_collapsible", counting)
    rng = random.Random(181)
    inputs = [random_irreducible_relation(rng) for _ in range(300)]
    inputs += [with_repeats(rng, random_irreducible_relation(rng)) for _ in range(100)]
    tests = 0
    for r in inputs:
        r = r.make_column_irreducible()
        d = _Draft.of(r)
        stats = ReductionStats()
        stream = _steps(d, stats)
        seen = 0
        while True:
            # the draft only changes at a merge, which is the last test
            # recorded before the stream yields
            state = copy.deepcopy(d)
            rep = next(stream, None)
            new = stats.tested_pairs[seen:]
            for n, (a, b, ok) in enumerate(new):
                x, y = state.row_labels.index(a), state.row_labels.index(b)
                assert is_strong_collapsible(state, set(state.rows[x]) | set(state.rows[y])) == ok
                assert ok == (rep is not None and n == len(new) - 1)
            seen += len(new)
            if rep is None:
                break
        tests += stats.contractibility_tests
    hits = tests - len(calls)
    # 487 of 4102 tests reuse a verdict
    assert hits > 400 and tests > 4000


@pytest.mark.parametrize("toplexes, dups, faces", [
    (gen_torus_grid(20, 30), 0, 1184),
    (gen_sphere_uv(24, 21), 27, 929),
])
def test_a_merge_makes_no_domination_check(monkeypatch, toplexes, dups, faces):
    # a merge compares the few cone-row columns inside both stars with the
    # cone row's columns and looks up no superset on the other axis; the uv
    # sphere's merges remove duplicate columns as well as faces
    checks = []
    in_merge = []
    dominated = relation_module._dominated
    merge = dowker.reducer._merge

    def counting(sets, other, i, within):
        checks.append(bool(in_merge))
        return dominated(sets, other, i, within)

    def marked(*args):
        in_merge.append(True)
        try:
            return merge(*args)
        finally:
            in_merge.pop()

    monkeypatch.setattr(relation_module, "_dominated", counting)
    monkeypatch.setattr(dowker.reducer, "_merge", marked)
    _, stats, log = reduce(Relation.from_toplexes(toplexes))
    assert stats.steps_applied == len(log) > 400
    assert sum(checks) == 0
    assert sum(rep.duplicates_merged for rep in log) == dups
    assert sum(rep.faces_absorbed for rep in log) == faces
    assert dups + faces == stats.cols_before - stats.cols_after



def test_merge_clean_up_matches_the_scan_of_every_cone_column(monkeypatch):
    # the merge tests only the cone row's columns whose other rows lie in
    # both stars; at every step it must find the faces and the duplicates
    # that the definition finds among all the cone row's columns
    absorbed = dowker.reducer._absorbed
    found = {"calls": 0, "faces": 0, "dups": 0}

    def checking(cols, union, inner):
        faces, dups = absorbed(cols, union, inner)
        assert (sorted(faces), sorted(dups)) == faces_and_duplicates(cols, union)
        found["calls"] += 1
        found["faces"] += len(faces)
        found["dups"] += len(dups)
        return faces, dups

    monkeypatch.setattr(dowker.reducer, "_absorbed", checking)
    rng = random.Random(181)
    inputs = [random_irreducible_relation(rng) for _ in range(300)]
    inputs += [Relation.from_toplexes(t) for t in
               (gen_torus_grid(4, 4), gen_torus_grid(12, 16), gen_sphere_uv(24, 21))]
    steps = sum(reduce(r)[1].steps_applied for r in inputs)
    assert found["calls"] == steps > 1000
    assert found["faces"] > 1000 and found["dups"] > 27

def test_reduce_lists_two_hop_rows_for_few_rows_on_a_torus(monkeypatch):
    # reduce reads the budget's two-hop counts from the star rows it lists
    # once per input row, so only the stream's rare two-hop partner lists
    # remain; reading them through the columns would list one per input row
    listed = []
    two_hop = dowker.reducer._two_hop_rows

    def counting(r, one):
        listed.append(len(one))
        return two_hop(r, one)

    monkeypatch.setattr(dowker.reducer, "_two_hop_rows", counting)
    _, stats, _ = reduce(Relation.from_toplexes(gen_torus_grid(20, 30)))
    assert stats.steps_applied > 500
    assert len(listed) < stats.steps_applied / 10


def test_reduce_reports_the_budget_of_its_input():
    # reduce takes the budget from its own star pass; it must be the public
    # budget, and that must be half the two-hop counts listed through the
    # columns
    rng = random.Random(173)
    inputs = [random_irreducible_relation(rng) for _ in range(300)]
    inputs += [Relation.from_toplexes(gen_torus_grid(m, n)) for m, n in ((4, 4), (12, 16))]
    two_hop = dowker.reducer._two_hop_rows
    for r in inputs:
        budget = comparison_budget(r)
        assert reduce(r)[1].comparison_budget == budget
        assert budget == sum(len(two_hop(r, _star_rows(r, i))) - 1
                             for i in range(r.nrows)) // 2


# ----------------------------------------------------------------------
# reduction_step

def test_fan_merge_step_golden():
    r = fan_relation()
    out, rep = reduction_step(r, 2, 3)
    assert out.to_dense() == FAN_MERGED_DENSE
    assert rep.pair == ("x3", "x4")
    assert rep.faces_absorbed == 0 and rep.duplicates_merged == 0
    assert rep.cols_before == 6 and rep.cols_after == 6
    assert verify_step_equations(r, out, rep)


def test_fan_merge_star_sizes():
    # by hand on the dense matrix: the union of the two stars covers all six
    # vertices; after the merge the new star has 5 vertices and 4 toplexes
    r = fan_relation()
    K = complex_of(r)
    from _util import closed_star
    union_star = closed_star(K, "x3") | closed_star(K, "x4")
    vertices = {v for s in union_star for v in s}
    assert len(vertices) == 6
    out, rep = reduction_step(r, 2, 3)
    assert rep.delta_z == 6
    assert rep.epsilon_z == 4
    z_star = closed_star(complex_of(out), rep.z_label)
    assert len({v for s in z_star for v in s}) == 5


def test_duplicate_merge():
    # two triangles differing only in the merged vertex become one toplex
    r = Relation.from_toplexes([("x1", "a", "b"), ("x2", "a", "b")])
    xi, xj = r.row_labels.index("x1"), r.row_labels.index("x2")
    out, rep = reduction_step(r, xi, xj)
    assert out.ncols == 1
    assert rep.duplicates_merged == 1 and rep.faces_absorbed == 0
    assert rep.epsilon_z == 1
    assert sorted(out.toplexes()[0]) == ["a", "b", rep.z_label]
    assert verify_step_equations(r, out, rep)


def test_merge_without_column_loss():
    # the merged toplex {z,a} is contained in no other column
    r = Relation.from_toplexes([("x1", "x2", "a"), ("a", "b")])
    out, rep = reduction_step(r, 0, 1)
    assert rep.faces_absorbed == 0 and rep.duplicates_merged == 0
    assert out.ncols == 2
    assert complex_of(out) == {frozenset(s) for s in
                               [{rep.z_label}, {"a"}, {"b"}, {rep.z_label, "a"}, {"a", "b"}]}


def test_face_absorption():
    # {x1,x2,a} shrinks to {z,a}, which the other merged column swallows
    r = Relation.from_toplexes([("x1", "x2", "a"), ("x1", "a", "b")])
    out, rep = reduction_step(r, 0, 1)
    assert rep.faces_absorbed == 1 and rep.duplicates_merged == 0
    assert out.ncols == 1
    assert sorted(out.toplexes()[0]) == ["a", "b", rep.z_label]
    assert verify_step_equations(r, out, rep)


def test_step_leaves_far_vertices_alone():
    # d and e share nothing with the merged pair
    r = Relation.from_toplexes([("a", "b"), ("a", "c"), ("d", "e")])
    xi, xj = r.row_labels.index("b"), r.row_labels.index("c")
    out, rep = reduction_step(r, xi, xj)
    assert rep.duplicates_merged == 1
    assert verify_step_equations(r, out, rep)
    for v in ("d", "e"):
        i, j = r.row_labels.index(v), out.row_labels.index(v)
        assert len(r.row(i)) == len(out.row(j))


def test_step_requires_distinct_rows():
    with pytest.raises(ValueError):
        reduction_step(fan_relation(), 1, 1)


def test_step_rejects_out_of_range_rows():
    r = fan_relation()
    for xi, xj in ((0, r.nrows), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="row index out of range"):
            reduction_step(r, xi, xj)



def test_reduce_and_step_clean_up_a_column_reducible_relation():
    # the merge's clean-up is exact only on a column-irreducible relation,
    # so reduce and reduction_step run on the clean-up of any other input:
    # a repeated column, a column inside another, and reducible random
    # relations, with and without repeated rows and columns, give what
    # their clean-up gives
    rng = random.Random(191)
    inputs = [Relation("ab", "pq", [[0, 1], [0, 1]]),
              Relation("ab", "pq", [[0, 1], [1]])]
    inputs += [random_relation(rng) for _ in range(100)]
    inputs += [with_repeats(rng, random_irreducible_relation(rng)) for _ in range(100)]
    inputs = [r for r in inputs if not r.is_column_irreducible() and r.nrows > 1]
    assert len(inputs) > 80
    for r in inputs:
        clean = r.make_column_irreducible()
        # ReductionStats compares every field, tested_pairs and both
        # histories included
        assert reduce(r) == reduce(clean)
        assert reduction_step(r, 0, 1) == reduction_step(clean, 0, 1)


def test_fresh_cone_labels_count_up():
    r = Relation.from_toplexes([("z0", "a"), ("a", "b")])
    out, rep = reduction_step(r, 0, 1)
    assert rep.z_label == "z1"
    out2, rep2 = reduction_step(out, 0, 1)
    assert rep2.z_label == "z2"


def test_cone_label_after_a_very_long_z_label():
    # int() refuses a 5000-digit string, so the label is counted as digits
    for digits, fresh in (("0", "1"), ("0009", "10"),
                          ("9" * 5000, "1" + "0" * 5000),
                          ("1" * 5000, "1" * 4999 + "2"),
                          ("0" * 4999 + "9", "10")):
        r = Relation(["z" + digits, "a"], ["t0"], [[0], [0]])
        out, stats, reports = reduce(r)
        assert stats.steps_applied == 1
        assert out.row_labels[0] not in r.row_labels
        assert reports[0].z_label == out.row_labels[0] == "z" + fresh


def test_step_classification_matches_pairwise_reference():
    # after substituting the cone vertex for the pair in the merged row's
    # columns, a dominated column is a duplicate when its vertex set equals a
    # kept column's and a face otherwise
    rng = random.Random(53)
    totals = [0, 0]
    for _ in range(300):
        r = random_irreducible_relation(rng)
        if r.nrows < 2:
            continue
        xi, xj = rng.sample(range(r.nrows), 2)
        out, rep = reduction_step(r, xi, xj)
        union = set(r.row(xi)) | set(r.row(xj))
        pair = {r.row_labels[xi], r.row_labels[xj]}
        sets = [{r.row_labels[i] for i in r.col(c)} for c in range(r.ncols)]
        sets = [(s - pair) | {rep.z_label} if c in union else s
                for c, s in enumerate(sets)]
        dom = first_dominators(sets, union)
        kept = [c for c in dom if dom[c] is None]
        gone = [c for c in dom if dom[c] is not None]
        dups = sum(1 for c in gone if any(sets[k] == sets[c] for k in kept))
        assert (rep.duplicates_merged, rep.faces_absorbed) == (dups, len(gone) - dups)
        assert out.col_labels == tuple(l for c, l in enumerate(r.col_labels) if c not in gone)
        totals[0] += dups
        totals[1] += len(gone) - dups
    assert min(totals) > 0


def test_audit_rejects_tampered_reports():
    r = fan_relation()
    out, rep = reduction_step(r, 2, 3)
    assert verify_step_equations(r, out, rep)
    for field, delta in [("delta_z", 1), ("epsilon_z", -1),
                         ("faces_absorbed", 1), ("cols_after", 1)]:
        bad = rep._replace(**{field: getattr(rep, field) + delta})
        assert not verify_step_equations(r, out, bad)
    assert not verify_step_equations(r, out, rep._replace(pair=("x1", "x2")))


def test_step_reports_are_immutable_with_named_fields_in_order():
    out, rep = reduction_step(fan_relation(), 2, 3)
    fields = ("pair", "z_label", "faces_absorbed", "duplicates_merged",
              "delta_z", "epsilon_z", "cols_before", "cols_after")
    assert StepReport._fields == fields
    assert repr(rep) == "StepReport(" + ", ".join(
        f"{f}={getattr(rep, f)!r}" for f in fields) + ")"
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(rep, f, getattr(rep, f))


# ----------------------------------------------------------------------
# reduce

def test_single_toplex_reduces_to_point_with_oracle_checks():
    r = Relation.from_toplexes([("a", "b", "c")])
    seen = []
    for before, after, rep in step_snapshots(r):
        # the oracle certifies every step on its own snapshots
        assert betti_gf2(before.toplexes(), 2) == betti_gf2(after.toplexes(), 2)
        seen.append(betti_gf2(after.toplexes(), 2))
    out, stats, log = reduce(r)
    assert out.shape == (1, 1)
    assert stats.steps_applied == 2
    assert seen == [(1, 0, 0), (1, 0, 0)]


def test_stream_before_is_the_previous_after():
    # the first step's before is the input and each later one the previous
    # step's after; each pair is the step the report describes, and the
    # stream yields the steps reduce logs
    rng = random.Random(97)
    inputs = [random_irreducible_relation(rng) for _ in range(60)]
    inputs.append(Relation.from_toplexes(gen_torus_grid(4, 4)))
    for r in inputs:
        calls = list(step_snapshots(r))
        out, stats, log = reduce(r)
        assert [rep for _, _, rep in calls] == log
        afters = [a for _, a, _ in calls]
        assert [b for b, _, _ in calls] == ([r] + afters)[:len(calls)]
        for before, after, rep in calls:
            assert betti_gf2(before.toplexes(), 3) == betti_gf2(after.toplexes(), 3)
            assert verify_step_equations(before, after, rep)
        assert ([r] + afters)[-1] == out


def test_tetra_boundary_untouched():
    r = Relation.from_toplexes(gen_simplex_boundary(2))
    out, stats, log = reduce(r)
    assert out == r
    assert stats.steps_applied == 0
    assert stats.contractibility_tests == 6 == stats.comparison_budget


def test_cube_sphere_reduces():
    r = Relation.from_toplexes(gen_sphere_cube())
    out, stats, log = reduce(r)
    assert betti_gf2(out.toplexes(), 2) == (1, 0, 1)
    assert out.nrows == r.nrows - stats.steps_applied
    assert out.nrows <= 6


def test_small_relations_preserve_betti():
    rng = random.Random(61)
    for _ in range(30):
        r = random_irreducible_relation(rng)
        out, stats, log = reduce(r)
        assert betti_gf2(r.toplexes(), 3) == betti_gf2(out.toplexes(), 3)
        assert out.nrows == r.nrows - stats.steps_applied


def test_reduce_is_deterministic():
    rng = random.Random(67)
    for _ in range(10):
        r = random_irreducible_relation(rng)
        out1, stats1, log1 = reduce(r)
        out2, stats2, log2 = reduce(r)
        assert out1 == out2
        assert log1 == log2
        assert stats1.tested_pairs == stats2.tested_pairs
        assert stats1.delta_max_history == stats2.delta_max_history


def test_reduce_without_records_builds_no_running_max(monkeypatch):
    # with the switch off no history is kept, and the maxima come from the
    # starting star sizes and the reports; on empty, one-row and merge-free
    # inputs too, they equal the histories' largest values
    built = []
    running_max = dowker.reducer._RunningMax

    def counting(values):
        built.append(1)
        return running_max(values)

    monkeypatch.setattr(dowker.reducer, "_RunningMax", counting)
    rng = random.Random(227)
    inputs = [Relation([], [], []), Relation.from_toplexes([("a",)]),
              Relation.from_toplexes(gen_simplex_boundary(5)),
              Relation.from_toplexes(gen_torus_grid(12, 16))]
    inputs += [random_irreducible_relation(rng) for _ in range(30)]
    for r in inputs:
        out, stats, log = reduce(r, records=False)
        assert built == []
        assert stats.tested_pairs == stats.delta_max_history == stats.epsilon_max_history == []
        full_out, full, full_log = reduce(r)
        assert len(built) == 2
        built.clear()
        assert (out, log) == (full_out, full_log)
        assert (stats.delta_max_seen, stats.epsilon_max_seen) \
            == (max(full.delta_max_history), max(full.epsilon_max_history))


def test_callbacks_do_not_change_the_result(monkeypatch):
    # freezing the draft after each merge the stream yields changes neither
    # the steps nor the result; reduce freezes the draft once, since each
    # pair is tested on a copy of its stars that is never frozen
    freezes = []
    freeze = relation_module._Draft.freeze

    def counting(self):
        freezes.append(self)
        return freeze(self)

    monkeypatch.setattr(relation_module._Draft, "freeze", counting)
    rng = random.Random(89)
    more_tests_than_steps = 0
    for _ in range(15):
        r = random_irreducible_relation(rng)
        freezes.clear()
        out, stats, log = reduce(r)
        assert len(freezes) == 1
        streamed = ReductionStats()
        calls = list(step_snapshots(r, streamed))
        assert [rep for _, _, rep in calls] == log
        assert (calls[-1][1] if calls else r) == out
        assert (streamed.contractibility_tests, streamed.tested_pairs,
                streamed.delta_max_history, streamed.epsilon_max_history) \
            == (stats.contractibility_tests, stats.tested_pairs,
                stats.delta_max_history, stats.epsilon_max_history)
        more_tests_than_steps += stats.contractibility_tests > stats.steps_applied
    assert more_tests_than_steps


def test_reduce_builds_one_relation(monkeypatch):
    built = []
    build = Relation._build.__func__

    def counting(cls, *args):
        built.append(args)
        return build(cls, *args)

    monkeypatch.setattr(Relation, "_build", classmethod(counting))
    rng = random.Random(113)
    inputs = [random_irreducible_relation(rng) for _ in range(40)]
    inputs.append(Relation.from_toplexes(gen_torus_grid(6, 8)))
    for r in inputs:
        built.clear()
        reduce(r)
        assert len(built) == 1


class _WeakRelation(Relation):
    """A relation that a weak reference can follow."""

    __slots__ = ("__weakref__",)


def torus_with_weak_ref(refs):
    """A 4 x 5 torus relation, with a weak reference to it appended to
    `refs`; nothing else holds it."""
    torus = Relation.from_toplexes(gen_torus_grid(4, 5))
    r = _WeakRelation(torus.row_labels, torus.col_labels, torus.rows)
    refs.append(weakref.ref(r))
    return r


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython 3.10 keeps a call's arguments on the caller's stack")
def test_reduce_releases_a_relation_no_one_else_holds_during_the_pass(
        monkeypatch, tmp_path, capsys):
    # nothing after the draft is made reads the input, so by the first merge
    # the stream yields, a relation no one else holds is gone: from the
    # library, and from the CLI with and without --check-betti
    refs = []
    released = []
    steps = dowker.reducer._steps

    def watching(*args):
        for rep in steps(*args):
            released.append(refs[-1]() is None)
            yield rep

    monkeypatch.setattr(dowker.reducer, "_steps", watching)
    # a plain call: pytest keeps the parts of an assert statement alive
    out, stats, log = reduce(torus_with_weak_ref(refs), records=False)
    assert out.shape == (7, 14) and log and released[0]
    monkeypatch.setattr(cli, "_load_relation", lambda path, fmt: torus_with_weak_ref(refs))
    for flags in ([], ["--check-betti"]):
        released.clear()
        argv = ["reduce", "--input", str(tmp_path / "unread"), "--format", "rel", "--json"]
        assert cli.main(argv + flags) == 0
        assert '"rows_after": 7' in capsys.readouterr().out and released[0]


def test_second_pass_replays_with_counted_cone_labels():
    # a second pass starts on z<n> row labels; its counted cone labels must
    # match the label scan that reduction_step makes on every step
    rng = random.Random(20260809)
    draws = [random_irreducible_relation(rng) for _ in range(300)]
    for k in (112, 162, 188):
        once, _, _ = reduce(draws[k])
        twice, _, log = reduce(once)
        final, results = replay_and_verify(once, log)
        assert log and all(results)
        assert final == twice


def test_every_step_passes_the_audit():
    rng = random.Random(71)
    for _ in range(25):
        r = random_irreducible_relation(rng)
        out, stats, log = reduce(r)
        final, results = replay_and_verify(r, log)
        assert all(results)
        assert final == out


def test_each_step_keeps_columns_irreducible_and_shrinking():
    rng = random.Random(73)
    for _ in range(20):
        r = random_irreducible_relation(rng)
        for _, after, rep in step_snapshots(r):
            assert after.is_column_irreducible()
            assert rep.cols_after <= rep.cols_before
            assert rep.cols_before - rep.cols_after \
                == rep.faces_absorbed + rep.duplicates_merged


def test_pair_accounting():
    # every tested pair appears exactly once; successes equal applied steps
    rng = random.Random(79)
    for _ in range(20):
        r = random_irreducible_relation(rng)
        out, stats, log = reduce(r)
        assert len(set(stats.tested_pairs)) == len(stats.tested_pairs)
        pairs_only = [(a, b) for a, b, _ in stats.tested_pairs]
        assert len(set(pairs_only)) == len(pairs_only)
        wins = [(a, b) for a, b, ok in stats.tested_pairs if ok]
        assert wins == [rep.pair for rep in log]
        assert stats.contractibility_tests <= stats.comparison_budget


def test_star_size_growth_bounded():
    rng = random.Random(83)
    for _ in range(20):
        r = random_irreducible_relation(rng)
        out, stats, log = reduce(r)
        for hist in (stats.delta_max_history, stats.epsilon_max_history):
            for prev, nxt in zip(hist, hist[1:]):
                assert nxt <= 2 * prev


def test_histories_match_star_size_reference():
    # the histories are updated per merge from the rows in the cone row's
    # star; every entry must equal a full recount on the relation it samples
    rng = random.Random(101)
    inputs = [random_irreducible_relation(rng) for _ in range(300)]
    inputs += [Relation.from_toplexes(gen_torus_grid(m, n)) for m, n in ((4, 4), (12, 16))]
    for r in inputs:
        for _ in range(2):  # the second pass starts on z<n> row labels
            afters = [a for _, a, _ in step_snapshots(r)]
            out, stats, log = reduce(r)
            expected = [star_size_maxima(rel) for rel in [r] + afters]
            assert list(zip(stats.delta_max_history, stats.epsilon_max_history)) == expected
            assert (stats.delta_max_seen, stats.epsilon_max_seen) \
                == tuple(max(hist) for hist in zip(*expected))
            r = out


def test_star_sizes_per_slot_match_a_recount(monkeypatch):
    # the step equations update each slot's counts, not only the maxima:
    # after every step, each live slot's star vertex and toplex counts must
    # equal a recount on the relation the step leaves, and a dead slot's 0
    made = []
    running_max = dowker.reducer._RunningMax

    def capturing(values):
        made.append(running_max(values))
        return made[-1]

    monkeypatch.setattr(dowker.reducer, "_RunningMax", capturing)
    rng = random.Random(139)
    inputs = [random_irreducible_relation(rng) for _ in range(300)]
    inputs += [Relation.from_toplexes(gen_torus_grid(m, n)) for m, n in ((4, 4), (12, 16))]
    steps = 0
    for r in inputs:
        for _ in range(2):  # the second pass starts on z<n> row labels
            slots = list(r.row_labels)
            made.clear()
            after = r
            for _, after, rep in step_snapshots(r):
                slots.append(rep.z_label)
                delta, epsilon = made
                pos = {label: i for i, label in enumerate(after.row_labels)}
                for k, label in enumerate(slots):
                    i = pos.get(label)
                    if i is None:
                        assert delta.values[k] == epsilon.values[k] == 0
                    else:
                        star = {v for c in after.row(i) for v in after.col(c)}
                        assert (delta.values[k], epsilon.values[k]) \
                            == (len(star), len(after.row(i)))
                steps += 1
            r = after
    assert steps > 1000


def _check_running_max(m, values):
    # `values` is the model list; `count` must be a Counter of it, zero
    # above its maximum, and `top` its maximum
    held = Counter(values)
    assert m.values == values
    assert m.top == max(values, default=0)
    assert all(m.count[v] == held[v] for v in range(len(m.count)))
    assert len(m.count) > max(values, default=0)


def test_running_max_lower_and_push_match_a_recount():
    # `lower` and `push` keep `values`, `count` and `top` equal to a recount
    # after every call.  In the fixed cases the lowered slot is the only one
    # holding `top`, so `top` walks down past values no slot holds
    running_max = dowker.reducer._RunningMax
    cases = [([7, 2, 0, 3], [("lower", 0, 1)], 3),
             ([7, 2, 7], [("lower", 0, 0), ("lower", 2, 1)], 2),
             ([7, 7], [("lower", 0, 0), ("lower", 1, 0)], 0),
             ([9, 1], [("push", 4), ("lower", 0, 0)], 4),
             ([3, 8], [("push", 12), ("lower", 2, 0), ("lower", 1, 2)], 3),
             ([], [("push", 5), ("lower", 0, 0)], 0),
             # lowering a slot to its own value changes nothing
             ([4, 6, 6], [("lower", 1, 6), ("lower", 0, 4), ("lower", 2, 3)], 6)]
    for values, ops, top in cases:
        m, values = running_max(values), list(values)
        _check_running_max(m, values)
        for op, *args in ops:
            if op == "lower":
                m.lower(*args)
                values[args[0]] = args[1]
            else:
                m.push(*args)
                values.append(*args)
            _check_running_max(m, values)
        assert m.top == top
    rng = random.Random(211)
    walks = 0
    for _ in range(400):
        values = [rng.randint(0, 9) for _ in range(rng.randint(0, 8))]
        m = running_max(values)
        _check_running_max(m, values)
        for _ in range(rng.randint(1, 30)):
            live = [k for k, v in enumerate(values) if v]
            if live and rng.random() < 0.7:
                k = rng.choice(live)
                v = rng.randrange(values[k])
                top = m.top
                m.lower(k, v)
                values[k] = v
                walks += m.top < top
            else:
                v = rng.randint(0, 14)
                m.push(v)
                values.append(v)
            _check_running_max(m, values)
    assert walks > 100


def test_history_upkeep_does_not_grow_with_row_count(monkeypatch):
    # a recount of every live row after each merge would make the star row
    # sets built per merge grow with the row count, about 3x from 192 to 600
    # rows
    calls = []
    star = dowker.reducer._star_rows

    def counting(r, i):
        calls.append(i)
        return star(r, i)

    monkeypatch.setattr(dowker.reducer, "_star_rows", counting)
    per_merge = []
    for m, n in ((12, 16), (20, 30)):
        r = Relation.from_toplexes(gen_torus_grid(m, n))
        calls.clear()
        _, stats, _ = reduce(r)
        per_merge.append(len(calls) / stats.steps_applied)
    assert per_merge[1] / per_merge[0] < 1.5


def test_budget_on_simplex_boundaries():
    for n in range(2, 6):
        r = Relation.from_toplexes(gen_simplex_boundary(n))
        v = n + 2
        assert comparison_budget(r) == v * (v - 1) // 2


def test_second_pass_can_shrink_further():
    # one pass does not revisit pairs, so merges made possible later are missed
    rng = random.Random(20260809)
    draws = [random_irreducible_relation(rng) for _ in range(300)]
    for k, once_shape, twice_shape in [(112, (8, 10), (7, 9)), (162, (6, 6), (5, 5)),
                                       (188, (6, 5), (3, 3))]:
        once, _, _ = reduce(draws[k])
        twice, _, _ = reduce(once)
        assert (once.shape, twice.shape) == (once_shape, twice_shape)
        assert betti_gf2(twice.toplexes(), 3) == betti_gf2(draws[k].toplexes(), 3)


def _merge_inputs():
    """Torus 20x30, the uv sphere 24x21, whose merges remove duplicate
    columns too, and 400 seeded random draws."""
    rng = random.Random(223)
    return ([Relation.from_toplexes(gen_torus_grid(20, 30)),
             Relation.from_toplexes(gen_sphere_uv(24, 21))]
            + [random_irreducible_relation(rng) for _ in range(400)])


def test_every_draft_row_stays_a_tuple_through_a_pass():
    # a merge replaces the tuples of the rows it edits and appends the cone
    # row as a tuple, so after every merge of a pass every live row of the
    # draft is a tuple, and an input row no merge edited is still the
    # relation's own tuple
    kept = replaced = dups = 0
    for r in _merge_inputs():
        d = _Draft.of(r)
        for rep in _steps(d, ReductionStats(), records=False):
            dups += rep.duplicates_merged
            live = [row for row in d.rows if row]
            assert all(type(row) is tuple for row in live)
            shared = sum(d.rows[i] is r.rows[i] for i in range(r.nrows))
            kept += shared
            replaced += len(live) - shared
    # 144,372 checks of a kept input tuple and 158,731 of a replaced or cone
    # row; 69 duplicate columns merged, 27 of them on the uv sphere
    assert kept > 140000 and replaced > 150000 and dups >= 27


def test_a_merge_replaces_only_rows_in_both_stars(monkeypatch):
    # `_merge` returns its report alone and edits no row in place: a row
    # whose tuple it kept holds the columns it held, and every row whose
    # tuple it replaced lies in both merged rows' stars, as `both` gives
    # them, or is the cone row
    merge = dowker.reducer._merge
    seen = {"merges": 0, "replaced": 0}

    def checking(d, xi, xj, union, both, delta, z, ncols):
        common = _star_rows(d, xi) & _star_rows(d, xj)
        assert both == common - {xi, xj}
        before = list(d.rows)
        held = [set(row) for row in before]
        rep = merge(d, xi, xj, union, both, delta, z, ncols)
        assert type(rep) is StepReport
        assert d.rows[xi] == d.rows[xj] == relation_module._DEAD
        assert type(d.rows[-1]) is tuple and len(d.rows) == len(before) + 1
        for k, row in enumerate(before):
            if k in (xi, xj) or not row:
                continue
            if d.rows[k] is row:
                assert set(row) == held[k]
            else:
                assert k in both and type(d.rows[k]) is tuple
                assert set(d.rows[k]) < held[k]
                seen["replaced"] += 1
        seen["merges"] += 1
        return rep

    monkeypatch.setattr(dowker.reducer, "_merge", checking)
    for r in _merge_inputs():
        reduce(r)
    # 2,637 merges replace 2,939 rows other than the cone row
    assert seen["merges"] > 2500 and seen["replaced"] > 2800


def test_reduce_peak_traced_memory_on_torus_60x80():
    # every draft row is a tuple, so no cone row or cleaned-up row is held
    # as a set: the traced peak of one `reduce` is 2.99-3.01 MiB on CPython
    # 3.10-3.13, against 4.49-4.51 MiB while those rows were sets
    r = Relation.from_toplexes(gen_torus_grid(60, 80))
    tracemalloc.start()
    try:
        out, _, log = reduce(r, records=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.shape, len(log)) == ((9, 18), 4791)
    assert peak <= 3.5 * 2**20


def test_a_second_pass_on_the_same_draft_matches_reduce_of_its_freeze():
    # the stream starts its counts, cone labels and live column count from
    # the draft, so a pass over a draft an earlier pass left, dead slots and
    # all, is the pass reduce makes on that draft's freeze
    rng = random.Random(20260809)
    inputs = [random_irreducible_relation(rng) for _ in range(300)]
    inputs.append(Relation.from_toplexes(gen_torus_grid(12, 16)))
    merged_again = []
    for k, r in enumerate(inputs):
        d = _Draft.of(r)
        list(_steps(d, ReductionStats()))
        out, stats, log = reduce(d.freeze())
        again = ReductionStats()
        assert list(_steps(d, again)) == log
        assert again.tested_pairs == stats.tested_pairs
        assert (again.delta_max_history, again.epsilon_max_history) \
            == (stats.delta_max_history, stats.epsilon_max_history)
        assert d.freeze() == out
        if log:
            merged_again.append(k)
    assert merged_again == [112, 162, 188]


def test_a_stream_stopped_early_leaves_the_replayed_prefix():
    # after k reports the draft holds exactly the first k logged merges
    r = Relation.from_toplexes(gen_torus_grid(4, 4))
    _, _, log = reduce(r)
    assert log
    for k in range(len(log) + 1):
        d = _Draft.of(r)
        assert list(islice(_steps(d, ReductionStats()), k)) == log[:k]
        final, results = replay_and_verify(r, log[:k])
        assert all(results)
        assert d.freeze() == final


def test_degenerate_inputs():
    out, stats, log = reduce(Relation((), (), ()))
    assert out.shape == (0, 0)
    assert stats.steps_applied == 0 and stats.contractibility_tests == 0
    single = Relation.from_toplexes([("a",)])
    out, stats, log = reduce(single)
    assert out == single


def test_disconnected_components_reduce_independently():
    # cross-component pairs share no vertex, so they are never candidates;
    # each full-simplex component collapses to its own point
    r = Relation.from_toplexes([("a", "b", "c"), ("p", "q", "r")])
    out, stats, log = reduce(r)
    assert out.shape == (2, 2)
    assert betti_gf2(out.toplexes(), 2) == (2, 0, 0)


def test_step_log_format():
    r = fan_relation()
    out, rep = reduction_step(r, 2, 3)
    assert format_step_log([rep]) == \
        "STEP 1: merge x3 x4 -> z0 cols 6->6 dup 0 face 0\n"
    assert format_step_log([]) == ""
