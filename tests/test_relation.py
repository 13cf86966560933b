"""Relation construction, restriction, mutation, clean-up and text format."""

import random

import pytest

from dowker import ParseError, Relation, ToplexList, gen_torus_grid, reduction_step
from dowker import relation as relation_module
from dowker.reducer import _absorbed
from _util import (FAN_DENSE, FAN_MERGED_DENSE, FAN_STAR_DENSE, FAN_TOPLEXES,
                   closed_star, complex_of, faces_and_duplicates, fan_relation,
                   first_dominators, random_irreducible_relation, random_relation,
                   random_toplex_list, with_repeats)


# ----------------------------------------------------------------------
# from_toplexes

def test_fan_matrix():
    r = fan_relation()
    assert r.shape == (6, 6)
    assert r.row_labels == ("x1", "x2", "x3", "x4", "x5", "x6")
    assert r.to_dense() == FAN_DENSE


def test_single_point():
    r = Relation.from_toplexes([("a",)])
    assert r.to_dense() == [[1]]
    assert r.row_labels == ("a",)


def test_contained_and_duplicate_toplexes_dropped():
    # brute-force subset scan: {b} < {a,b}, second {a,b} duplicates the first
    tops = [("a", "b"), ("b",), ("a", "b")]
    sets = [frozenset(t) for t in tops]
    surviving = [s for i, s in enumerate(sets)
                 if not any((s < u) or (s == u and j < i)
                            for j, u in enumerate(sets) if j != i)]
    assert surviving == [frozenset({"a", "b"})]
    r = Relation.from_toplexes(tops)
    assert r.shape == (2, 1)
    assert r.to_dense() == [[1], [1]]


def test_empty_toplex_rejected():
    with pytest.raises(ValueError):
        Relation.from_toplexes([("a",), ()])


def test_from_toplexes_accepts_toplex_list():
    assert Relation.from_toplexes(ToplexList(FAN_TOPLEXES)) == fan_relation()
    # a ToplexList hands over the masks it normalised; the relation must be
    # the one built from the maximal toplexes, in the list's vertex order
    rng = random.Random(97)
    for _ in range(200):
        tops = random_toplex_list(rng)
        dom = first_dominators([set(t) for t in tops])
        kept = [t for i, t in enumerate(tops) if dom[i] is None]
        listed = ToplexList(tops)
        order = listed.vertex_names
        expected = Relation(order, [f"t{j}" for j in range(len(kept))],
                            [[j for j, t in enumerate(kept) if v in t] for v in order])
        assert Relation.from_toplexes(listed) == expected
        assert Relation.from_toplexes(tops) == Relation.from_toplexes(ToplexList(tops))


# ----------------------------------------------------------------------
# restrict_to_columns

def test_fan_union_star_restriction():
    r = fan_relation()
    cols = set(r.row(2)) | set(r.row(3))
    assert sorted(cols) == [1, 2, 3, 4]
    sub = r.restrict_to_columns(cols)
    assert sub.relation.to_dense() == FAN_STAR_DENSE
    assert sub.parent_cols == (1, 2, 3, 4)
    assert sub.parent_rows == (0, 1, 2, 3, 4, 5)


def test_restrict_to_all_columns_is_identity():
    r = fan_relation()
    sub = r.restrict_to_columns(range(r.ncols))
    assert sub.relation == r


def test_restrict_identity_matrix_to_one_column():
    r = Relation(["a", "b", "c"], ["p", "q", "s"], [[0], [1], [2]])
    sub = r.restrict_to_columns({0})
    assert sub.relation.shape == (1, 1)
    assert sub.relation.row_labels == ("a",)
    assert sub.parent_rows == (0,)


def test_restrict_rejects_bad_input():
    r = fan_relation()
    with pytest.raises(ValueError):
        r.restrict_to_columns(set())
    with pytest.raises(ValueError):
        r.restrict_to_columns({0, 99})


def test_restriction_matches_union_of_stars():
    # the sub-relation's complex must equal the union of closed stars,
    # both expanded by brute force
    rng = random.Random(7)
    for _ in range(60):
        r = random_relation(rng)
        K = complex_of(r)
        size = 1 if r.nrows == 1 else rng.choice([1, 2])
        picked = sorted(rng.sample(range(r.nrows), size))
        cols = set()
        for i in picked:
            cols |= set(r.row(i))
        sub = r.restrict_to_columns(cols).relation
        expected = set()
        for i in picked:
            expected |= closed_star(K, r.row_labels[i])
        assert complex_of(sub) == expected


def dense_restriction(r, cols):
    """The restriction of r to the ascending column list `cols`, built from
    the dense matrix: rows meeting the selection, in ascending order."""
    dense = r.to_dense()
    rows = tuple(i for i in range(r.nrows) if any(dense[i][c] for c in cols))
    return rows, Relation([r.row_labels[i] for i in rows], [r.col_labels[c] for c in cols],
                          [[k for k, c in enumerate(cols) if dense[i][c]] for i in rows])


def test_restriction_freezes_without_copying_the_relation(monkeypatch):
    # the result equals a restriction built from the dense matrix, and no
    # draft is made on the way
    rng = random.Random(71)
    seen = []
    of = relation_module._Draft.of.__func__

    def recording(cls, r):
        seen.append(r)
        return of(cls, r)

    monkeypatch.setattr(relation_module._Draft, "of", classmethod(recording))
    for _ in range(200):
        r = random_relation(rng)
        if rng.random() < 0.5:
            r = with_repeats(rng, r)
        cols = sorted(rng.sample(range(r.ncols), rng.randint(1, r.ncols)))
        rows, expected = dense_restriction(r, cols)
        sub = r.restrict_to_columns(cols + cols[:1])
        assert sub.relation == expected
        assert sub.parent_rows == rows and sub.parent_cols == tuple(cols)
    assert seen == []


def _set_draft(r):
    """A draft of r with set rows, as the collapse fixpoint has them, so
    `_drop` can take members out of either axis."""
    return relation_module._Draft(list(r.row_labels), r.col_labels,
                                  list(map(set, r.rows)), list(map(set, r.cols)))


def test_draft_restriction_skips_dead_slots():
    # a draft with dropped rows and columns and an appended row, frozen on
    # ids that include dead columns, equals the dense restriction of its
    # whole freeze to the live ones, and holds no empty row or column
    rng = random.Random(73)
    checked = 0
    for _ in range(300):
        r = random_relation(rng)
        d = _set_draft(r)
        for i in rng.sample(range(r.nrows), rng.randint(0, r.nrows - 1)):
            relation_module._drop(d.rows, d.cols, i)
        for c in rng.sample(range(r.ncols), rng.randint(0, r.ncols - 1)):
            # keep every live row non-empty, as every draft edit does
            if all(len(d.rows[i]) > 1 for i in d.cols[c]):
                relation_module._drop(d.cols, d.rows, c)
        live = [c for c, col in enumerate(d.cols) if col]
        added = set(rng.sample(live, rng.randint(1, len(live))))
        for c in added:
            d.cols[c].add(len(d.rows))
        d.rows.append(added)
        d.row_labels.append("z")
        frozen = d.freeze()
        cols = set(rng.sample(range(r.ncols), rng.randint(1, r.ncols)))
        picked = [k for k, c in enumerate(live) if c in cols]
        sub = relation_module._freeze(d, cols)
        assert all(sub.rows) and all(sub.cols)
        if picked:
            checked += 1
            assert sub == dense_restriction(frozen, picked)[1]
        else:
            assert sub.shape == (0, 0)
    assert checked > 200


def test_draft_rows_are_copied_on_write():
    # a draft of a relation shares its row tuples, and dropping rows leaves
    # every other row the relation's own tuple; a dropped column, cut here
    # as a merge's clean-up cuts it, replaces only the rows that held it
    rng = random.Random(79)

    def drop_columns(d):
        """Drop some of d's columns, replacing the tuple of each row that
        held one; the rows that lost one."""
        edited = set()
        for c in rng.sample(range(len(d.cols)), rng.randint(0, len(d.cols) - 1)):
            # keep every live row non-empty, as every draft edit does
            if d.cols[c] and all(len(d.rows[i]) > 1 for i in d.cols[c]):
                edited |= d.cols[c]
                for i in d.cols[c]:
                    d.rows[i] = tuple([b for b in d.rows[i] if b != c])
                d.cols[c] = relation_module._DEAD
        return edited

    shared = copied = 0
    for _ in range(300):
        r = random_relation(rng)
        d = relation_module._Draft.of(r)
        assert all(d.rows[i] is r.rows[i] for i in range(r.nrows))
        for i in rng.sample(range(r.nrows), rng.randint(0, r.nrows - 1)):
            relation_module._drop(d.rows, d.cols, i)
        edited = drop_columns(d)
        for i in range(r.nrows):
            if not d.rows[i]:
                continue
            assert sorted(d.rows[i]) == [c for c in r.rows[i] if d.cols[c]]
            if i not in edited:
                assert d.rows[i] is r.rows[i]
        shared += sum(d.rows[i] is r.rows[i] for i in range(r.nrows))
        copied += sum(i in edited for i in range(r.nrows) if d.rows[i])
    # 520 tuple rows shared, 307 rows replaced
    assert shared > 300 and copied > 300


# ----------------------------------------------------------------------
# add_row / remove_rows

def test_fan_add_cone_row():
    r = fan_relation()
    rp = r.add_row("z", {1, 2, 3, 4})
    assert rp.to_dense() == FAN_DENSE + [[0, 1, 1, 1, 1, 0]]
    assert rp.row_labels[-1] == "z"


def test_add_full_row_makes_cone():
    from dowker import is_strong_collapsible
    r = fan_relation()
    rp = r.add_row("apex", range(r.ncols))
    assert is_strong_collapsible(rp)


def test_add_row_to_identity_gives_path():
    r = Relation(["a", "b"], ["p", "q"], [[0], [1]])
    rp = r.add_row("z", {0, 1})
    assert rp.shape == (3, 2)
    assert complex_of(rp) == {frozenset({"a"}), frozenset({"b"}), frozenset({"z"}),
                              frozenset({"a", "z"}), frozenset({"b", "z"})}


def test_add_row_rejects_duplicate_label_and_empty_cols():
    r = fan_relation()
    with pytest.raises(ValueError):
        r.add_row("x1", {0})
    with pytest.raises(ValueError):
        r.add_row("z", set())


def test_add_row_matches_appending_to_the_dense_matrix():
    rng = random.Random(79)
    for _ in range(300):
        r = random_relation(rng)
        if rng.random() < 0.5:
            r = with_repeats(rng, r)
        cols = [rng.randrange(r.ncols) for _ in range(rng.randint(1, 2 * r.ncols))]
        expected = Relation(r.row_labels + ("z",), r.col_labels,
                            list(r.rows) + [cols])
        grown = r.add_row("z", iter(cols))
        assert grown == expected
        assert grown.cols == expected.cols
        assert grown.to_dense() == r.to_dense() + [[int(c in cols) for c in range(r.ncols)]]


def test_fan_remove_merged_pair():
    r = fan_relation().add_row("z", {1, 2, 3, 4})
    rpp = r.remove_rows(["x3", "x4"])
    assert rpp.to_dense() == FAN_MERGED_DENSE
    assert rpp.row_labels == ("x1", "x2", "x5", "x6", "z")


def test_remove_nothing():
    r = fan_relation()
    assert r.remove_rows([]) is r


def test_remove_only_row_gives_empty_relation():
    r = Relation.from_toplexes([("a",)])
    out = r.remove_rows(["a"])
    assert out.shape == (0, 0)


def test_remove_rows_drops_orphaned_columns():
    r = Relation.from_toplexes([("a", "b"), ("c",)])
    out = r.remove_rows(["c"])
    assert out.shape == (2, 1)
    assert out.col_labels == ("t0",)


def test_remove_unknown_label():
    with pytest.raises(ValueError):
        fan_relation().remove_rows(["nope"])


# ----------------------------------------------------------------------
# transpose

def test_transpose_swaps_axes_and_matches_dual_complex():
    r = fan_relation()
    t = r.transpose()
    assert t.shape == (6, 6)
    assert t.row_labels == r.col_labels
    # the dual complex: column sets sharing a row, expanded by brute force
    dual = set()
    for i in range(r.nrows):
        cols = [r.col_labels[c] for c in r.row(i)]
        for k in range(1, len(cols) + 1):
            from itertools import combinations
            for c in combinations(cols, k):
                dual.add(frozenset(c))
    assert complex_of(t) == dual


def test_transpose_involution():
    rng = random.Random(3)
    for _ in range(40):
        r = random_relation(rng)
        assert r.transpose().transpose() == r


def test_transpose_fixed_point_on_symmetric():
    r = Relation(["a", "b"], ["a", "b"], [[0, 1], [0, 1]])
    t = r.transpose()
    assert t.to_dense() == r.to_dense()


def test_transpose_row_vector():
    r = Relation(["a"], ["p", "q", "s"], [[0, 1, 2]])
    assert r.transpose().to_dense() == [[1], [1], [1]]


# ----------------------------------------------------------------------
# make_column_irreducible

def test_strict_containment_removed():
    r = Relation(["x1", "x2"], ["p", "q"], [[0, 1], [1]])
    out = r.make_column_irreducible()
    assert out.shape == (2, 1)
    assert out.col_labels == ("q",)


def test_duplicate_keeps_lower_index():
    r = Relation(["z", "x1"], ["p", "q"], [[0, 1], [0, 1]])
    out = r.make_column_irreducible()
    assert out.col_labels == ("p",)
    assert out.shape == (2, 1)


def test_scoped_cleanup_leaves_fan_merge_unchanged():
    # merging x3 and x4 leaves no column of the fan dominated
    rpp = fan_relation().add_row("z", {1, 2, 3, 4}).remove_rows(["x3", "x4"])
    assert rpp.make_column_irreducible() == rpp


def test_cleanup_renumbers_only_when_it_removes_a_column():
    # an irreducible relation is returned as it is; otherwise the result is
    # a fresh relation on the same rows, in the same order, holding the
    # columns that lie in no other and the first of equal ones
    rng = random.Random(29)
    for r in [Relation([], [], []), Relation.from_toplexes(gen_torus_grid(4, 5))] + [
            random_irreducible_relation(rng) for _ in range(40)]:
        assert r.make_column_irreducible() is r
    reducible = 0
    for _ in range(80):
        r = with_repeats(rng, random_relation(rng))
        out = r.make_column_irreducible()
        cols = list(map(set, r.cols))
        keep = [j for j, s in enumerate(cols)
                if not any(s < t or (s == t and k < j) for k, t in enumerate(cols))]
        if len(keep) == r.ncols:
            assert out is r
            continue
        reducible += 1
        pos = {j: k for k, j in enumerate(keep)}
        assert out == Relation(r.row_labels, [r.col_labels[j] for j in keep],
                               [[pos[c] for c in row if c in pos] for row in r.rows])
        assert out.row_labels == r.row_labels
    assert reducible > 40


def test_full_cleanup_postcondition():
    rng = random.Random(19)
    for _ in range(60):
        r = random_relation(rng)
        out = r.make_column_irreducible()
        for j1 in range(out.ncols):
            for j2 in range(out.ncols):
                if j1 != j2:
                    s1 = set(out.col(j1))
                    assert not s1 <= set(out.col(j2))


def test_scoped_cleanup_matches_full_cleanup_after_merge():
    # on a column-irreducible relation, cleaning only the merged row's
    # columns, as the pair-merge step does, restores full irreducibility
    rng = random.Random(11)
    for _ in range(80):
        r = random_irreducible_relation(rng)
        if r.nrows < 2:
            continue
        xi, xj = sorted(rng.sample(range(r.nrows), 2))
        union = set(r.row(xi)) | set(r.row(xj))
        stepped, rep = reduction_step(r, xi, xj)
        merged = r.add_row(rep.z_label, union).remove_rows(
            [r.row_labels[xi], r.row_labels[xj]])
        assert merged.ncols == r.ncols
        assert stepped == merged.make_column_irreducible()


def test_column_cleanup_matches_pairwise_reference():
    rng = random.Random(47)
    for n in range(200):
        r = random_relation(rng)
        if n % 2:
            r = with_repeats(rng, r)
        sets = [set(r.col(j)) for j in range(r.ncols)]
        assert r.is_column_irreducible() == all(
            not sets[a] <= sets[b] for a in range(r.ncols) for b in range(r.ncols) if a != b)
        for restrict in (None, rng.sample(range(r.ncols), rng.randint(1, r.ncols))):
            dom = first_dominators(sets, restrict)
            kept = [j for j in range(r.ncols) if dom.get(j) is None]
            pos = {j: k for k, j in enumerate(kept)}
            if restrict is None:
                out = r.make_column_irreducible()
                assert out.is_column_irreducible()
            else:
                # the scoped clean-up, as a merge runs it: only members of
                # `restrict` are compared, here with every row inside, and
                # those that go are dropped from a draft
                d = _set_draft(r)
                faces, dups = _absorbed(d.cols, restrict, set(range(r.nrows)))
                assert sorted(faces + dups) == sorted(j for j in restrict if dom[j] is not None)
                assert (sorted(faces), sorted(dups)) == faces_and_duplicates(d.cols, restrict)
                for c in faces + dups:
                    relation_module._drop(d.cols, d.rows, c)
                out = d.freeze()
            assert out == Relation(r.row_labels, [r.col_labels[j] for j in kept],
                                   [[pos[c] for c in r.row(i) if c in pos]
                                    for i in range(r.nrows)])


def test_column_clean_up_copies_no_draft(monkeypatch):
    # both the clean-up and the test select the maximal columns with
    # `_maximal`, on the relation's own tuples; on toplexes of one size
    # that makes no domination test at all
    rng = random.Random(151)
    seen = []
    of = relation_module._Draft.of.__func__

    def recording(cls, r):
        seen.append(r)
        return of(cls, r)

    monkeypatch.setattr(relation_module._Draft, "of", classmethod(recording))
    for _ in range(200):
        r = with_repeats(rng, random_relation(rng))
        r.make_column_irreducible()
        r.is_column_irreducible()
    assert seen == []
    dominated = relation_module._dominated
    calls = []

    def counting(*args):
        calls.append(args[2])
        return dominated(*args)

    monkeypatch.setattr(relation_module, "_dominated", counting)
    assert Relation.from_toplexes(gen_torus_grid(6, 6)).is_column_irreducible()
    assert calls == []


def test_extract_rebuild_identity():
    rng = random.Random(13)
    for _ in range(40):
        r = random_irreducible_relation(rng)
        rebuilt = Relation.from_toplexes(ToplexList(r.toplexes()))
        # the names are numbered in first-appearance order: map each rebuilt
        # row to r's row of the same label
        assert set(rebuilt.row_labels) == set(r.row_labels)
        dense = r.to_dense()
        assert rebuilt.to_dense() == [dense[r.row_index(label)]
                                      for label in rebuilt.row_labels]


# ----------------------------------------------------------------------
# construction validation

def test_constructor_rejections():
    with pytest.raises(ValueError):
        Relation(["a", "a"], ["p"], [[0], [0]])
    with pytest.raises(ValueError):
        Relation(["a", "b"], ["p", "p"], [[0], [1]])
    with pytest.raises(ValueError):
        Relation(["a"], ["p"], [[]])          # empty row
    with pytest.raises(ValueError):
        Relation(["a"], ["p", "q"], [[0]])    # column q uncovered
    with pytest.raises(ValueError):
        Relation(["a"], ["p"], [[3]])         # out of range
    with pytest.raises(ValueError, match="^row count does not match row label count$"):
        Relation(["a"], ["t"], [[0], [0]])


def test_value_contracts():
    # equal relations hash equal, compare unequal to other types, print
    # their shape, and the empty relation is its own transpose
    r = Relation(["a", "b"], ["t"], [[0], [0]])
    twin = Relation(["a", "b"], ["t"], [[0], [0]])
    assert r == twin and r is not twin and hash(r) == hash(twin)
    assert len({r, twin}) == 1
    assert r.__eq__("x") is NotImplemented and (r == "x") is False
    assert repr(r) == "Relation(2x1)"
    empty = Relation((), (), ())
    assert empty.transpose() is empty


def test_integer_like_indices_are_stored_as_ints():
    r = Relation(["a", "b"], ["p", "q"], [[False, True], [0]])
    assert r == Relation(["a", "b"], ["p", "q"], [[0, 1], [0]])
    assert r.to_text() == "2 2\na b\np q\n0 1\n0\n"
    assert r.add_row("z", [True]).row(2) == (1,)
    with pytest.raises(TypeError):
        Relation(["a"], ["p"], [[0.0]])


# ----------------------------------------------------------------------
# text format

def test_text_round_trip_bit_exact():
    rng = random.Random(23)
    for _ in range(25):
        r = random_relation(rng)
        text = r.to_text()
        assert Relation.from_text(text) == r
        assert Relation.from_text(text).to_text() == text


def test_text_round_trip_empty_relation():
    r = Relation((), (), ())
    assert Relation.from_text(r.to_text()) == r


def test_text_comments_ignored():
    r = fan_relation()
    lines = r.to_text().splitlines()
    lines.insert(1, "# a comment")
    assert Relation.from_text("\n".join(lines) + "\n") == r


def test_text_empty_row_rejected_with_line_number():
    text = "2 1\na b\np\n0\n\n"
    with pytest.raises(ParseError, match="line 5"):
        Relation.from_text(text)
    # an indented comment is skipped but counted, and a blank line is a row
    with pytest.raises(ParseError, match="^line 5: empty row$"):
        Relation.from_text("1 1\n  # c\na\np\n\n")


def test_text_bad_sizes_and_indices():
    with pytest.raises(ParseError):
        Relation.from_text("x y\na\np\n0\n")
    # str.isdigit() holds for "²", which int() refuses
    with pytest.raises(ParseError, match="line 1"):
        Relation.from_text("² 1\na\np\n0\n")
    with pytest.raises(ParseError, match="line 4"):
        Relation.from_text("1 1\na\np\n7\n")
    with pytest.raises(ParseError, match="ascending"):
        Relation.from_text("1 2\na\np q\n1 0\n")
    with pytest.raises(ParseError):
        Relation.from_text("2 1\na b\np\n0\n")  # missing row line
    # a count longer than int() converts (4300 digits) is refused at its line
    with pytest.raises(ParseError, match="^line 1: "):
        Relation.from_text("1" + "0" * 5000 + " 1\na\nt\n0\n")


def test_text_label_and_column_errors():
    # rows are checked as they are parsed; labels and columns once after
    cases = {"2 1\na a\np\n0\n0\n": "duplicate row labels",
             "1 2\na\np p\n0 1\n": "duplicate column labels",
             "2 2\na b\np q\n0\n0\n": "column 'q' has no incident row"}
    for text, message in cases.items():
        with pytest.raises(ParseError) as info:
            Relation.from_text(text)
        assert str(info.value) == message and info.value.line is None
    # a row both out of range and out of order is reported as out of range
    for row in ("5 0", "0 -1", "1 1 2"):
        with pytest.raises(ParseError, match="line 4: column index out of range"):
            Relation.from_text(f"1 2\na\np q\n{row}\n")
    with pytest.raises(ParseError, match="line 4: .* strictly ascending"):
        Relation.from_text("1 2\na\np q\n1 1\n")


def test_text_builds_both_orientations():
    rng = random.Random(37)
    for _ in range(25):
        r = with_repeats(rng, random_relation(rng))
        parsed = Relation.from_text(r.to_text())
        assert (parsed.rows, parsed.cols) == (r.rows, r.cols)
        assert all(type(c) is int for row in parsed.rows for c in row)
