"""Parsers, generators and the cover-to-relation builder."""

import random
import sys

import pytest

from dowker import relation
from dowker import (ParseError, Relation, ToplexList, betti_gf2,
                    enumerate_simplices, gen_simplex_boundary, gen_sphere_cube,
                    gen_sphere_uv, gen_torus_grid, parse_off,
                    parse_toplex_file, witness_relation)
from _util import (FAN_DENSE, edge_use_counts, first_dominators, random_relation,
                   random_toplex_file, random_toplex_list)

FAN_FILE = """\
# two triangles sharing an edge, with pendant edges
x1 x2
x1 x3
x2 x3 x4
x3 x4 x5
x4 x6
x5 x6
"""

TETRA_OFF = """\
OFF
4 4 6
0 0 0
1 0 0
0 1 0
0 0 1
3 0 1 2
3 0 1 3
3 0 2 3
3 1 2 3
"""


# ----------------------------------------------------------------------
# toplex files

def test_parse_fan_file():
    tops = parse_toplex_file(FAN_FILE)
    assert len(tops) == 6
    assert Relation.from_toplexes(tops).to_dense() == FAN_DENSE


def test_parse_single_point():
    tops = parse_toplex_file("a\n")
    assert tops.toplexes == (("a",),)
    # a `#` after the first name starts no comment
    assert parse_toplex_file(" a #b\n").toplexes == (("a", "#b"),)


def test_parse_normalizes_containment():
    tops = parse_toplex_file("a b\na b c\n")
    assert tops.toplexes == (("a", "b", "c"),)
    assert tops.vertex_names == ("a", "b", "c")


def test_parse_blank_line_rejected():
    with pytest.raises(ParseError, match="line 2"):
        parse_toplex_file("a b\n\nc d\n")
    # an indented comment is skipped but counted
    with pytest.raises(ParseError, match="^line 3: blank line in toplex file$"):
        parse_toplex_file("a b\n  # c\n\nc d\n")


def test_parse_duplicate_vertex_rejected():
    with pytest.raises(ParseError, match="line 3"):
        parse_toplex_file("a b\nc d\ne e\n")


def test_parse_matches_toplex_list_of_the_lines():
    rng = random.Random(71)
    dropped_first = 0
    for _ in range(500):
        text = random_toplex_file(rng)
        lines = [tuple(raw.split()) for raw in text.splitlines()
                 if not raw.lstrip().startswith("#")]
        dom = first_dominators([frozenset(t) for t in lines])
        names = tuple(dict.fromkeys(v for t in lines for v in t))
        index = {v: i for i, v in enumerate(names)}
        kept = tuple(lines[i] for i in dom if dom[i] is None)
        # the first line's vertices come first in the order, kept or not
        dropped_first += dom[0] is not None
        got, old = parse_toplex_file(text), ToplexList(lines)
        assert got.toplexes == old.toplexes == kept
        assert got.vertex_names == old.vertex_names == names
        assert (got.vertex_indices == old.vertex_indices
                == tuple(tuple(sorted(map(index.__getitem__, t))) for t in kept))
    assert dropped_first > 50


def test_domination_tests_only_for_toplexes_below_the_largest(monkeypatch):
    calls = []
    real = relation._dominated

    def counting(*args):
        calls.append(1)
        return real(*args)

    torus = gen_torus_grid(20, 30).to_text()
    monkeypatch.setattr(relation, "_dominated", counting)
    # equal sizes: duplicate removal alone, even with every line twice
    assert len(parse_toplex_file(torus + torus)) == 1200
    assert calls == []
    rng = random.Random(72)
    for _ in range(200):
        text = random_toplex_file(rng)
        lines = [raw.split() for raw in text.splitlines()
                 if not raw.lstrip().startswith("#")]
        largest = max(map(len, lines))
        smaller = sum(len(t) < largest for t in lines)
        calls.clear()
        parse_toplex_file(text)
        assert len(calls) <= smaller
        assert bool(calls) == bool(smaller)


def test_toplex_text_round_trip():
    for tops in (gen_sphere_cube(), gen_torus_grid(3, 4), gen_simplex_boundary(3)):
        again = parse_toplex_file(tops.to_text())
        assert again.toplexes == tops.toplexes
        assert again.vertex_names == tops.vertex_names


# ----------------------------------------------------------------------
# OFF meshes

def test_parse_tetrahedron_off():
    tops = parse_off(TETRA_OFF)
    assert len(tops) == 4
    assert all(len(t) == 3 for t in tops)
    assert betti_gf2(tops, 2) == (1, 0, 1)


def test_off_round_trip_of_generated_cube():
    cube = gen_sphere_cube()
    index = {v: i for i, v in enumerate(cube.vertex_names)}
    lines = ["OFF", f"{len(cube.vertex_names)} {len(cube)} 0"]
    lines += ["0.0 0.0 0.0" for _ in cube.vertex_names]
    lines += ["3 " + " ".join(str(index[v]) for v in t) for t in cube]
    tops = parse_off("\n".join(lines) + "\n")
    assert len(tops) == 12
    assert all(len(t) == 3 for t in tops)
    assert betti_gf2(tops, 2) == (1, 0, 1)


def test_off_quad_face_kept_whole():
    text = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
    tops = parse_off(text)
    assert tops.toplexes == (("0", "1", "2", "3"),)


def test_off_errors():
    with pytest.raises(ParseError):
        parse_off("NOFF\n1 0 0\n0 0 0\n")
    with pytest.raises(ParseError, match="out of range"):
        parse_off("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n")
    with pytest.raises(ParseError, match="truncated"):
        parse_off("OFF\n4 4 6\n0 0 0\n")
    # counts that pass a digit test but not int(), which also refuses more
    # than 4300 digits
    for counts in ("--5 1", "² 1", "1" + "0" * 5000 + " 1 0"):
        with pytest.raises(ParseError, match="line 2"):
            parse_off(f"OFF\n{counts}\n")
    with pytest.raises(ParseError, match="^line 2: negative count$"):
        parse_off("OFF\n-3 1\n")
    # the lines are read in order: vertex lines before face lines
    with pytest.raises(ParseError, match="^truncated OFF file: missing vertex line$"):
        parse_off("OFF\n5 0 0\n")
    with pytest.raises(ParseError, match="^line 6: face line must be integers$"):
        parse_off("OFF\n3 2\n0 0 0\n0 0 0\n0 0 0\n3 0 1 x\n")
    # comments and blank lines are skipped but counted
    with pytest.raises(ParseError, match="^line 8: face index 9 out of range$"):
        parse_off("OFF\n3 1\n0 0 0\n  # c\n\n1 0 0\n0 1 0\n3 0 1 9\n")


# ----------------------------------------------------------------------
# covers

def test_witness_edge():
    # element 2 lies in both sets, so the only maximal fingerprint is {A,B}
    r = witness_relation([("A", [1, 2]), ("B", [2, 3])])
    assert r.shape == (2, 1)
    assert r.to_dense() == [[1], [1]]
    assert betti_gf2(r.toplexes(), 1) == (1, 0)
    assert witness_relation({"A": [1, 2], "B": [2, 3]}) == r


def test_witness_disjoint_cover():
    r = witness_relation([("A", [1]), ("B", [2]), ("C", [3])])
    assert r.to_dense() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert betti_gf2(r.toplexes(), 1) == (3, 0)


def test_witness_all_sets_equal():
    r = witness_relation([("A", [1, 2]), ("B", [1, 2]), ("C", [1, 2])])
    assert r.shape == (3, 1)


def test_witness_labels_made_unique():
    # the elements 1 and "1" print the same, so the second label is primed
    r = witness_relation([("A", [1]), ("B", ["1"])])
    assert r.col_labels == ("1", "1'")
    assert r.to_dense() == [[1, 0], [0, 1]]


def test_witness_empty_set_rejected():
    with pytest.raises(ValueError):
        witness_relation([("A", [1]), ("B", [])])


def test_witness_duplicate_names_rejected():
    with pytest.raises(ValueError, match="^duplicate cover set names$"):
        witness_relation([("A", [1]), ("A", [2])])


def test_witness_always_column_irreducible():
    rng = random.Random(47)
    for _ in range(40):
        n_sets = rng.randint(1, 6)
        universe = range(rng.randint(1, 10))
        cover = []
        for i in range(n_sets):
            members = [e for e in universe if rng.random() < 0.5]
            cover.append((f"S{i}", members or [0]))
        r = witness_relation(cover)
        assert r.is_column_irreducible()


def test_witness_matches_nerve_on_random_covers():
    # brute-force nerve: a set family spans a simplex iff some element
    # witnesses their common intersection
    from itertools import combinations
    from _util import complex_of
    rng = random.Random(53)
    for _ in range(30):
        n_sets = rng.randint(1, 5)
        cover = [(f"S{i}", [e for e in range(8) if rng.random() < 0.4] or [0])
                 for i in range(n_sets)]
        r = witness_relation(cover)
        names = [name for name, _ in cover]
        sets = {name: set(elements) for name, elements in cover}
        nerve = set()
        for k in range(1, n_sets + 1):
            for group in combinations(names, k):
                common = set.intersection(*(sets[g] for g in group))
                if common:
                    nerve.add(frozenset(group))
        assert complex_of(r) == nerve


# ----------------------------------------------------------------------
# generators

def test_cube_sphere_counts():
    tops = gen_sphere_cube()
    assert len(tops.vertex_names) == 8
    assert len(tops) == 12
    assert betti_gf2(tops, 2) == (1, 0, 1)


def test_uv_sphere_counts_and_euler():
    tops = gen_sphere_uv(24, 21)
    assert len(tops.vertex_names) == 24 * 20 + 2 == 482
    assert len(tops) == 2 * 24 * 20 == 960
    counts = enumerate_simplices(tops, 2).counts()
    assert counts[0] - counts[1] + counts[2] == 2


def test_torus_counts():
    tops = gen_torus_grid(30, 40)
    assert len(tops.vertex_names) == 1200
    assert len(tops) == 2400


def test_generated_surfaces_are_closed():
    for tops in (gen_sphere_cube(), gen_sphere_uv(5, 4), gen_sphere_uv(3, 3),
                 gen_torus_grid(3, 3), gen_torus_grid(4, 4), gen_torus_grid(5, 7)):
        assert set(edge_use_counts(tops.toplexes).values()) == {2}


@pytest.mark.parametrize("m,n", [(3, 3), (4, 4), (5, 7)])
def test_torus_betti(m, n):
    assert betti_gf2(gen_torus_grid(m, n), 2) == (1, 2, 1)


def test_generator_parameter_validation():
    with pytest.raises(ValueError):
        gen_sphere_uv(2, 5)
    with pytest.raises(ValueError):
        gen_sphere_uv(5, 2)
    with pytest.raises(ValueError):
        gen_torus_grid(2, 5)
    with pytest.raises(ValueError):
        gen_simplex_boundary(0)


def test_simplex_boundary_facets():
    tops = gen_simplex_boundary(2)
    assert len(tops) == 4
    assert all(len(t) == 3 for t in tops)
    assert len(tops.vertex_names) == 4
    assert betti_gf2(tops, 2) == (1, 0, 1)


# ----------------------------------------------------------------------
# ToplexList basics

def test_toplex_list_validation():
    with pytest.raises(ValueError):
        ToplexList([("a", "a")])
    with pytest.raises(ValueError):
        ToplexList([()])


def test_toplex_list_equality_reads_vertex_order():
    t = ToplexList([("a", "b")])
    assert t == ToplexList([("a", "b")])
    # the same toplexes, but b is named first, in a toplex that is dropped
    other = ToplexList([("b",), ("a", "b")])
    assert other.toplexes == t.toplexes
    assert other.vertex_names == ("b", "a") and t.vertex_names == ("a", "b")
    assert t != other
    assert t != [("a", "b")] and t != "x"


def test_toplex_text_refuses_names_that_read_back_as_another_complex():
    # a name starting with `#` would turn its line into a comment, one with
    # whitespace would split into two vertices, and an empty one would
    # shorten its line: each is refused, as `Relation.to_text` refuses it
    for name in ("#a", "a b", ""):
        tops = ToplexList([(name, "b"), ("b", "c")])
        with pytest.raises(ValueError, match="cannot be written as a text token"):
            tops.to_text()
        with pytest.raises(ValueError, match="cannot be written as a text token"):
            Relation.from_toplexes(tops).to_text()


def test_toplex_list_keeps_earliest_duplicate():
    t = ToplexList([("a", "b"), ("b", "a")])
    assert t.toplexes == (("a", "b"),)


def test_toplex_list_normalisation_matches_pairwise_reference():
    rng = random.Random(53)
    for _ in range(100):
        tops = random_toplex_list(rng)
        # reordered copies: equal vertex sets under different tuples
        tops += [t[::-1] for t in rng.sample(tops, len(tops) // 3)]
        dom = first_dominators([frozenset(t) for t in tops])
        assert ToplexList(tops).toplexes == tuple(tops[i] for i in dom if dom[i] is None)


def test_toplex_lists_number_names_inside_the_normaliser(monkeypatch):
    # a ToplexList numbers and checks its names through
    # `relation._normalise_toplexes`, the one normaliser, as
    # `Relation.from_toplexes` does
    real, inside = relation._column, []
    target = relation._normalise_toplexes.__code__

    def watched(names, index):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not target:
            frame = frame.f_back
        inside.append(frame is not None)
        return real(names, index)

    monkeypatch.setattr(relation, "_column", watched)
    builds = (("list", lambda: ToplexList([("a", "b"), ("b", "c"), ("b", "a")]), 3),
              ("toplex", lambda: parse_toplex_file(FAN_FILE), 6),
              ("off", lambda: parse_off(TETRA_OFF), 4),
              ("torus", lambda: gen_torus_grid(4, 5), 40))
    for what, build, calls in builds:
        inside.clear()
        build()
        assert len(inside) == calls and all(inside), what


def test_toplex_list_numbers_as_from_toplexes():
    rng = random.Random(89)
    for _ in range(300):
        tops = random_toplex_list(rng)
        # reordered repeats and proper faces, shuffled in, so some vertices
        # are first seen in a dropped toplex
        tops += [tuple(rng.sample(t, len(t))) for t in rng.sample(tops, len(tops) // 3)]
        tops += [t[1:] for t in rng.sample(tops, len(tops) // 3) if len(t) > 1]
        rng.shuffle(tops)
        got, r = ToplexList(tops), Relation.from_toplexes(tops)
        assert got.vertex_names == r.row_labels
        assert got.vertex_indices == r.cols


def test_relation_round_trip_through_text_formats():
    # the parse derives its own vertex order, so compare the complexes
    from _util import complex_of
    rng = random.Random(59)
    for _ in range(20):
        r = random_relation(rng).make_column_irreducible()
        tops = ToplexList(r.toplexes())
        again = Relation.from_toplexes(parse_toplex_file(tops.to_text()))
        assert again.ncols == r.ncols
        assert complex_of(again) == complex_of(r)
