"""The GF(2) homology oracle: enumeration, boundary maps, rank, Betti."""

import random
import sys
import weakref
from itertools import chain, combinations

import pytest

from dowker import (Relation, SizeCapError, betti_gf2, enumerate_simplices,
                    gen_simplex_boundary, gen_sphere_cube, gen_sphere_uv,
                    gen_torus_grid, rank_gf2)
from dowker import cli, homology, relation
from dowker.relation import _other_axis
from _util import (FAN_TOPLEXES, betti_dense_reference, fan_relation,
                   random_relation, random_toplex_list, rank_by_rowspace,
                   simplices_of_columns, with_repeats)


def test_single_triangle_counts():
    cc = enumerate_simplices([("a", "b", "c")], 2)
    assert cc.counts() == (3, 3, 1)
    # by default the enumeration stops one level above the largest toplex
    assert enumerate_simplices([("a", "b", "c")]).counts() == (3, 3, 1)


def test_cube_sphere_counts_and_euler():
    cc = enumerate_simplices(gen_sphere_cube(), 2)
    assert cc.counts() == (8, 18, 12)
    assert 8 - 18 + 12 == 2


def test_fan_counts_match_brute_force():
    cc = enumerate_simplices(FAN_TOPLEXES, 2)
    brute = simplices_of_columns(FAN_TOPLEXES)
    for k, level in enumerate(cc.simplices_by_dim):
        assert len(level) == sum(1 for s in brute if len(s) == k + 1)


def test_enumeration_deduplicates_shared_faces():
    # the shared edge of two triangles appears once
    cc = enumerate_simplices([("a", "b", "c"), ("b", "c", "d")], 2)
    assert cc.counts() == (4, 5, 2)


def test_boundary_squares_to_zero():
    rng = random.Random(5)
    cases = [random_toplex_list(rng, max_vertices=8, max_toplexes=8, max_size=4)
             for _ in range(25)]
    for tops in cases:
        simplices = enumerate_simplices(tops, 3).simplices_by_dim
        assert simplices[0] == [(i,) for i in range(len(simplices[0]))]
        boundary = [None] + [list(homology._face_indices(simplices, k))
                             for k in range(1, len(simplices))]
        for k in range(1, len(simplices)):
            # the k+1 faces of each simplex, by index one dimension down, in
            # lexicographic vertex order
            assert len(boundary[k]) == len(simplices[k])
            for s, col in zip(simplices[k], boundary[k]):
                assert [simplices[k - 1][i] for i in col] == list(combinations(s, k))
                assert len(set(col)) == k + 1
        for k in range(1, len(simplices) - 1):
            for col in boundary[k + 1]:
                acc = set()
                for i in col:
                    acc ^= set(boundary[k][i])
                assert not acc


def test_size_cap():
    with pytest.raises(SizeCapError):
        enumerate_simplices([tuple(f"v{i}" for i in range(30))], 5, size_cap=100)


def test_rank_cases():
    assert rank_gf2([(0,), (1,), (2,)], 3) == 3
    assert rank_gf2([(0, 1), (0, 1)], 2) == 1
    assert rank_gf2([], 4) == 0 and rank_gf2([(), ()], 2) == 0
    # a triangle's edge cycle has rank 2; the heavy column has odd parity on
    # its component, which holds no ground edge
    assert rank_gf2([(0, 1), (1, 2), (0, 2), (0, 1, 2)], 3) == 3
    # (0, 1, 2) = (0,) + (1, 2): its parity on 0's component, tied to
    # ground, does not count
    assert rank_gf2([(0,), (1, 2), (0, 1, 2)], 3) == 2
    assert rank_gf2([(0, 1, 2), (0, 1, 2), (1, 2, 3)], 4) == 2
    # edge/vertex boundary of the triangle: rank 2 by exhaustive row span
    cc = enumerate_simplices([("a", "b"), ("a", "c"), ("b", "c")], 1)
    d1 = list(homology._face_indices(cc.simplices_by_dim, 1))
    assert len(d1) == 3 and all(len(col) == 2 for col in d1)
    rows = [[int(i in col) for col in d1] for i in range(len(cc.simplices_by_dim[0]))]
    assert rank_by_rowspace(rows) == 2
    assert rank_gf2(d1, 3) == 2


def test_rank_input_untouched():
    m = [[0, 1], [1], [0, 1, 2], [2, 3, 4]]
    copy = [list(col) for col in m]
    rank_gf2(m, 5)
    assert m == copy


def random_columns(rng, n, weights):
    """Random columns over coordinates 0..n-1, each weight drawn from
    `weights` (capped at n), as ascending index tuples."""
    return [tuple(sorted(rng.sample(range(n), min(rng.choice(weights), n))))
            for _ in range(rng.randint(0, 10))]


def test_rank_matches_transpose_and_oracle():
    # mixed weights, only graph edges (weight 1 or 2), only heavy columns,
    # and uniform 0/1 entries; each matrix and its transpose
    rng = random.Random(17)
    kinds = {"mixed": [0, 1, 2, 3, 4, 6], "graphic": [1, 2], "heavy": [3, 4, 5]}
    for _ in range(150):
        n = rng.randint(3, 8)
        sets = [random_columns(rng, n, w) for w in kinds.values()]
        sets.append([tuple(i for i in range(n) if rng.random() < 0.5)
                     for _ in range(rng.randint(0, 8))])
        for cols in sets:
            rows = [[int(i in col) for col in cols] for i in range(n)]
            transpose = [[j for j, col in enumerate(cols) if i in col] for i in range(n)]
            expect = rank_by_rowspace(rows)
            assert rank_gf2(cols, n) == expect
            assert rank_gf2(transpose, len(cols)) == expect


def test_transposed_rank_matches_rank_of_the_transpose():
    rng = random.Random(19)
    heavy = 0
    for _ in range(300):
        r = random_relation(rng)
        for rel in (r, with_repeats(rng, r)):
            levels = enumerate_simplices(rel).simplices_by_dim
            for k in range(1, len(levels)):
                n, m = len(levels[k - 1]), len(levels[k])
                columns = list(homology._face_indices(levels, k))
                transpose = _other_axis(columns, n)
                heavy += any(len(col) > 2 for col in transpose)
                # the columns as a list, and as the one-pass stream that
                # betti_gf2 ranks, with its count
                assert (homology._transposed_rank(columns, m, n)
                        == homology._transposed_rank(homology._face_indices(levels, k), m, n)
                        == rank_gf2(transpose, m))
    assert heavy > 100


def test_faces_in_three_or_more_triangles():
    # a tetrahedron boundary plus a triangle on its edge ab: a sphere with a
    # disk glued along an arc, so ab is a heavy column of d_2's transpose
    tops = [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d"),
            ("a", "b", "e")]
    levels = enumerate_simplices(tops).simplices_by_dim
    cofaces = _other_axis(homology._face_indices(levels, 2), len(levels[1]))
    assert sorted(map(len, cofaces)) == [1, 1, 2, 2, 2, 2, 2, 3]
    assert betti_gf2(tops) == betti_dense_reference(tops, 2) == (1, 0, 1)
    assert betti_gf2(Relation.from_toplexes(tops)) == (1, 0, 1)
    # the boundaries of abce and abdf share only the edge ab, whose first two
    # cofaces, abc and abd, lie on different spheres: joining them as if ab
    # had two cofaces would merge the spheres' 2-cycles
    tops = [("a", "b", "c"), ("a", "b", "d"), ("a", "b", "e"), ("a", "b", "f"),
            ("a", "c", "e"), ("b", "c", "e"), ("a", "d", "f"), ("b", "d", "f")]
    assert betti_gf2(tops) == betti_dense_reference(tops, 2) == (1, 0, 2)


def test_betti_point():
    assert betti_gf2([("a",)], 2) == (1, 0, 0)


def test_betti_cube_sphere():
    assert betti_gf2(gen_sphere_cube(), 2) == (1, 0, 1)


def test_betti_small_torus():
    assert betti_gf2(gen_torus_grid(4, 4), 2) == (1, 2, 1)


def test_betti_default_dim_is_complex_dim():
    assert betti_gf2([("a", "b", "c")]) == (1, 0, 0)


def test_euler_consistency():
    rng = random.Random(29)
    for _ in range(30):
        tops = random_toplex_list(rng, max_vertices=8, max_toplexes=8, max_size=4)
        dim = max(len(t) for t in tops) - 1
        cc = enumerate_simplices(tops, dim)
        betti = betti_gf2(tops, dim)
        chi_simplices = sum((-1) ** k * n for k, n in enumerate(cc.counts()))
        chi_betti = sum((-1) ** k * b for k, b in enumerate(betti))
        assert chi_simplices == chi_betti


def test_dowker_duality_small():
    rng = random.Random(43)
    for _ in range(20):
        r = random_relation(rng)
        assert betti_gf2(r.toplexes(), 3) == betti_gf2(r.transpose().toplexes(), 3)


def test_betti_matches_dense_reference():
    # random lists reach dimension 5, so the transposed higher maps have
    # heavy columns (faces with three or more cofaces) as well as graphic ones;
    # max_dim reaches past every largest toplex
    rng = random.Random(61)
    cases = [random_toplex_list(rng, max_vertices=9, max_toplexes=12, max_size=6)
             for _ in range(320)]
    cases += [gen_sphere_cube(), gen_sphere_uv(6, 5), gen_torus_grid(4, 5),
              gen_torus_grid(3, 3)] + [gen_simplex_boundary(n) for n in (1, 2, 3, 4)]
    # relations with repeated rows and columns, as themselves and as names:
    # the relation's duplicate columns reach the listing-order levels
    relations = [with_repeats(rng, random_relation(rng)) for _ in range(60)]
    cases += [r.toplexes() for r in relations]
    for tops in cases:
        for max_dim in range(8):
            assert betti_gf2(tops, max_dim) == betti_dense_reference(tops, max_dim)
    for r in relations:
        for max_dim in range(8):
            assert betti_gf2(r, max_dim) == betti_dense_reference(r.toplexes(), max_dim)


def test_betti_above_the_largest_toplex_costs_only_the_zeros():
    # no level above the largest toplex is built, so a million dimensions
    # take no enumeration; the max_dim + 1 numbers count against the cap
    torus = gen_torus_grid(4, 4)
    assert enumerate_simplices(torus, 10**6).counts() == (16, 48, 32)
    assert betti_gf2(torus, 10**6) == (1, 2, 1) + (0,) * (10**6 - 2)
    assert betti_gf2([("a",)], 5, size_cap=6) == (1, 0, 0, 0, 0, 0)
    with pytest.raises(SizeCapError):
        betti_gf2([("a",)], 5, size_cap=5)


def test_surface_maps_have_no_heavy_column():
    # d_1 columns are vertex pairs, and on a closed surface each edge lies in
    # two triangles, so the transpose of d_2 has two entries per column
    for tops in (gen_sphere_cube(), gen_torus_grid(4, 5), gen_sphere_uv(6, 5)):
        levels = enumerate_simplices(tops, 2).simplices_by_dim
        assert all(len(col) == 2 for col in homology._face_indices(levels, 1))
        assert all(len(col) == 2
                   for col in _other_axis(homology._face_indices(levels, 2), len(levels[1])))


def test_betti_normalises_the_toplexes_once(monkeypatch):
    calls = []
    real = relation._normalise_toplexes

    def counting(*args):
        calls.append(1)
        return real(*args)

    # the oracle reads names through `relation._normalise_toplexes`
    monkeypatch.setattr(relation, "_normalise_toplexes", counting)
    assert betti_gf2(gen_torus_grid(4, 4)) == (1, 2, 1)
    assert betti_gf2(gen_torus_grid(4, 4), 1) == (1, 2)
    assert len(calls) == 2


def test_betti_on_names_builds_no_row_orientation(monkeypatch):
    # names are numbered into column tuples only: the rows a Relation would
    # add (`_other_axis`) are never built
    calls = []
    real = relation._other_axis

    def counting(*args):
        calls.append(1)
        return real(*args)

    torus = gen_torus_grid(5, 6)
    names = [list(t) for t in torus.toplexes]
    monkeypatch.setattr(relation, "_other_axis", counting)
    assert betti_gf2(torus) == betti_gf2(names) == (1, 2, 1)
    assert calls == []


def test_betti_never_reads_the_boundary_lists(monkeypatch):
    # d_1 is ranked on the edge level itself, and each map above it is taken
    # once, as the one-pass stream `_face_indices` gives, which
    # `_transposed_rank` reads to its end
    taken = []
    ranked = []
    real_faces = homology._face_indices
    real_rank = homology._transposed_rank

    def recording(levels, k):
        stream = real_faces(levels, k)
        taken.append((k, stream))
        return stream

    def ranking(columns, m, n):
        ranked.append(columns)
        return real_rank(columns, m, n)

    def betti(tops, max_dim=None):
        del taken[:], ranked[:]
        result = betti_gf2(tops, max_dim)
        n = len(enumerate_simplices(tops, max_dim).counts())
        assert [k for k, _ in taken] == list(range(2, n))
        assert list(map(id, ranked)) == [id(stream) for _, stream in taken]
        for stream in ranked:
            assert iter(stream) is stream and next(stream, None) is None
        return result

    monkeypatch.setattr(homology, "_face_indices", recording)
    monkeypatch.setattr(homology, "_transposed_rank", ranking)
    assert betti(gen_torus_grid(4, 5)) == (1, 2, 1)
    assert betti(Relation.from_toplexes(gen_torus_grid(4, 5)), 3) == (1, 2, 1, 0)
    assert betti(gen_sphere_uv(6, 5)) == (1, 0, 1)
    assert betti(fan_relation(), 2) == (1, 2, 0)
    assert betti(gen_simplex_boundary(4)) == (1, 0, 0, 0, 1)
    rng = random.Random(79)
    for _ in range(40):
        r = random_relation(rng)
        assert betti(r, 3) == betti_dense_reference(r.toplexes(), 3)


class Label:
    """A row label that can be weakly referenced, which a Relation cannot."""


def torus_with_weak_labels(refs):
    """A 4 x 5 torus relation whose row labels are `Label`s, with a weak
    reference to each appended to `refs`; nothing else holds the labels."""
    torus = Relation.from_toplexes(gen_torus_grid(4, 5))
    labels = [Label() for _ in range(torus.nrows)]
    refs.extend(map(weakref.ref, labels))
    return Relation(labels, torus.col_labels, torus.rows)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython 3.10 keeps a call's arguments on the caller's stack")
def test_betti_releases_a_relation_no_one_else_holds_before_ranking(
        monkeypatch, tmp_path, capsys):
    # the labels die with the relation, whose rows and labels the ranks never
    # read: by the first rank they are gone, from the library and the CLI
    refs = []
    released = []
    real = homology.rank_gf2

    def recording(columns, n):
        released.append(all(ref() is None for ref in refs))
        return real(columns, n)

    monkeypatch.setattr(homology, "rank_gf2", recording)
    # a plain call: pytest keeps the parts of an assert statement alive
    betti = betti_gf2(torus_with_weak_labels(refs))
    assert betti == (1, 2, 1) and refs and released[0]
    del refs[:], released[:]
    monkeypatch.setattr(cli, "_load_relation", lambda path, fmt: torus_with_weak_labels(refs))
    assert cli.main(["betti", "--input", str(tmp_path / "unread")]) == 0
    assert capsys.readouterr().out == "1 2 1\n" and refs and released[0]


def test_top_level_is_the_relations_own_column_tuples():
    # on relations with repeated columns and toplexes of mixed sizes, the
    # level at the largest toplex's dimension holds the column tuples
    # themselves (the first of equal ones), in the order and with the values
    # that listing each toplex's faces by `combinations` gives
    rng = random.Random(83)
    mixed = 0
    for _ in range(200):
        r = with_repeats(rng, random_relation(rng))
        size = max(map(len, r.cols))
        if size == 1:
            # the vertex level is listed from the count
            continue
        mixed += len(set(map(len, r.cols))) > 1
        first = {}
        for c in r.cols:
            first.setdefault(c, c)
        faces = list(dict.fromkeys(chain.from_iterable(combinations(c, size) for c in r.cols)))
        level = enumerate_simplices(r).simplices_by_dim[-1]
        assert level == faces
        assert all(s is first[s] for s in level)
    assert mixed > 50


def test_betti_of_relation_complex():
    # the fan has two unfilled triangle loops (x1x2x3 and x4x5x6):
    # 6 vertices, 9 edges, 2 triangles, connected, no 2-cycle
    r = fan_relation()
    assert betti_gf2(r.toplexes(), 2) == (1, 2, 0)


def named(cc, names):
    """Each level's simplices, each with its boundary's faces, as vertex-name
    sets: the complex independent of how its vertices are numbered."""
    levels = [[frozenset(names[i] for i in s) for s in level]
              for level in cc.simplices_by_dim]
    return [dict.fromkeys(levels[0], frozenset())] + [
        {s: frozenset(levels[k - 1][i] for i in col)
         for s, col in zip(levels[k], homology._face_indices(cc.simplices_by_dim, k))}
        for k in range(1, len(levels))]


def sorted_levels(cc):
    """Each level's simplices in ascending order: the listing without its
    order."""
    return [sorted(level) for level in cc.simplices_by_dim]


def test_relation_and_name_input_agree():
    # random relations, with duplicate and contained columns too, and fixtures
    rng = random.Random(71)
    relations = [random_relation(rng) for _ in range(60)]
    relations += [with_repeats(rng, random_relation(rng)) for _ in range(60)]
    relations += [Relation.from_toplexes(t) for t in
                  (gen_torus_grid(4, 5), gen_sphere_uv(6, 5), gen_sphere_cube())]
    for r in relations:
        names = r.toplexes()
        # names number the vertices in first-appearance order, a relation in
        # row order; by name the two forms are the same complex exactly, and
        # when the orders agree so are the index tuples, though a relation's
        # contained columns may list faces earlier
        order = tuple(dict.fromkeys(chain.from_iterable(names)))
        for max_dim in (0, 1, 2, 4, None):
            cc = enumerate_simplices(r, max_dim)
            by_names = enumerate_simplices(names, max_dim)
            assert named(by_names, order) == named(cc, r.row_labels)
            if order == r.row_labels:
                assert sorted_levels(by_names) == sorted_levels(cc)
            assert betti_gf2(r, max_dim) == betti_gf2(names, max_dim)


@pytest.fixture
def chunks(monkeypatch):
    """Every chunk of toplexes whose faces `enumerate_simplices` lists, as
    the list of each toplex's faces."""
    seen = []
    faces = homology._faces

    def recording(toplexes, k):
        chunk = [list(faces([t], k)) for t in toplexes]
        seen.append(chunk)
        return chain.from_iterable(chunk)

    monkeypatch.setattr(homology, "_faces", recording)
    return seen


def test_size_cap_is_exact_at_chunk_boundaries(chunks):
    # on a torus each level's face-count bound is about twice its real count,
    # so a cap near the total cuts levels into chunks; the vertices are
    # listed without chunks, from their count
    torus = gen_torus_grid(4, 6)
    for tops in (Relation.from_toplexes(torus), torus):
        full = enumerate_simplices(tops, 2)
        total = sum(full.counts())
        for cap in range(1, total + 2):
            del chunks[:]
            if cap < total:
                with pytest.raises(SizeCapError):
                    enumerate_simplices(tops, 2, size_cap=cap)
            else:
                assert enumerate_simplices(tops, 2, size_cap=cap) == full
            # a chunk of two or more toplexes fits its faces in the room left
            # beside the vertices and the faces listed so far, so the sets
            # never hold more than the cap plus one toplex's faces
            listed = set()
            for chunk in chunks:
                faces = sum(map(len, chunk))
                room = cap - full.counts()[0] - len(listed)
                assert len(chunk) == 1 or faces <= room
                listed.update(chain.from_iterable(chunk))
            if cap == total:
                assert len(chunks) > 2
        # without a cap in reach, each level above the vertices is one chunk
        del chunks[:]
        assert enumerate_simplices(tops, 2) == full and len(chunks) == 2


def test_size_cap_refuses_a_toplex_before_listing_more_faces_than_the_cap(chunks):
    simplex = [tuple(range(12))]
    total = 2 ** 12 - 1
    for cap in range(1, total + 1, 7):
        del chunks[:]
        with pytest.raises(SizeCapError):
            enumerate_simplices(simplex, 11, size_cap=cap)
        assert all(sum(map(len, chunk)) <= cap for chunk in chunks)
    cc = enumerate_simplices(simplex, 11, size_cap=total)
    assert sum(cc.counts()) == total
