"""The GF(2) homology oracle: enumeration, boundary maps, rank, Betti."""

import random

import pytest

from dowker import (SizeCapError, betti_gf2, enumerate_simplices,
                    gen_sphere_cube, gen_torus_grid, rank_gf2)
from _util import (FAN_TOPLEXES, fan_relation, random_relation,
                   random_toplex_list, rank_by_rowspace, simplices_of_columns)


def test_single_triangle_counts():
    cc = enumerate_simplices([("a", "b", "c")], 2)
    assert cc.counts() == (3, 3, 1)


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
    for _ in range(25):
        tops = random_toplex_list(rng, max_vertices=8, max_toplexes=8, max_size=4)
        cc = enumerate_simplices(tops, 3)
        for k in range(1, len(cc.boundary) - 1):
            for col in cc.boundary[k + 1]:
                acc = 0
                for i, face in enumerate(cc.boundary[k]):
                    if col >> i & 1:
                        acc ^= face
                assert acc == 0


def test_size_cap():
    with pytest.raises(SizeCapError):
        enumerate_simplices([tuple(f"v{i}" for i in range(30))], 5, size_cap=100)


def pack(bits):
    """Int bitset with bit i set when bits[i] is 1."""
    return sum(b << i for i, b in enumerate(bits))


def test_rank_cases():
    assert rank_gf2([1, 2, 4]) == 3
    assert rank_gf2([3, 3]) == 1
    # edge/vertex boundary of the triangle: rank 2 by exhaustive row span
    cc = enumerate_simplices([("a", "b"), ("a", "c"), ("b", "c")], 1)
    d1 = cc.boundary[1]
    assert len(d1) == 3 and all(bin(col).count("1") == 2 for col in d1)
    rows = [[col >> i & 1 for col in d1] for i in range(len(cc.simplices_by_dim[0]))]
    assert rank_by_rowspace(rows) == 2
    assert rank_gf2(d1) == 2


def test_rank_input_untouched():
    m = [3, 2]
    copy = list(m)
    rank_gf2(m)
    assert m == copy


def test_rank_matches_transpose_and_oracle():
    rng = random.Random(17)
    for _ in range(50):
        rows = [[rng.randint(0, 1) for _ in range(rng.randint(1, 7))]]
        n = len(rows[0])
        for _ in range(rng.randint(0, 6)):
            rows.append([rng.randint(0, 1) for _ in range(n)])
        expect = rank_by_rowspace(rows)
        assert rank_gf2([pack(row) for row in rows]) == expect
        assert rank_gf2([pack(col) for col in zip(*rows)]) == expect


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


def test_betti_of_relation_complex():
    # the fan has two unfilled triangle loops (x1x2x3 and x4x5x6):
    # 6 vertices, 9 edges, 2 triangles, connected, no 2-cycle
    r = fan_relation()
    assert betti_gf2(r.toplexes(), 2) == (1, 2, 0)
