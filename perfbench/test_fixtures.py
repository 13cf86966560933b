"""The benchmark's linear-time builders write what the library would."""

import random

import pytest

from dowker import Relation, betti_gf2, gen_sphere_uv, gen_torus_grid
from fixtures import (grid_triangles, rel_text, shuffled, toplex_text,
                      uv_sphere_triangles)


@pytest.mark.parametrize("m,n", [(3, 3), (4, 5), (6, 4)])
def test_torus_matches_library(m, n):
    lib = gen_torus_grid(m, n)
    tris = grid_triangles(m, n)
    assert tuple(tris) == lib.toplexes
    assert toplex_text(tris) == lib.to_text()
    assert rel_text(tris) == Relation.from_toplexes(lib).to_text()


@pytest.mark.parametrize("slices,stacks", [(3, 3), (5, 4), (7, 6)])
def test_uv_sphere_matches_library(slices, stacks):
    lib = gen_sphere_uv(slices, stacks)
    tris = uv_sphere_triangles(slices, stacks)
    assert tuple(tris) == lib.toplexes
    assert rel_text(tris) == Relation.from_toplexes(lib).to_text()


def test_disk_is_the_torus_grid_without_wraparound():
    tris = grid_triangles(5, 6, wrap=False)
    assert len(tris) == 2 * 4 * 5
    assert len({v for t in tris for v in t}) == 5 * 6
    assert set(tris) < set(grid_triangles(5, 6))
    assert betti_gf2(tris, 2) == (1, 0, 0)


@pytest.mark.parametrize("tris", [grid_triangles(4, 5), grid_triangles(4, 5, wrap=False),
                                  uv_sphere_triangles(5, 4)])
def test_shuffled_rel_matches_library_and_keeps_the_complex(tris):
    a = shuffled(tris, random.Random(7))
    assert a == shuffled(tris, random.Random(7))
    assert a != tris
    assert {frozenset(t) for t in a} == {frozenset(t) for t in tris}
    assert rel_text(a) == Relation.from_toplexes(a).to_text()


def test_rel_text_rejects_a_repeated_toplex():
    with pytest.raises(ValueError):
        rel_text([("a", "b", "c"), ("c", "b", "a")])
