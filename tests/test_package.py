"""The package's public surface: what `dowker.__all__` exports."""

import dowker

EXPORTS = {
    "ChainComplexGF2", "DEFAULT_SIZE_CAP", "ParseError", "Relation",
    "ReductionStats", "SizeCapError", "StepReport", "SubRelation",
    "ToplexList", "betti_gf2", "candidate_vertices", "collapse_core",
    "comparison_budget", "enumerate_simplices", "format_step_log",
    "gen_simplex_boundary", "gen_sphere_cube", "gen_sphere_uv",
    "gen_torus_grid", "is_strong_collapsible", "parse_off",
    "parse_toplex_file", "rank_gf2", "reduce", "reduction_step",
    "witness_relation",
}


def test_all_lists_each_public_name_once_and_every_name_resolves():
    assert set(dowker.__all__) == EXPORTS
    assert len(dowker.__all__) == len(EXPORTS)
    for name in dowker.__all__:
        assert getattr(dowker, name) is not None
    # a stale entry would make the star import raise
    namespace = {}
    exec("from dowker import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTS
