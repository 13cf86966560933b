"""Homotopy-preserving reduction of simplicial complexes via incidence relations.

A complex is stored as a binary relation between its vertices (rows) and its
maximal simplices (columns).  The reducer repeatedly replaces a vertex pair
whose union of closed stars is contractible by a single fresh cone vertex,
shrinking the complex without changing its mod-2 Betti numbers; a built-in
GF(2) homology oracle certifies the invariant.
"""

from .collapse import collapse_core, is_strong_collapsible
from .complexio import (ToplexList, gen_simplex_boundary, gen_sphere_cube,
                        gen_sphere_uv, gen_torus_grid, parse_off,
                        parse_toplex_file, witness_relation)
from .errors import ParseError, SizeCapError
from .homology import (DEFAULT_SIZE_CAP, ChainComplexGF2, betti_gf2,
                       enumerate_simplices, rank_gf2)
from .reducer import (ReductionStats, StepReport, candidate_vertices,
                      comparison_budget, format_step_log, reduce,
                      reduction_step)
from .relation import Relation, SubRelation

__version__ = "0.1.0"

__all__ = [
    "ChainComplexGF2", "DEFAULT_SIZE_CAP", "ParseError", "Relation",
    "ReductionStats", "SizeCapError", "StepReport", "SubRelation",
    "ToplexList", "betti_gf2", "candidate_vertices", "collapse_core",
    "comparison_budget", "enumerate_simplices", "format_step_log",
    "gen_simplex_boundary", "gen_sphere_cube", "gen_sphere_uv",
    "gen_torus_grid", "is_strong_collapsible", "parse_off",
    "parse_toplex_file", "rank_gf2", "reduce", "reduction_step",
    "witness_relation",
]
