"""GF(2) simplicial homology oracle.

Independent of the reduction path: it expands toplexes into explicit simplex
lists, builds each boundary map as one int bitset per simplex (its faces),
and computes Betti numbers by GF(2) rank.  Used to certify that reductions
preserve the mod-2 Betti numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from .errors import SizeCapError
from .relation import _toplex_name_sets

DEFAULT_SIZE_CAP = 5_000_000


def _mask_of(indices):
    m = 0
    for i in indices:
        m |= 1 << i
    return m


@dataclass
class ChainComplexGF2:
    """Simplices by dimension plus the boundary maps between them.

    `simplices_by_dim[k]` is the sorted list of k-simplices as ascending
    vertex-index tuples.  `boundary[k]` holds the GF(2) boundary map from
    k-chains to (k-1)-chains as one int per k-simplex, in
    `simplices_by_dim[k]` order: bit i is set when the (k-1)-simplex
    `simplices_by_dim[k-1][i]` is a face of it.  `boundary[0]` is one 0 per
    vertex (the zero map).
    """

    simplices_by_dim: list = field(default_factory=list)
    boundary: list = field(default_factory=list)

    def counts(self):
        return tuple(len(s) for s in self.simplices_by_dim)


def enumerate_simplices(toplexes, max_dim, size_cap=DEFAULT_SIZE_CAP) -> ChainComplexGF2:
    """All simplices of the complex generated by `toplexes`, up to max_dim+1.

    Going one dimension above max_dim makes the Betti number at max_dim
    exact.  Raises SizeCapError when the deduplicated simplex count would
    exceed `size_cap`.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    order, tops = _toplex_name_sets(toplexes)
    index = {v: i for i, v in enumerate(order)}
    top_k = max_dim + 1
    levels = [set() for _ in range(top_k + 1)]
    total = 0
    for t in tops:
        vs = sorted(index[v] for v in t)
        for k in range(min(len(vs), top_k + 1)):
            if math.comb(len(vs), k + 1) > size_cap:
                raise SizeCapError(f"simplex count exceeds cap {size_cap}")
            level = levels[k]
            before = len(level)
            level.update(combinations(vs, k + 1))
            total += len(level) - before
            if total > size_cap:
                raise SizeCapError(f"simplex count exceeds cap {size_cap}")
    simplices = [sorted(level) for level in levels]
    while simplices and not simplices[-1]:
        simplices.pop()
    boundary = [[0] * len(simplices[0])] if simplices else []
    for faces, level in zip(simplices, simplices[1:]):
        pos = {f: i for i, f in enumerate(faces)}
        boundary.append([_mask_of(pos[s[:i] + s[i + 1:]] for i in range(len(s)))
                         for s in level])
    return ChainComplexGF2(simplices_by_dim=simplices, boundary=boundary)


def rank_gf2(vectors) -> int:
    """Rank over GF(2) of a sequence of int bitsets, by lead-bit elimination.

    Each int is one vector (bit i is coordinate i); the input is not modified.
    """
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


def betti_gf2(toplexes, max_dim=None, size_cap=DEFAULT_SIZE_CAP):
    """Mod-2 Betti numbers (beta_0, ..., beta_max_dim).

    beta_k = dim ker boundary_k - rank boundary_{k+1}.  `max_dim` defaults
    to the dimension of the largest toplex.
    """
    order, tops = _toplex_name_sets(toplexes)
    if max_dim is None:
        max_dim = max((len(t) for t in tops), default=1) - 1
        max_dim = max(max_dim, 0)
    cc = enumerate_simplices(tops, max_dim, size_cap=size_cap)
    ranks = [rank_gf2(b) for b in cc.boundary]
    betti = []
    for k in range(max_dim + 1):
        n_k = len(cc.simplices_by_dim[k]) if k < len(cc.simplices_by_dim) else 0
        r_k = ranks[k] if k < len(ranks) else 0
        r_k1 = ranks[k + 1] if k + 1 < len(ranks) else 0
        betti.append(n_k - r_k - r_k1)
    return tuple(betti)
