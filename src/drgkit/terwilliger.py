"""Dual idempotents and exact generation of T(x).

The algebra is generated from {A, E*_0, ..., E*_D} rather than {A, A*}: the
two generating sets give the same algebra, but integer generators keep the
whole closure over Z, so no surd ever enters the span arithmetic.

Closure strategy: "spinning", the MeatAxe step (Parker 1984; Holt-Rees 1994),
run one block column at a time.

* Diagonal generators are not used as multipliers.  Their common level sets
  split the vertices into cells X_1 .. X_r (for T(x): the distance classes
  from x), and together with I they span exactly the cell projections P_c.
* Since the P_c lie in the algebra T and sum to I, T = (+)_{h,j} P_h T P_j
  as a vector space (Terwilliger 1992).  Each column T P_j is the left
  T-module generated by P_j, so it is found by spinning P_j alone: every
  stored element M of block (h, j) is visited once, and the sub-block product
  G[X_l, X_h] M of each dense generator G is inserted into block (l, j).  The
  closed span contains P_j and is closed under left multiplication by every
  dense generator and, as a sum of single-block spans, by every P_l, so it is
  T P_j; dim T is the sum of the block dimensions.
* A block (h, j) keeps its own exactla.ExactSpan on vectors of length
  |X_h| |X_j| instead of n^2, and all-zero sub-blocks of G (for A: |l - h| > 1)
  are never multiplied.  With no diagonal generator there is one cell, and the
  loop is the plain whole-matrix spin of span{I}.

Basis elements are the reduced echelon residues of the block spans; their
stripped content keeps products comfortably inside int64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exactla import ExactSpan, _as_int_array, _imatmul
from .graph_core import DistanceData, Graph, distances

__all__ = [
    "DualIdempotents",
    "AlgebraBasis",
    "dual_idempotents",
    "algebra_closure",
    "terwilliger_dimension",
]


@dataclass(frozen=True)
class DualIdempotents:
    """E*_0 .. E*_D at the base vertex: E*_i is the diagonal 0/1 projection
    onto the distance-i class, stored as its diagonal."""

    base: int
    indicators: tuple  # int64 0/1 vectors of length n, indices 0..D


def dual_idempotents(g: Graph, x: int, dd: Optional[DistanceData] = None) -> DualIdempotents:
    dd = dd or distances(g)
    return DualIdempotents(
        base=int(x),
        indicators=tuple((dd.dist[x] == i).astype(np.int64) for i in range(dd.D + 1)),
    )


@dataclass(frozen=True)
class AlgebraBasis:
    """A generated unital matrix algebra: generators, reduced basis, dimension."""

    generators: tuple
    basis: tuple  # integer n x n arrays, each supported on one block X_h x X_j
    dim: int


def _is_diagonal(G: np.ndarray) -> bool:
    return np.count_nonzero(G) == np.count_nonzero(G.diagonal())


def _level_cells(diagonals: Sequence[np.ndarray], n: int) -> list[np.ndarray]:
    """Common level sets of the diagonals, in order of their first vertex."""
    cells: dict[tuple, list[int]] = {}
    for v in range(n):
        cells.setdefault(tuple(int(d[v]) for d in diagonals), []).append(v)
    return [np.array(c) for c in cells.values()]


def algebra_closure(generators: Sequence[np.ndarray]) -> AlgebraBasis:
    """Unital algebra generated by the given integer matrices.

    The diagonal generators split the vertices into the cells X_1 .. X_r of
    their common level sets; with I they span the cell projections P_c.  For
    each cell j, the column T P_j is spun from P_j: every stored element M of
    block (h, j) is visited once, and for each other (dense) generator G and
    each row cell l with G[X_l, X_h] != 0, the product G[X_l, X_h] M is
    inserted into the span of block (l, j).  The closed column contains P_j
    and is closed under left multiplication by the generators, hence equals
    T P_j, and the algebra is the direct sum of the columns.  Terminates
    because block (h, j) has dimension at most |X_h| |X_j|.  Products run on
    int64 arrays, or on Python ints when a bound check fails (object arrays
    are accepted as generators too).  Each basis element is returned as an
    n x n matrix supported on its own block.
    """
    gens = [_as_int_array(G) for G in generators]
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].shape[0]
    if any(G.shape != (n, n) for G in gens):
        raise ValueError("generators must be square and equally sized")
    cells = _level_cells([G.diagonal() for G in gens if _is_diagonal(G)], n)
    dense = [G for G in gens if not _is_diagonal(G)]
    # left[h]: every nonzero sub-block (l, G[X_l, X_h]) of a dense generator
    left = []
    for X_h in cells:
        blocks = ((l, G[np.ix_(X_l, X_h)]) for G in dense for l, X_l in enumerate(cells))
        left.append([(l, B) for l, B in blocks if np.count_nonzero(B)])
    basis = []
    for j, cols in enumerate(cells):
        spans = [ExactSpan(len(rows) * len(cols)) for rows in cells]
        spans[j].insert(np.eye(len(cols), dtype=np.int64))
        found = [(j, spans[j].last_row.v.reshape(len(cols), len(cols)))]
        pos = 0
        while pos < len(found):
            h, M = found[pos]
            pos += 1
            for l, B in left[h]:
                if spans[l].insert(_imatmul(B, M)):
                    found.append((l, spans[l].last_row.v.reshape(len(cells[l]), len(cols))))
        for h, M in found:
            E = np.zeros((n, n), dtype=M.dtype)
            E[np.ix_(cells[h], cols)] = M
            basis.append(E)
    return AlgebraBasis(generators=tuple(gens), basis=tuple(basis), dim=len(basis))


def terwilliger_dimension(g: Graph, x: int, dd: Optional[DistanceData] = None) -> int:
    """dim T(x) via brute-force closure of {A, E*_0..E*_D}."""
    dd = dd or distances(g)
    gens = [np.asarray(g.adjacency, dtype=np.int64)]
    gens += [np.diag(e) for e in dual_idempotents(g, x, dd).indicators]
    return algebra_closure(gens).dim
