"""dim T(x) by exact block-wise spinning.

T(x) is generated by {A, E*_0, ..., E*_D} rather than {A, A*}: the two
generating sets give the same algebra, but integer generators keep the whole
closure over Z, so no surd ever enters the span arithmetic.

Closure strategy: "spinning", the MeatAxe step (Parker 1984; Holt-Rees 1994),
run one block column at a time by block_spin_dim.

* The E*_i are not used as multipliers.  They are the projections P_c onto
  the cells X_0 .. X_D, the distance classes from x, read straight off the
  distance table.
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
  are never multiplied.  With a single cell the loop is the plain
  whole-matrix spin of span{I}.

Only the dimension is returned: no n x n matrix is built, neither for the
E*_i nor for the spanning elements.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .exactla import ExactSpan, _as_int_array, _imatmul
from .graph_core import DistanceData, Graph, distances

__all__ = ["block_spin_dim", "terwilliger_dimension"]


def block_spin_dim(dense: Sequence[np.ndarray], cells: Sequence[np.ndarray]) -> int:
    """Dimension of the unital algebra generated by the dense integer matrices
    and the projections onto the cells, a partition of the row indices.

    For each cell j the column T P_j is spun from P_j: every new element M of
    block (h, j) is multiplied by each nonzero sub-block G[X_l, X_h] of each
    dense generator, and the product is inserted into the span of block
    (l, j).  Terminates because block (h, j) has dimension at most
    |X_h| |X_j|.  Products run on int64 arrays, or on Python ints when a bound
    check fails (object arrays are accepted as generators too).
    """
    gens = [_as_int_array(G) for G in dense]
    cells = [c for c in cells if len(c)]
    # left[h]: every nonzero sub-block (l, G[X_l, X_h]) of a dense generator
    left = []
    for X_h in cells:
        blocks = ((l, G[np.ix_(X_l, X_h)]) for G in gens for l, X_l in enumerate(cells))
        left.append([(l, B) for l, B in blocks if B.any()])
    dim = 0
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
        dim += len(found)
    return dim


def terwilliger_dimension(g: Graph, x: int, dd: Optional[DistanceData] = None) -> int:
    """dim T(x): block_spin_dim of A on the distance classes from x."""
    dd = dd or distances(g)
    cells = [np.flatnonzero(dd.dist[x] == i) for i in range(dd.D + 1)]
    return block_spin_dim([g.adjacency], cells)
