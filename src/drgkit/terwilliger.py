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
  A[X_l, X_h] M is inserted into block (l, j).  The closed span contains P_j
  and is closed under left multiplication by A and, as a sum of single-block
  spans, by every P_l, so it is T P_j; dim T is the sum of the block
  dimensions.
* A block (h, j) keeps its own exactla.ExactSpan on vectors of length
  |X_h| |X_j| instead of n^2, which reduces each product against all of its
  echelon rows in one integer product, and the all-zero sub-blocks of A
  (|l - h| > 1) are never multiplied.  With a single cell the loop is the
  plain whole-matrix spin of span{I}.
* T(x) is closed under transpose (Terwilliger 1992): A and the P_c are
  symmetric.  So P_l T P_j is the transpose of P_j T P_l, and column j spins
  only the blocks l >= j, seeded with the transposes of blocks found in
  earlier columns; dim T = sum_j dim(j, j) + 2 sum_{l > j} dim(l, j).
  block_spin_dim refuses a matrix that is not symmetric, for which this
  count would be wrong.

Only the dimension is returned: no n x n matrix is built, neither for the
E*_i nor for the spanning elements.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .exactla import ExactSpan, _as_int_array, _imatmul, _max_abs
from .graph_core import DistanceData, Graph, distances

__all__ = ["block_spin_dim", "terwilliger_dimension"]


def block_spin_dim(A: np.ndarray, cells: Sequence[np.ndarray]) -> int:
    """Dimension of the unital algebra T generated by the symmetric integer
    matrix A and the projections onto the cells, a partition of the row
    indices.

    Column j spins the blocks l >= j of T P_j from P_j and from the
    transposes of the blocks (j, h), h < j, found in earlier columns: every
    new element M of block (h, j) is multiplied by each nonzero sub-block
    B = A[X_l, X_h], l >= j, and the product is inserted into the span of
    block (l, j).  Terminates because block (h, j) has dimension at most
    |X_h| |X_j|.  Each product carries the bound max|B| |X_h| max|M| on its
    entries, so it runs on int64 arrays when that bound allows and on Python
    ints otherwise (A may be an object array).  Raises ValueError for an A
    that is not symmetric, whose T those transposes would not span.
    """
    A = _as_int_array(A)
    if not np.array_equal(A, A.T):
        raise ValueError("block_spin_dim needs a symmetric matrix")
    cells = [c for c in cells if len(c)]
    # left[h]: every nonzero sub-block (l, A[X_l, X_h], max|A[X_l, X_h]| |X_h|)
    left = []
    for X_h in cells:
        blocks = ((l, A[np.ix_(X_l, X_h)]) for l, X_l in enumerate(cells))
        left.append([(l, B, _max_abs(B) * len(X_h)) for l, B in blocks if B.any()])
    known = {}  # (l, j) -> the elements spanning block (l, j), l > j, with their bounds
    dim = 0
    for j, cols in enumerate(cells):
        spans = {l: ExactSpan(len(cells[l]) * len(cols)) for l in range(j, len(cells))}
        spans[j].insert(np.eye(len(cols), dtype=np.int64), 1)
        found = [(j, spans[j].last[0].reshape(len(cols), len(cols)), 1)]
        for h in range(j):
            elements = known.pop((j, h), [])
            if any(l >= j for l, _, _ in left[h]):
                found += [(h, M.T, m) for M, m in elements]
        pos = 0
        while pos < len(found):
            h, M, m = found[pos]
            pos += 1
            for l, B, b in left[h]:
                if l >= j and spans[l].insert(_imatmul(B, M, b * m), b * m):
                    E, e = spans[l].last
                    found.append((l, E.reshape(len(cells[l]), len(cols)), e))
        for h, M, m in found:
            if h > j:
                known.setdefault((h, j), []).append((M, m))
        dim += spans[j].dim + 2 * sum(spans[l].dim for l in spans if l > j)
    return dim


def terwilliger_dimension(g: Graph, x: int, dd: Optional[DistanceData] = None) -> int:
    """dim T(x): block_spin_dim of A on the distance classes from x."""
    dd = dd or distances(g)
    cells = [np.flatnonzero(dd.dist[x] == i) for i in range(dd.D + 1)]
    return block_spin_dim(g.adjacency, cells)
