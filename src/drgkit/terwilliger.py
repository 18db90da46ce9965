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
  |X_h| |X_j| instead of n^2, which reduces each product against all of its
  echelon rows in one integer product, and all-zero sub-blocks of G (for A:
  |l - h| > 1) are never multiplied.  With a single cell the loop is the
  plain whole-matrix spin of span{I}.
* T(x) is closed under transpose (Terwilliger 1992): A and the P_c are
  symmetric.  So P_l T P_j is the transpose of P_j T P_l, and column j spins
  only the blocks l >= j, seeded with the transposes of blocks found in
  earlier columns; dim T = sum_j dim(j, j) + 2 sum_{l > j} dim(l, j).  The
  loop takes this path only when every dense generator equals its transpose
  exactly, and otherwise spins every block of every column.

Only the dimension is returned: no n x n matrix is built, neither for the
E*_i nor for the spanning elements.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .exactla import ExactSpan, _as_int_array, _imatmul, _max_abs
from .graph_core import DistanceData, Graph, distances

__all__ = ["block_spin_dim", "terwilliger_dimension"]


def block_spin_dim(dense: Sequence[np.ndarray], cells: Sequence[np.ndarray]) -> int:
    """Dimension of the unital algebra generated by the dense integer matrices
    and the projections onto the cells, a partition of the row indices.

    For each cell j the column T P_j is spun from P_j: every new element M of
    block (h, j) is multiplied by each nonzero sub-block B = G[X_l, X_h] of
    each dense generator, and the product is inserted into the span of block
    (l, j).  Terminates because block (h, j) has dimension at most
    |X_h| |X_j|.  Each product carries the bound max|B| |X_h| max|M| on its
    entries, so it runs on int64 arrays when that bound allows and on Python
    ints otherwise (object arrays are accepted as generators too).

    When every dense generator is symmetric, T is closed under transpose and
    block (h, j) is the transpose of block (j, h).  Column j then spins only
    the blocks l >= j, seeded with the transposes of the spanning elements of
    the blocks (j, h), h < j, found in earlier columns, wherever a sub-block
    leads from h into a block >= j; and dim T = sum_j dim(j, j) +
    2 sum_{l > j} dim(l, j).
    """
    gens = [_as_int_array(G) for G in dense]
    cells = [c for c in cells if len(c)]
    # left[h]: every nonzero sub-block (l, G[X_l, X_h], max|G[X_l, X_h]| |X_h|)
    # of a dense generator
    left = []
    for X_h in cells:
        blocks = ((l, G[np.ix_(X_l, X_h)]) for G in gens for l, X_l in enumerate(cells))
        left.append([(l, B, _max_abs(B) * len(X_h)) for l, B in blocks if B.any()])
    mirror = all(np.array_equal(G, G.T) for G in gens)
    known = {}  # (l, j) -> the elements spanning block (l, j), l > j, with their bounds
    dim = 0
    for j, cols in enumerate(cells):
        lo = j if mirror else 0
        spans = {l: ExactSpan(len(cells[l]) * len(cols)) for l in range(lo, len(cells))}
        spans[j].insert(np.eye(len(cols), dtype=np.int64), 1)
        found = [(j, spans[j].last[0].reshape(len(cols), len(cols)), 1)]
        for h in range(lo):
            elements = known.pop((j, h), [])
            if any(l >= j for l, _, _ in left[h]):
                found += [(h, E.reshape(len(cols), len(cells[h])).T, m) for E, m in elements]
        pos = 0
        while pos < len(found):
            h, M, m = found[pos]
            pos += 1
            for l, B, b in left[h]:
                if l >= lo and spans[l].insert(_imatmul(B, M, b * m), b * m):
                    E, e = spans[l].last
                    found.append((l, E.reshape(len(cells[l]), len(cols)), e))
        if mirror:
            for h, M, m in found:
                if h > j:
                    known.setdefault((h, j), []).append((M, m))
            dim += spans[j].dim + 2 * sum(spans[l].dim for l in spans if l > j)
        else:
            dim += sum(span.dim for span in spans.values())
    return dim


def terwilliger_dimension(g: Graph, x: int, dd: Optional[DistanceData] = None) -> int:
    """dim T(x): block_spin_dim of A on the distance classes from x."""
    dd = dd or distances(g)
    cells = [np.flatnonzero(dd.dist[x] == i) for i in range(dd.D + 1)]
    return block_spin_dim([g.adjacency], cells)
