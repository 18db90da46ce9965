"""dim T(x) by exact block-wise spinning, for a stack of vertices at once.

T(x) is generated by {A, E*_0, ..., E*_D} rather than {A, A*}: the two
generating sets give the same algebra, but integer generators keep the whole
closure over Z, so no surd ever enters the span arithmetic.

Closure strategy: "spinning", the MeatAxe step (Parker 1984; Holt-Rees 1994),
run one block column at a time by block_spin_dims.

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
* A block (h, j) keeps its own span on vectors of length |X_h| |X_j|
  instead of n^2, which reduces each product against all of its echelon rows
  in one integer product, and the all-zero sub-blocks of A (|l - h| > 1) are
  never multiplied.  With a single cell the loop is the plain whole-matrix
  spin of span{I}.
* T(x) is closed under transpose (Terwilliger 1992): A and the P_c are
  symmetric.  So P_l T P_j is the transpose of P_j T P_l, and column j spins
  only the blocks l >= j, seeded with the transposes of blocks found in
  earlier columns; dim T = sum_j dim(j, j) + 2 sum_{l > j} dim(l, j).
  block_spin_dims refuses a matrix that is not symmetric, for which this
  count would be wrong.

The spin runs for a stack of vertices at once.  In a distance-regular graph
|X_i(x)| = k_i at every vertex x (BCN), so every sub-block A[X_l(x), X_h(x)]
and every block span has one shape across the vertices: the sub-blocks are
(m, k_l, k_h) stacks, each product is one batched matmul, and each block span
is a StackedSpan holding one echelon form per vertex.  The Python work of a
spin step is paid once per stack, not once per vertex.

* A queue element holds only the vertices for which it is new: their indices
  into the stack and an (m', k_h, k_j) stack of their elements.
* A request must hold one tuple of class sizes, as every request from a
  distance-regular graph does; one whose vertices differ is refused, as
  spectra.subconstituent_spectra refuses classes of different sizes.  Empty
  classes are skipped, so a lone vertex of any graph still works.
* A stack holds at most 2**16 // max_l k_l^2 vertices (at least one), so its
  widest block, k_l k_j entries per vertex, has at most 2**16 entries per
  queue element or echelon row.  The cut depends on the input alone; it keeps
  the memory of the 128-vertex halved 8-cube sweep bounded.
* Products go through exactla._imatmul with the bound max|B| |X_h| max|M| on
  every partial sum.  Below 2**53 the product runs on float64 (BLAS): every
  partial sum is then an integer that float64 represents exactly, so the
  result is exact in any summation order.  Below 2**62 it runs on int64, and
  past that on Python ints (object arrays).

Only the dimension is returned: no n x n matrix is built, neither for the
E*_i nor for the spanning elements.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .exactla import _INT64_SAFE, _as_int_array, _imatmul, _max_abs, _to_object
from .graph_core import DistanceData, Graph, checked_vertices, distances

__all__ = ["block_spin_dims", "terwilliger_dimension", "terwilliger_dimensions"]

_STACK_ENTRIES = 2**16
_NARROW = [(t, np.iinfo(t).max) for t in (np.int8, np.int16, np.int32)]


class StackedSpan:
    """Row spaces over Q of flat integer vectors of one length, one space per
    vertex of a stack of m vertices, kept as one padded array.

    Each vertex b keeps its rows R[b, :dim[b]] in reduced echelon form: every
    row is primitive (content 1), positive at its pivot column and zero at the
    pivot column of every other row of b.  With p the pivot entries, L[b]
    their lcm and Lp = L // p (0 on padding rows, which are zero), a vector v
    of vertex b reduces against all of b's rows in one product,
    L[b] v - (v[pivots] Lp) @ R[b], which is zero everywhere exactly when v
    lies in b's span; insert runs this for a stack of vectors as one batched
    product.  An accepted residue is stripped of its content, and only the
    (vertex, row) pairs that are nonzero at its pivot are back-substituted.

    The arrays are int64 while the bounds allow: the residue is below
    mv (max L + max Lp max dim max|R|), a back-substituted row below
    (q + max|w|) max|R|, and the new lcm divides L q for a new pivot entry q.
    When one of them reaches 2**62 the span moves to Python ints (object
    arrays) and stays there; an int64 array times an object array is cast
    to Python ints, so every product has an object operand there.  A residue
    past the bound of an int64 span is computed on Python ints alone, and
    kept on int64 when its stripped row fits.
    """

    def __init__(self, m: int, ncols: int):
        self.ncols = ncols
        self.dim = np.zeros(m, dtype=np.intp)
        self._R = np.zeros((m, 0, ncols), dtype=np.int64)
        self._piv = np.zeros((m, 0), dtype=np.intp)  # pivot column of each row
        self._p = np.ones((m, 0), dtype=np.int64)  # pivot entry of each row, 1 on padding
        self._Lp = np.zeros((m, 0), dtype=np.int64)  # L // p, 0 on padding
        self._L = np.ones(m, dtype=np.int64)
        self._bounds = np.zeros((m, 0), dtype=np.int64)  # max|entry| of each row (int64 only)
        self._object = False
        self._Lmax = 1  # max L
        self._reach = 0  # max Lp max dim max|R|: the product's bound per unit of max|v|

    def _to_objects(self) -> None:
        self._R, self._p, self._Lp, self._L = map(_to_object, (self._R, self._p, self._Lp, self._L))
        self._object = True

    def _residue(self, idx: np.ndarray, V: np.ndarray, mv: int) -> np.ndarray:
        """L v minus the combination of rows that clears v at every pivot, for
        the vectors V of the vertices idx, given mv >= max|V|.  A vertex whose
        v is zero at all its pivots gets v itself, which spans the same line."""
        every = len(idx) == len(self.dim)
        piv = self._piv if every else self._piv[idx]
        c = V[np.arange(len(idx))[:, None], piv]
        if not c.any():
            return V
        R = self._R if every else self._R[idx]
        L, Lp = (self._L, self._Lp) if every else (self._L[idx], self._Lp[idx])
        if self._object or V.dtype == object or mv * (self._Lmax + self._reach) >= _INT64_SAFE:
            V, c, R = map(_to_object, (V, c, R))
        return V * L[:, None] - ((c * Lp)[:, None, :] @ R)[:, 0]

    def insert(self, idx: np.ndarray, V: np.ndarray, mv: int) -> tuple[np.ndarray, np.ndarray, int]:
        """Insert V[t] into the span of vertex idx[t] for each t, given the
        sorted vertex indices idx and mv >= max|V|.  Returns the vertices
        whose span grew, their new rows and the rows' largest absolute entry.
        """
        W = self._residue(idx, V, mv)
        if not W.any():
            return idx[:0], W[:0], 0
        a = idx
        if not (grew := W.any(axis=1)).all():
            a, W = idx[grew], W[grew]
        rows = np.arange(len(a))
        piv = (W != 0).argmax(axis=1)
        content = np.gcd.reduce(np.abs(W), axis=1)
        W = W // np.where(W[rows, piv] < 0, -content, content)[:, None]
        q, wmax = W[rows, piv], np.abs(W).max(axis=1)
        bound = int(wmax.max())
        if W.dtype == object and bound < _INT64_SAFE:
            W, q, wmax = W.astype(np.int64), q.astype(np.int64), wmax.astype(np.int64)
        if not self._object and (W.dtype == object or (self._L[a] >= _INT64_SAFE // q).any()):
            self._to_objects()
        self._back_substitute(a, W, piv, q, wmax)
        self._append(a, W, piv, q, wmax)
        return a, W, bound

    def _back_substitute(self, a, W, piv, q, wmax) -> None:
        """Clear the new pivot column of vertex a[t] in every row of a[t] with
        q R_r - R_r[piv] w, then strip each changed row's content.  W is zero
        at every old pivot, so the rows stay zero there and their pivot
        entries stay positive."""
        cap = self._R.shape[1]
        col = self._R[a[:, None], np.arange(cap), piv[:, None]]
        t, r = np.nonzero(col)
        if not t.size:
            return
        verts = a[t]
        if not self._object and (self._bounds[verts, r] >= _INT64_SAFE // (q + wmax)[t]).any():
            self._to_objects()
            col = _to_object(col)
        sub = self._R[verts, r] * q[t, None] - col[t, r][:, None] * W[t]
        content = np.gcd.reduce(np.abs(sub), axis=1)
        sub //= content[:, None]
        self._R[verts, r] = sub
        self._p[verts, r] = self._p[verts, r] * q[t] // content
        if not self._object:
            self._bounds[verts, r] = np.abs(sub).max(axis=1)

    def _append(self, a, W, piv, q, wmax) -> None:
        """Store W[t] as a new row of vertex a[t], then refresh L, L // p and
        the bounds."""
        cap = self._R.shape[1]
        pos = self.dim[a]
        if pos.max() == cap:
            cap = min(self.ncols, max(4, 2 * cap))
            self._R, self._piv, self._Lp, self._bounds = (
                _grow(x, cap, 0) for x in (self._R, self._piv, self._Lp, self._bounds))
            self._p = _grow(self._p, cap, 1)
        self._R[a, pos], self._piv[a, pos], self._p[a, pos] = W, piv, q
        self.dim[a] += 1
        p = self._p[a]
        L = np.lcm.reduce(p, axis=1)
        self._L[a] = L
        self._Lp[a] = np.where(np.arange(cap) < self.dim[a][:, None], L[:, None] // p, 0)
        self._Lmax = int(self._L.max())
        if not self._object:
            self._bounds[a, pos] = wmax
            self._reach = int(self._Lp.max()) * int(self.dim.max()) * int(self._bounds.max())


def _grow(a: np.ndarray, cap: int, fill: int) -> np.ndarray:
    """a with its row axis (axis 1) padded to cap rows of fill, as Python
    ints when a is an object array."""
    out = np.full(a.shape[:1] + (cap,) + a.shape[2:], fill, dtype=a.dtype)
    out[:, :a.shape[1]] = a
    return out


def _narrow(E: np.ndarray, bound: int) -> np.ndarray:
    """E on the narrowest integer type that holds entries up to bound.  The
    sub-blocks and the queue elements only feed _imatmul, which widens them
    again, so the queue, which keeps every element of a column, and the 0/1
    sub-blocks of a graph take an eighth of the memory."""
    for t, top in _NARROW:
        if bound <= top:
            return E.astype(t)
    return E


def _spin_stack(A: np.ndarray, cells: Sequence[np.ndarray]) -> np.ndarray:
    """dim of the algebra generated by A and the cell projections, for each
    vertex of a stack: cells[c] is the (m, |X_c|) array of every vertex's
    cell c, nonempty, in the order in which the columns are spun."""
    m = len(cells[0])
    sizes = [X.shape[1] for X in cells]
    # left[h]: every nonzero sub-block stack (l, A[X_l, X_h], max|A[X_l, X_h]| |X_h|)
    left = []
    for X_h in cells:
        blocks = ((l, A[X_l[:, :, None], X_h[:, None, :]]) for l, X_l in enumerate(cells))
        blocks = ((l, B, _max_abs(B)) for l, B in blocks if B.any())
        left.append([(l, _narrow(B, b), b * X_h.shape[1]) for l, B, b in blocks])
    every = np.arange(m)
    known = {}  # (l, j) -> the elements (vertices, stack, bound) of block (l, j), l > j
    dims = np.zeros(m, dtype=np.intp)
    for j, k_j in enumerate(sizes):
        spans = {l: StackedSpan(m, sizes[l] * k_j) for l in range(j, len(cells))}
        eye = np.broadcast_to(np.eye(k_j, dtype=np.int64).reshape(1, -1), (m, k_j * k_j))
        _, E, e = spans[j].insert(every, eye, 1)
        found = [(j, every, _narrow(E.reshape(m, k_j, k_j), e), e)]
        for h in range(j):
            elements = known.pop((j, h), [])
            if any(l >= j for l, _, _ in left[h]):
                found += [(h, idx, np.swapaxes(M, 1, 2), b) for idx, M, b in elements]
        pos = 0
        while pos < len(found):
            h, idx, M, mb = found[pos]
            pos += 1
            for l, B, b in left[h]:
                if l < j:
                    continue
                P = _imatmul(B if len(idx) == m else B[idx], M, b * mb)
                new, E, e = spans[l].insert(idx, P.reshape(len(idx), -1), b * mb)
                if len(new):
                    found.append((l, new, _narrow(E.reshape(len(new), sizes[l], k_j), e), e))
        for h, idx, M, mb in found:
            if h > j:
                known.setdefault((h, j), []).append((idx, M, mb))
        dims += spans[j].dim + 2 * sum(spans[l].dim for l in spans if l > j)
    return dims


def block_spin_dims(A: np.ndarray, labels) -> list[int]:
    """For each row of the (m, n) array labels of nonnegative integers, the
    dimension of the unital algebra T generated by the symmetric integer
    matrix A and the projections onto the cells {v : labels[b, v] = c}, the
    nonempty level sets in increasing order of c.

    All rows must have the same cell sizes; they are spun in stacks of at
    most 2**16 // (largest size)^2 rows.  Column j spins the blocks
    l >= j of T P_j from P_j and from the transposes of the blocks (j, h),
    h < j, found in earlier columns: every new element M of block (h, j) is
    multiplied by each nonzero sub-block B = A[X_l, X_h], l >= j, and the
    product is inserted into the span of block (l, j).  Terminates because
    block (h, j) has dimension at most |X_h| |X_j|.  A may be an object array
    of Python ints.  Raises ValueError for an A that is not symmetric, whose
    T those transposes would not span, and for rows whose cell sizes differ.
    """
    A = _as_int_array(A)
    if not np.array_equal(A, A.T):
        raise ValueError("block_spin_dims needs a symmetric matrix")
    labels = np.asarray(labels)
    if not len(labels):
        return []
    counts = (labels[:, :, None] == np.arange(labels.max() + 1)).sum(axis=1)
    if (counts != counts[0]).any():
        raise ValueError("cells of different sizes in one request: not distance-regular")
    sizes = counts[0][counts[0] > 0]
    cols = np.split(np.argsort(labels, axis=1, kind="stable"), np.cumsum(sizes)[:-1], axis=1)
    step = max(1, _STACK_ENTRIES // int(sizes.max()) ** 2)
    return [dim for s in range(0, len(labels), step)
            for dim in _spin_stack(A, [X[s:s + step] for X in cols]).tolist()]


def terwilliger_dimensions(g: Graph, vertices, dd: Optional[DistanceData] = None) -> list[int]:
    """dim T(x) for each of the given vertices: block_spin_dims of A on the
    distance classes from x, for vertices that pass checked_vertices.
    Vertices whose classes differ in size raise ValueError."""
    dd = dd or distances(g)
    vertices = np.array(checked_vertices(g.n, vertices), dtype=np.intp)
    return block_spin_dims(g.adjacency, dd.dist[vertices])


def terwilliger_dimension(g: Graph, x: int, dd: Optional[DistanceData] = None) -> int:
    """dim T(x): terwilliger_dimensions for the one vertex x, a stack of one."""
    return terwilliger_dimensions(g, [x], dd)[0]
