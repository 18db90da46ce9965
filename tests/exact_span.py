"""ExactSpan: the one-vector-at-a-time exact row space, kept as the span of
the tests' whole-matrix closure oracle and checked against sympy ranks.

drgkit's own closure spins a stack of vertices through terwilliger's
StackedSpan; the oracle spins whole n x n matrices through this class, so
neither runs the code it checks.  It reads exactla's helpers through the
module, so a test that patches exactla._to_object sees its conversions.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from drgkit import exactla


def _gcd_all(a: np.ndarray) -> int:
    """The gcd of the entries, stopping at 1 on Python ints."""
    if a.dtype != object:
        return int(np.gcd.reduce(np.abs(a), axis=None))
    g = 0
    for v in a.flat:
        g = math.gcd(g, abs(int(v)))
        if g == 1:
            return 1
    return g


def _strip_row(v: np.ndarray) -> tuple[np.ndarray, int]:
    """v divided by its content, back on int64 when it fits, and its max|v|."""
    g, m = _gcd_all(v), exactla._max_abs(v)
    if g > 1:
        v, m = v // g, m // g
    if v.dtype == object and m < exactla._INT64_SAFE:
        v = v.astype(np.int64)
    return v, m


class ExactSpan:
    """Incrementally maintained row space over Q of flat integer vectors.

    The rows are kept in one integer matrix R in reduced echelon form: every
    row is primitive (content 1), positive at its pivot column and zero at the
    pivot column of every other row.  A vector v therefore reduces against all
    rows in one product: with c = v[pivots], p the pivot entries and L their
    lcm, L v - (c * (L // p)) @ R is zero at every pivot, and it is zero
    everywhere exactly when v lies in the span.  An accepted residue has its
    content stripped and is back-substituted into the rows that are nonzero at
    its pivot in one step.  Each row carries its largest absolute entry, so
    the int64 bound L max|v| + max|v| max(L/p) rows max|R| is checked without
    a pass over the entries; past it the arithmetic runs on Python ints.  R
    grows geometrically as rows arrive.  Matrices are inserted as their
    flattened entries.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.dim = 0
        self.bounds: list[int] = []  # max|entry| of each row
        self.last: Optional[tuple[np.ndarray, int]] = None  # newest row, its bound
        self._R = np.zeros((0, ncols), dtype=np.int64)  # rows 0..dim-1 are in use
        self._piv = np.zeros(0, dtype=np.intp)  # pivot column of each row
        self._p: list[int] = []  # pivot entry of each row
        self._L = 1
        self._Lp = np.zeros(0, dtype=np.int64)  # L // pivot entry, per row
        self._scale = 0  # L + max(L/p) rows max|R|: residue bound per unit of max|v|

    @property
    def rows(self) -> np.ndarray:
        """The echelon rows, one per dimension (a view, valid until the next
        insert)."""
        return self._R[:self.dim]

    def _residue(self, v: np.ndarray, mv: int) -> np.ndarray:
        """L v minus the combination of rows that clears v at every pivot,
        given mv >= max|v|: zero exactly when v lies in the span."""
        c = v[self._piv[:self.dim]]
        if not c.any():
            return v
        R = self.rows
        if v.dtype != object and R.dtype != object and mv * self._scale < exactla._INT64_SAFE:
            return v * self._L - (c * self._Lp) @ R
        return exactla._to_object(v) * self._L - (exactla._to_object(c) * exactla._to_object(self._Lp)) @ exactla._to_object(R)

    def _flatten(self, mat) -> np.ndarray:
        v = exactla._as_int_array(mat).reshape(-1).copy()
        if v.shape[0] != self.ncols:
            raise ValueError("dimension mismatch")
        return v

    def insert(self, mat, bound: Optional[int] = None) -> bool:
        """Insert when independent of the current span; True means it grew,
        and then self.last holds the new row and its largest absolute entry.

        bound, when given, bounds the absolute entries of mat, an integer
        array with ncols entries, which is then read without a copy.
        """
        if bound is None:
            v = self._flatten(mat)
            bound = exactla._max_abs(v)
        else:
            v = mat.reshape(-1)
        w = self._residue(v, bound)
        if not w.any():
            return False
        w, m = _strip_row(w)
        piv = int(np.flatnonzero(w)[0])
        if w[piv] < 0:
            w = -w
        self._back_substitute(piv, w, m)
        self._append(piv, w, m)
        self.last = (w, m)
        return True

    def _back_substitute(self, piv: int, w: np.ndarray, m: int) -> None:
        """Clear column piv in every row with q R_i - R_i[piv] w, q = w[piv] > 0,
        then strip each changed row's content.  w is zero at every old pivot,
        so the rows stay zero there and their pivot entries stay positive."""
        R = self.rows
        hit = np.flatnonzero(R[:, piv])
        if not hit.size:
            return
        q = int(w[piv])
        if R.dtype == object or w.dtype == object or (q + m) * max(self.bounds) >= exactla._INT64_SAFE:
            self._R = exactla._to_object(self._R)
            R, w = self.rows, exactla._to_object(w)
        sub = R[hit]
        sub = sub * q - sub[:, piv, None] * w
        content = np.gcd.reduce(np.abs(sub), axis=1)
        sub //= content[:, None]
        R[hit] = sub
        for i, g, row_max in zip(hit.tolist(), content.tolist(), np.abs(sub).max(axis=1).tolist()):
            self._p[i] = self._p[i] * q // int(g)
            self.bounds[i] = int(row_max)

    def _append(self, piv: int, w: np.ndarray, m: int) -> None:
        """Store w as a new row with pivot column piv and bound m, then refresh
        L, L // p and the residue bound."""
        if self.dim == len(self._R):
            cap = min(self.ncols, max(4, 2 * self.dim))
            R = np.zeros((cap, self.ncols), dtype=self._R.dtype)
            R[:self.dim] = self.rows
            self._R, self._piv = R, np.resize(self._piv, cap)
        if w.dtype == object:
            self._R = exactla._to_object(self._R)
        self._R[self.dim], self._piv[self.dim] = w, piv
        self.dim += 1
        self._p.append(int(w[piv]))
        self.bounds.append(m)
        mr = max(self.bounds)
        if self._R.dtype == object and mr < exactla._INT64_SAFE:
            self._R = self._R.astype(np.int64)
        self._L = math.lcm(*self._p)
        Lp = [self._L // p for p in self._p]
        self._Lp = np.array(Lp, dtype=np.int64 if self._L < exactla._INT64_SAFE else object)
        self._scale = self._L + max(Lp) * self.dim * mr
