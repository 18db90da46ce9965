"""Exact arithmetic over Q and real quadratic fields Q(sqrt(d)).

Everything downstream (spectra, scheme data, algebra closures) rests on this
module.  The guiding constraints:

* Scalars are numbers a + b*sqrt(d) with rational a, b and square-free d >= 0.
  Surds appear as scalars only in eigenvalues (of the graph and of its
  subconstituents) and the quantities derived from them.  Scalars are
  exact only; eigenvalues whose minimal polynomial does not split over a
  quadratic field are plain Python floats, outside this type.  The scheme
  data of several quadratic fields at once (multiplicities, Krein signs)
  never form scalars: they are integer coefficients on distinct square-free
  radicals sqrt(r), whose sign radical_sign decides.
* Matrices are plain integer numpy arrays (0/1 generators, algebra closure
  products, characteristic polynomials).  int64 is used whenever a bound
  check proves it safe, with Python-int object arrays as the overflow
  fallback.
* Linear independence is decided against a reduced integer echelon form
  kept as one matrix R (ExactSpan): a vector v reduces against every row in
  one integer product, L v - (v[pivots] * (L // p)) @ R with p the pivot
  entries and L their lcm, and an accepted row is stripped of its content and
  back-substituted into the other rows in one vectorized step.  No floating
  point is consulted for any exact decision.
* Spectra of integer matrices have one certificate, certified_stack: floats
  propose, integers certify.  It takes an (m, k, k) stack, such as the
  subconstituent blocks of one distance class, reads integer roots and
  monic quadratics x^2 - s*x + p off one batched run of _float_eigenvalues,
  the one float eigensolver (eigvalsh for symmetric matrices, eigvals for
  any other, such as the intersection matrix), groups the matrices by
  proposal, and accepts a proposal for a matrix only when their product
  annihilates it and the power traces tr(B^j), j < d, match, both checked
  by batched integer products on the group.  The accepted factor key, with
  multiplicities, is the exact spectrum, and factor_roots turns it into
  exact eigenvalues.  certified_factors(B) is the case m = 1.  A float can
  cause a fallback, never an answer.
* A matrix the certificate declines (a cubic factor, a non-diagonalizable
  matrix) goes through charpoly_int (Faddeev-LeVerrier over Z) and
  eigenvalues_from_charpoly, which divides out integer roots and real
  quadratics by exact trial division into a factor key of the same
  canonical form, or gives None.  Both are plain integer code, like the
  square-free parts; the package imports no computer algebra system.
  spectra._spectrum_from_key is the one caller that chains these steps into
  a Spectrum.
* Scalars compare exactly: the sign of a + b*sqrt(d) is decided by one
  comparison of squares, and two different surds by one more (compare).  A
  sum of more radicals is signed by isqrt intervals (radical_sign).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "AlgebraicScalar",
    "ExactSpan",
    "radical_sign",
    "square_free_split",
    "certified_factors",
    "certified_stack",
    "charpoly_int",
    "eigenvalues_from_charpoly",
    "factor_roots",
]

_INT64_SAFE = 2**62


def square_free_split(n: int) -> tuple[int, int]:
    """Write n >= 0 as s*s*d with d square-free; return (s, d).

    Trial division by every d with d**3 at most the cofactor left, so the
    cost grows like n**(1/3).  The cofactor m left over has no prime factor
    up to its cube root, so it is 1, p, p*q or p**2, and math.isqrt tells
    p**2 from the square-free rest.
    """
    if n < 0:
        raise ValueError("square_free_split needs a non-negative integer")
    if n == 0:
        return 0, 0
    s, d, p = 1, 1, 2
    while p * p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            d *= p
        p += 1 if p == 2 else 2
    r = math.isqrt(n)
    if r * r == n:
        return s * r, d
    return s, d * n


def _sign(a: Fraction, b: Fraction, d: int) -> int:
    """Exact sign of a + b*sqrt(d), rational a, b, integer d >= 0: -1, 0 or 1.

    When a and b*sqrt(d) have opposite signs, the larger magnitude wins,
    which a^2 against b^2 d decides.
    """
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0 or d == 0:
        return sa
    if sa == 0 or sa == sb:
        return sb
    diff = a * a - b * b * d
    return sa * ((diff > 0) - (diff < 0))


@functools.total_ordering
class AlgebraicScalar:
    """An exact real number a + b*sqrt(d) with rational a and b.

    Instances are canonical: d is square-free, b == 0 forces d == 0, and
    d == 1 is folded into the rational part.  Equality and ordering are
    decided exactly, by comparisons of rationals, including across two
    different surds.  A float is never converted: passing one to the
    constructor, to arithmetic or to a comparison raises TypeError.  float(x)
    gives an approximation.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d=0):
        if isinstance(a, float) or isinstance(b, float):
            raise TypeError(f"AlgebraicScalar is exact; got a float in ({a!r}, {b!r})")
        a, b = Fraction(a), Fraction(b)
        if d < 0:
            raise ValueError("surd index must be non-negative")
        if b:
            s, d = square_free_split(d)
            b *= s
        if d == 1:
            a, b, d = a + b, Fraction(0), 0
        if b == 0 or d == 0:
            a, b, d = a, Fraction(0), 0
        self.a, self.b, self.d = a, b, d

    # -- views ----------------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, AlgebraicScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return AlgebraicScalar(other)
        if isinstance(other, float):
            raise TypeError(f"cannot mix an exact AlgebraicScalar with the float {other!r}")
        return NotImplemented

    @staticmethod
    def _join(x: "AlgebraicScalar", y: "AlgebraicScalar") -> int:
        if x.d == y.d or y.d == 0:
            return x.d
        if x.d == 0:
            return y.d
        raise ValueError(f"cannot mix sqrt({x.d}) and sqrt({y.d}) arithmetically")

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return AlgebraicScalar(self.a + o.a, self.b + o.b, self._join(self, o))

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicScalar(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        d = self._join(self, o)
        return AlgebraicScalar(
            self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a, d
        )

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicScalar":
        if self.a == 0 and self.b == 0:
            raise ZeroDivisionError("inverse of zero")
        norm = self.a * self.a - self.b * self.b * self.d
        return AlgebraicScalar(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self * o.inverse()

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return (self.a, self.b, self.d) == (o.a, o.b, o.d)

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def compare(self, other) -> int:
        """Exact three-way comparison, valid across two different surds;
        NotImplemented when other is not a scalar, an int or a Fraction.

        With two surds, x - y = X + Y for X = (a_x - a_y) + b_x sqrt(d_x) and
        Y = -b_y sqrt(d_y).  When X and Y have opposite signs, the sign of
        X^2 - Y^2, an element of Q(sqrt(d_x)), says which one wins.
        """
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        r0 = self.a - o.a
        if self.d == o.d or self.d == 0 or o.d == 0:
            return _sign(r0, self.b - o.b, self.d or o.d)
        sx, sy = _sign(r0, self.b, self.d), (o.b < 0) - (o.b > 0)
        if sx == sy:
            return sx
        return sx * _sign(r0 * r0 + self.b * self.b * self.d - o.b * o.b * o.d,
                          2 * r0 * self.b, self.d)

    def __lt__(self, other):
        c = self.compare(other)
        return c if c is NotImplemented else c < 0

    # -- rendering --------------------------------------------------------------

    @staticmethod
    def _frac_str(f: Fraction) -> str:
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    def __str__(self):
        if self.b == 0:
            return self._frac_str(self.a)
        coef = "" if abs(self.b) == 1 else self._frac_str(abs(self.b))
        surd = f"{coef}√{self.d}"
        if self.a == 0:
            return surd if self.b > 0 else f"-{surd}"
        op = "+" if self.b > 0 else "-"
        return f"{self._frac_str(self.a)} {op} {surd}"

    def __repr__(self):
        return f"AlgebraicScalar({self})"


def radical_sign(terms: dict[int, int]) -> int:
    """Exact sign of sum_r c_r sqrt(r), integers c_r and distinct square-free
    r >= 1: -1, 0 or 1.  Those sqrt(r) are linearly independent over Q, so
    the sum is zero exactly when every c_r is.  Otherwise each c_r sqrt(r)
    2^e lies between +-isqrt(c_r^2 r 4^e) and the next integer, and e grows
    until the sum of those intervals excludes 0 (Cohen, A Course in
    Computational Algebraic Number Theory, 1993)."""
    terms = [(c, r) for r, c in terms.items() if c]
    e = 0
    while terms:
        lo = hi = 0
        for c, r in terms:
            x = c * c * r << 2 * e
            t = math.isqrt(x)
            u = t if t * t == x else t + 1
            lo, hi = (lo + t, hi + u) if c > 0 else (lo - u, hi - t)
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
        e = 2 * e + 16
    return 0


# ---------------------------------------------------------------------------
# integer array helpers
# ---------------------------------------------------------------------------


def _as_int_array(arr) -> np.ndarray:
    a = np.asarray(arr)
    if a.dtype == object:
        return a
    if not np.issubdtype(a.dtype, np.integer) and not np.issubdtype(a.dtype, np.bool_):
        raise ValueError("integer array expected")
    return a.astype(np.int64)


def _max_abs(a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    if a.dtype == object:
        return max((abs(int(v)) for v in a.flat), default=0)
    return int(np.abs(a).max())


def _max_row_sum(a: np.ndarray) -> int:
    """The largest absolute row sum (infinity norm) of an integer matrix, or
    the largest over a stack of them, exactly."""
    if a.dtype != object and _max_abs(a) * a.shape[-1] < _INT64_SAFE:
        return int(np.abs(a).sum(axis=-1).max(initial=0))
    rows = a.reshape(-1, a.shape[-1]).tolist()
    return max((sum(abs(int(v)) for v in row) for row in rows), default=0)


def _to_object(a: np.ndarray) -> np.ndarray:
    if a.dtype == object:
        return a
    out = np.empty(a.shape, dtype=object)
    out[...] = a.tolist()
    return out


def _imatmul(A: np.ndarray, B: np.ndarray, bound: Optional[int] = None) -> np.ndarray:
    """Exact integer matrix product; int64 when provably overflow-free.

    bound, when the caller knows one, bounds the product's entries (and every
    partial sum of them); otherwise it is max|A| max|B| times the inner size.
    """
    if A.dtype != object and B.dtype != object:
        if bound is None:
            bound = _max_abs(A) * _max_abs(B) * A.shape[1]
        if bound < _INT64_SAFE:
            return A @ B
    return _to_object(A) @ _to_object(B)


def _gcd_all(a: np.ndarray) -> int:
    if a.dtype != object:
        return int(np.gcd.reduce(np.abs(a), axis=None))
    g = 0
    for v in a.flat:
        g = math.gcd(g, abs(int(v)))
        if g == 1:
            return 1
    return g


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def _strip_row(v: np.ndarray) -> tuple[np.ndarray, int]:
    """v divided by its content, back on int64 when it fits, and its max|v|."""
    g, m = _gcd_all(v), _max_abs(v)
    if g > 1:
        v, m = v // g, m // g
    if v.dtype == object and m < _INT64_SAFE:
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
    flattened entries, which is the algebra-closure hot path.
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
        if v.dtype != object and R.dtype != object and mv * self._scale < _INT64_SAFE:
            return v * self._L - (c * self._Lp) @ R
        return _to_object(v) * self._L - (_to_object(c) * _to_object(self._Lp)) @ _to_object(R)

    def _flatten(self, mat) -> np.ndarray:
        v = _as_int_array(mat).reshape(-1).copy()
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
            bound = _max_abs(v)
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
        if R.dtype == object or w.dtype == object or (q + m) * max(self.bounds) >= _INT64_SAFE:
            self._R = _to_object(self._R)
            R, w = self.rows, _to_object(w)
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
            self._R = _to_object(self._R)
        self._R[self.dim], self._piv[self.dim] = w, piv
        self.dim += 1
        self._p.append(int(w[piv]))
        self.bounds.append(m)
        mr = max(self.bounds)
        if self._R.dtype == object and mr < _INT64_SAFE:
            self._R = self._R.astype(np.int64)
        self._L = math.lcm(*self._p)
        Lp = [self._L // p for p in self._p]
        self._Lp = np.array(Lp, dtype=np.int64 if self._L < _INT64_SAFE else object)
        self._scale = self._L + max(Lp) * self.dim * mr


# ---------------------------------------------------------------------------
# exact characteristic polynomials (Faddeev-LeVerrier over Z)
# ---------------------------------------------------------------------------


def charpoly_int(A) -> list[int]:
    """Exact characteristic polynomial [1, c1, ..., cn] of an integer matrix.

    Faddeev-LeVerrier over Z: M_1 = I, c_k = -tr(A M_k)/k and M_(k+1) =
    A M_k + c_k I.  Every M_k is an integer polynomial in A, so each division
    is exact; a remainder raises ArithmeticError.  The products go through
    _imatmul, int64 while its bound holds and Python ints after.
    """
    A = _as_int_array(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("square matrix required")
    n = len(A)
    diag = np.arange(n)
    coeffs, M = [1], np.eye(n, dtype=np.int64)
    for k in range(1, n + 1):
        M = _imatmul(A, M)
        c, rem = divmod(-sum(M.diagonal().tolist()), k)  # n entries may overflow int64
        if rem:
            raise ArithmeticError(f"tr(A M_{k}) is not divisible by {k}")
        coeffs.append(c)
        if M.dtype != object and abs(c) + _max_abs(M) >= _INT64_SAFE:
            M = _to_object(M)
        M[diag, diag] += c
    return coeffs


# ---------------------------------------------------------------------------
# certified factorizations: floats propose, integers certify
# ---------------------------------------------------------------------------

_PROPOSE_TOL = 1e-6


def _cluster_factors(vals) -> Optional[tuple]:
    """Integer roots and monic quadratics read off sorted float roots.

    Groups runs of vals closer than _PROPOSE_TOL and returns ((r, m), ...,
    (s, p, m), ...): integer roots r and quadratics x^2 - s*x + p, each with
    its cluster count m.  None when a cluster is neither near an integer nor
    paired with a conjugate of the same count.  Nothing here is trusted;
    callers certify the proposal with integers.
    """
    vals = np.asarray(vals, dtype=float)
    if vals.size == 0:
        return ()
    starts = np.flatnonzero(np.r_[True, np.diff(vals) > _PROPOSE_TOL])
    counts = np.diff(np.r_[starts, len(vals)])
    linear, irrational = [], []
    for v, m in zip((np.add.reduceat(vals, starts) / counts).tolist(), counts.tolist()):
        r = round(v)
        if abs(v - r) < _PROPOSE_TOL:
            linear.append((r, m))
        else:
            irrational.append((v, m))
    quadratic = []
    while irrational:
        u, m = irrational.pop(0)
        for idx, (w, mw) in enumerate(irrational):
            s, p = round(u + w), round(u * w)
            if (mw == m and abs(u + w - s) < _PROPOSE_TOL
                    and abs(u * w - p) < _PROPOSE_TOL * max(1.0, abs(p))):
                quadratic.append((s, p, m))
                del irrational[idx]
                break
        else:
            return None
    return tuple(sorted(linear)) + tuple(sorted(quadratic))


def _float_eigenvalues(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float eigenvalues of an integer matrix, or of each matrix of an
    (m, k, k) stack, ascending along the last axis, and the largest
    |imaginary part| per matrix: one (batched) np.linalg.eigvalsh when every
    matrix is symmetric (zeros), the real parts of one np.linalg.eigvals for
    any other stack, such as the intersection matrix.  The one float
    eigensolver of the package: _propose_factors and the float spectra of
    spectra read it."""
    F = B.astype(float)
    if (B == np.swapaxes(B, -1, -2)).all():
        vals = np.linalg.eigvalsh(F)
        return vals, np.zeros(vals.shape[:-1])
    vals = np.linalg.eigvals(F)
    return np.sort(vals.real, axis=-1), np.abs(vals.imag).max(axis=-1)


_ROW_DECIMALS = 9


def _propose_factors(S: np.ndarray) -> list[Optional[tuple]]:
    """One proposal per matrix of an (m, k, k) stack: _cluster_factors on its
    _float_eigenvalues; see certified_stack.

    Rows of eigenvalues that agree to _ROW_DECIMALS places are clustered
    once, on the first such row; a proposal is only ever a proposal, so this
    sharing can make a certificate fail, never pass.  No proposal for a
    matrix with an eigenvalue further than _PROPOSE_TOL from the real line,
    nor for an object-dtype (large-entry) or empty stack.
    """
    if S.dtype == object or S.shape[-1] == 0:
        return [None] * len(S)
    vals, imag = _float_eigenvalues(S)
    rows = [row.tobytes() for row in np.round(vals, _ROW_DECIMALS) + 0.0]  # -0.0 -> 0.0
    clustered: dict[bytes, Optional[tuple]] = {}
    for row, v in zip(rows, vals):
        if row not in clustered:
            clustered[row] = _cluster_factors(v)
    return [None if im > _PROPOSE_TOL else clustered[row] for row, im in zip(rows, imag.tolist())]


def _split_proposal(proposal: tuple) -> Optional[tuple[list, list]]:
    """(factors, multiplicities) of a proposal whose factors are distinct and
    whose quadratics have two real irrational roots (s^2 - 4p > 0 and not a
    square), else None."""
    factors = [tuple(f[:-1]) for f in proposal]
    if len(set(factors)) != len(factors):
        return None
    for f in factors:
        if len(f) == 2:
            disc = f[0] * f[0] - 4 * f[1]
            if disc <= 0 or math.isqrt(disc) ** 2 == disc:
                return None
    return factors, [f[-1] for f in proposal]


def _power_sums(factor: tuple, count: int) -> list[int]:
    """p_0..p_(count-1), the power sums of the roots of (r,) or (s, p) (Newton)."""
    if len(factor) == 1:
        return [factor[0] ** j for j in range(count)]
    s, p = factor
    sums = [2, s]
    while len(sums) < count:
        sums.append(s * sums[-1] - p * sums[-2])
    return sums[:count]


def _power_traces(B: np.ndarray, count: int) -> np.ndarray:
    """tr(B^0)..tr(B^(count-1)) along the last axis, for a matrix or each
    matrix of a stack: tr(B^j) is the sum of the entries of B^a * (B^b)^T with
    a + b = j.  With r the largest absolute row sum in the stack, nothing
    exceeds n^2 * r^(count-1), so int64 runs when that is below 2**62."""
    n, r = B.shape[-1], max(1, _max_row_sum(B))
    if B.dtype != object and n * n * r ** max(count - 1, 1) >= _INT64_SAFE:
        B = _to_object(B)
    powers = [np.broadcast_to(np.eye(n, dtype=np.int64).astype(B.dtype), B.shape), B]
    while len(powers) < count // 2 + 1:
        powers.append(powers[-1] @ B)
    return np.stack([(powers[j // 2] * np.swapaxes(powers[j - j // 2], -1, -2)).sum(axis=(-2, -1))
                     for j in range(count)], axis=-1)


def _factor_product(B: np.ndarray, factors) -> np.ndarray:
    """prod_i f_i(B) exactly, for factors (r,) = x - r and (s, p) = x^2 - s*x + p,
    of a matrix or of each matrix of a stack.

    With r the largest absolute row sum in the stack, every entry and partial
    sum is at most prod_i ||f_i(B)|| in infinity norms, so int64 runs when
    that bound is below 2**62.
    """
    B = _as_int_array(B)
    r = max(1, _max_row_sum(B))
    bound = math.prod(r + abs(f[0]) if len(f) == 1 else r * r + abs(f[0]) * r + abs(f[1])
                      for f in factors)
    if B.dtype != object and bound >= _INT64_SAFE:
        B = _to_object(B)
    eye = np.eye(B.shape[-1], dtype=np.int64).astype(B.dtype)
    B2 = B @ B if any(len(f) == 2 for f in factors) else None
    product = np.broadcast_to(eye, B.shape)
    for f in factors:
        product = product @ (B - f[0] * eye if len(f) == 1 else B2 - f[0] * B + f[1] * eye)
    return product


def certified_stack(S) -> list[Optional[tuple]]:
    """For each matrix of an (m, k, k) integer stack, its characteristic
    polynomial as a proven product of integer roots and monic real
    quadratics, or None.

    _propose_factors reads ((r, m), ..., (s, p, m), ...) off one batched run
    of _float_eigenvalues: integer roots r and quadratics x^2 - s*x + p, each
    with a multiplicity m.  The matrices are grouped by proposal, and a
    proposal is accepted for a matrix only when its factors are distinct,
    every quadratic has two real irrational roots (s^2 - 4p > 0 and not a
    square), and two integer checks pass, each run once on the group's
    sub-stack:

    * prod_i f_i(B) = 0, so every eigenvalue of B is a root of some f_i;
    * tr(B^j) = sum_i m_i * p_j(f_i) for j = 0..d-1, d = sum_i deg f_i, with
      p_j(f_i) the power sums of the roots of f_i.  On the d distinct roots
      this is a nonsingular Vandermonde system, so it fixes every
      multiplicity (j = 0 gives the size of B).

    Both checks are exact: int64 under the overflow bounds of _factor_product
    and _power_traces, taken from the group's largest row sum, and Python
    ints (object dtype) where a bound fails.  Neither check needs B
    symmetric.  Eigenvalues of an integer matrix are algebraic integers, so
    rational ones are integers and quadratic ones have an integral monic
    minimal polynomial: any diagonalizable B with its spectrum in at most
    quadratic fields has such a proposal.  Symmetric matrices are
    diagonalizable, and so is the intersection matrix of a distance-regular
    graph, whose eigenvalues are real and simple (BCN Sect. 4.1).  A float
    can only make the proposal fail; it never decides the answer.  Callers
    fall back to charpoly_int on None.
    """
    S = _as_int_array(S)
    if S.ndim != 3 or S.shape[1] != S.shape[2]:
        raise ValueError("(m, k, k) stack of square matrices expected")
    keys: list[Optional[tuple]] = [None] * len(S)
    groups: dict[tuple, list[int]] = {}
    for b, proposal in enumerate(_propose_factors(S)):
        if proposal is not None:
            groups.setdefault(tuple(proposal), []).append(b)
    for proposal, members in groups.items():
        split = _split_proposal(proposal)
        if split is None:
            continue
        factors, mults = split
        members = np.array(members)
        members = members[~(_factor_product(S[members], factors) != 0).any(axis=(-2, -1))]
        d = sum(len(f) for f in factors)
        expected = [0] * d
        for f, m in zip(factors, mults):
            for j, pj in enumerate(_power_sums(f, d)):
                expected[j] += m * pj
        for b, traces in zip(members.tolist(), _power_traces(S[members], d).tolist()):
            if traces == expected:
                keys[b] = proposal
    return keys


def certified_factors(B) -> Optional[tuple]:
    """The characteristic polynomial of one integer matrix as a proven product
    of integer roots and monic real quadratics, or None: the m = 1 case of
    certified_stack."""
    return certified_stack(_as_int_array(B)[None])[0]


def factor_roots(key) -> list[tuple[AlgebraicScalar, int]]:
    """The exact (eigenvalue, multiplicity) pairs of a factor key ((r, m), ...,
    (s, p, m), ...), sorted strictly descending: r for x - r, and
    (s +- sqrt(s^2 - 4p))/2 for x^2 - s*x + p.  This is the one decoder from a
    key to eigenvalues."""
    pairs = []
    for *f, m in key:
        if len(f) == 1:
            pairs.append((AlgebraicScalar(f[0]), m))
        else:
            s, p = f
            disc = Fraction(s * s - 4 * p)  # sqrt(u/v) = sqrt(u*v)/v
            half = Fraction(1, 2 * disc.denominator)
            d = disc.numerator * disc.denominator
            pairs += [(AlgebraicScalar(Fraction(s, 2), half, d), m),
                      (AlgebraicScalar(Fraction(s, 2), -half, d), m)]
    pairs.sort(key=functools.cmp_to_key(lambda p, q: p[0].compare(q[0])), reverse=True)
    return pairs


def _exact_quotient(f: list[int], g: Sequence[int]) -> Optional[list[int]]:
    """f / g for integer coefficient lists, g monic, or None when g does not
    divide f."""
    f, q = list(f), []
    for i in range(len(f) - len(g) + 1):
        q.append(f[i])
        for j in range(1, len(g)):
            f[i + j] -= f[i] * g[j]
    return None if any(f[len(q):]) else q


def _divide_out(f: list[int], g: Sequence[int]) -> tuple[list[int], int]:
    """(f / g^m, m) for the largest m with g^m dividing f."""
    m = 0
    while len(f) >= len(g):
        q = _exact_quotient(f, g)
        if q is None:
            break
        f, m = q, m + 1
    return f, m


def _square_sum(f: Sequence[int]) -> int:
    """c1^2 - 2 c2 for f = [1, c1, c2, ...]: the sum of the squared roots."""
    c1, c2 = (list(f) + [0, 0])[1:3]
    return c1 * c1 - 2 * c2


def eigenvalues_from_charpoly(coeffs: Sequence[int]) -> Optional[tuple]:
    """The factor key ((r, m), ..., (s, p, m), ...) of a monic integer
    polynomial whose roots are integers and real quadratic pairs, else None:
    the route of a matrix that certified_factors declines.

    When every root is real, each one lies within sqrt(p2), p2 = c1^2 - 2 c2
    the sum of the squared roots (p2 < 0 gives None).  Trial division then
    removes every integer root |t| <= isqrt(p2) dividing the constant term,
    and then every quadratic x^2 - s*x + p with two real roots u, w, so
    s^2 > 4p, s^2 - 2p = u^2 + w^2 <= p2 and |p| = |u w| <= p2/2, p dividing
    the constant term left.  Such a quadratic has no integer root, all of
    them being gone, so it is irreducible.  The key is returned only when
    nothing is left.  Only real factors are divided out, so a non-real root
    or one of degree >= 3 always leaves a remainder, and callers then fall
    back to plain float eigenvalues.  The key is sorted as certified_factors
    sorts its own, so one spectrum has one key whichever route found it.
    The function returns a key, not eigenvalues; its name is kept because
    the benchmark's layer trace (perfbench/layer_trace.py) records the
    declined route under it.
    """
    f = [int(c) for c in coeffs]
    p2 = _square_sum(f)
    if p2 < 0:
        return None
    linear, quadratic = [], []
    r = math.isqrt(p2)
    for t in range(-r, r + 1):
        if (f[-1] % t if t else f[-1]) == 0:  # t divides the constant term
            f, m = _divide_out(f, [1, -t])
            if m:
                linear.append((t, m))
    p2 = _square_sum(f)
    for p in (sign * q for q in range(1, p2 // 2 + 1) for sign in (1, -1)):
        if len(f) > 1 and f[-1] % p == 0:
            bound = math.isqrt(p2 + 2 * p)
            for s in range(-bound, bound + 1):
                if s * s > 4 * p:
                    f, m = _divide_out(f, [1, -s, p])
                    if m:
                        quadratic.append((s, p, m))
    return tuple(linear) + tuple(sorted(quadratic)) if len(f) == 1 else None
