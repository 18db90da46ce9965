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
* Integer products go through _imatmul, which picks the cheapest exact
  route from a bound on every partial sum: float64 (BLAS) below 2**53, where
  every partial sum is an integer that float64 holds exactly, int64 below
  2**62 and Python ints past that.  No floating point is consulted for any
  exact decision.
* Spectra of integer matrices have one certificate, certified_stack: floats
  propose, integers certify.  It takes an (m, k, k) stack, such as the
  subconstituent blocks of one distance class, and reads integer roots and
  monic quadratics x^2 - s*x + p off _float_eigenvalues, the one float
  eigensolver (eigvalsh for symmetric matrices, eigvals for any other, such
  as the intersection matrix): of the first matrix for the whole stack, then
  of the matrices that proposal fails, in one batched run.  It accepts a
  proposal for a matrix only when its factors' product annihilates it and the
  power traces tr(B^j), j < d, match, both by batched integer products.
  The accepted factor key, with multiplicities, is the exact spectrum, and
  factor_roots turns it into exact eigenvalues.  certified_factors(B) is the
  case m = 1.  A float can cause a fallback, never an answer.
* A matrix the certificate declines (a cubic factor, a non-diagonalizable
  matrix) goes through charpoly_int (Faddeev-LeVerrier over Z) and
  eigenvalues_from_charpoly, which divides out integer roots (from their
  Laguerre-Samuelson interval) and real quadratics by exact trial division
  into a factor key of the same canonical form, or gives None.  Both are
  plain integer code, like the square-free parts; the package imports no
  computer algebra system.  spectra._spectrum_from_key is the one caller
  that chains these steps into a Spectrum.
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
    "radical_sign",
    "square_free_split",
    "certified_factors",
    "certified_stack",
    "charpoly_int",
    "eigenvalues_from_charpoly",
    "factor_roots",
]

_INT64_SAFE = 2**62
_FLOAT_EXACT = 2**53


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
    """a as an array of Python ints, of any shape (an empty axis included)."""
    if a.dtype == object:
        return a
    out = np.empty(a.size, dtype=object)
    out[:] = a.ravel().tolist()
    return out.reshape(a.shape)


def _float_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B through float64 (BLAS), back on int64: exact when every partial
    sum is an integer below 2**53, whatever the summation order."""
    return (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64)


def _imatmul(A: np.ndarray, B: np.ndarray, bound: Optional[int] = None) -> np.ndarray:
    """Exact integer matrix product of two matrices or two stacks of them:
    float64 (BLAS) when the bound is below 2**53, int64 below 2**62, and
    Python ints past that.

    bound, when the caller knows one, bounds the product's entries and every
    partial sum of them; otherwise it is max|A| max|B| times the inner size.
    Narrower integer inputs are widened, so the product is never computed in
    their type.
    """
    if A.dtype != object and B.dtype != object:
        if bound is None:
            bound = _max_abs(A) * _max_abs(B) * A.shape[-1]
        if bound < _FLOAT_EXACT:
            return _float_matmul(A, B)
        if bound < _INT64_SAFE:
            return A.astype(np.int64, copy=False) @ B.astype(np.int64, copy=False)
    return _to_object(A) @ _to_object(B)


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


def _propose_factors(S: np.ndarray) -> list[Optional[tuple]]:
    """One proposal per matrix of an (m, k, k) stack: _cluster_factors on its
    row of one batched _float_eigenvalues; certified_stack asks for the first
    matrix, then for those its proposal fails.  No proposal for a matrix with
    an eigenvalue further than _PROPOSE_TOL from the real line, nor for an
    object-dtype (large-entry) or empty stack.
    """
    if S.dtype == object or S.shape[-1] == 0:
        return [None] * len(S)
    vals, imag = _float_eigenvalues(S)
    return [None if im > _PROPOSE_TOL else _cluster_factors(v) for v, im in zip(vals, imag.tolist())]


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
    a + b = j.  With r the largest absolute row sum in the stack, _imatmul
    takes r^j as the bound of B^j, and the element-wise terms, at most
    n^2 * r^(count-1) in sum, run on Python ints when that reaches 2**62."""
    n = B.shape[-1]
    r = max(1, _max_row_sum(B))
    powers = [np.broadcast_to(np.eye(n, dtype=np.int64).astype(B.dtype), B.shape), B]
    while len(powers) < count // 2 + 1:
        powers.append(_imatmul(powers[-1], B, r ** len(powers)))
    if n * n * r ** (count - 1) >= _INT64_SAFE:
        powers = [_to_object(P) for P in powers]
    return np.stack([(powers[j // 2] * np.swapaxes(powers[j - j // 2], -1, -2)).sum(axis=(-2, -1))
                     for j in range(count)], axis=-1)


def _factor_product(B: np.ndarray, factors) -> np.ndarray:
    """prod_i f_i(B) exactly, for factors (r,) = x - r and (s, p) = x^2 - s*x + p,
    of a matrix or of each matrix of a stack.

    With r the largest absolute row sum in the stack, ||f_i(B)|| is at most
    r + |r_i| or r^2 + |s_i| r + |p_i| in infinity norms, and every entry and
    partial sum of a partial product at most the product of its factors'
    norms.  _imatmul takes that bound (r^2 for B^2), so the stack moves to
    Python ints only at the first partial product whose bound reaches 2**62.
    """
    B = _as_int_array(B)
    r = max(1, _max_row_sum(B))
    eye = np.eye(B.shape[-1], dtype=np.int64).astype(B.dtype)
    B2 = _imatmul(B, B, r * r) if any(len(f) == 2 for f in factors) else None
    product, bound = np.broadcast_to(eye, B.shape), 1
    for f in factors:
        bound *= r + abs(f[0]) if len(f) == 1 else r * r + abs(f[0]) * r + abs(f[1])
        if B.dtype != object and bound >= _INT64_SAFE:
            B, eye = _to_object(B), _to_object(eye)
        product = _imatmul(product, B - f[0] * eye if len(f) == 1
                           else B2 - f[0] * B + f[1] * eye, bound)
    return product


def certified_stack(S) -> list[Optional[tuple]]:
    """For each matrix of an (m, k, k) integer stack, its characteristic
    polynomial as a proven product of integer roots and monic real
    quadratics, or None.

    _propose_factors reads ((r, m), ..., (s, p, m), ...) off the float
    eigenvalues: integer roots r and quadratics x^2 - s*x + p, each with a
    multiplicity m.  The first round proposes from the first matrix and
    tries that on the whole stack, which is enough when all share one
    spectrum; the second proposes, in one batched run, for the others still
    without a key and groups them by proposal, so m distinct spectra cost
    two rounds, not m.  A proposal is accepted for a matrix only when its
    factors are distinct, every quadratic has two real irrational roots
    (s^2 - 4p > 0 and not a square), and two integer checks pass, each run
    once on the sub-stack it is tried on:

    * prod_i f_i(B) = 0, so every eigenvalue of B is a root of some f_i;
    * tr(B^j) = sum_i m_i * p_j(f_i) for j = 0..d-1, d = sum_i deg f_i, with
      p_j(f_i) the power sums of the roots of f_i.  On the d distinct roots
      this is a nonsingular Vandermonde system, so it fixes every
      multiplicity (j = 0 gives the size of B).

    Both checks are exact: int64 under the overflow bounds of _factor_product
    and _power_traces, taken from the sub-stack's largest row sum, and Python
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
    for first_round in (True, False):
        todo = range(len(S)) if first_round else [b for b in range(1, len(S)) if keys[b] is None]
        if not todo:
            break
        proposals = _propose_factors(S[:1]) * len(S) if first_round else _propose_factors(S[todo])
        groups: dict[tuple, list[int]] = {}
        for b, proposal in zip(todo, proposals):
            if proposal is not None:
                groups.setdefault(proposal, []).append(b)
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

    When all n roots are real, s1 = -c1 is their sum, p2 = c1^2 - 2 c2 the
    sum of their squares, and each root t has (n t - s1)^2 <= (n - 1)(n p2 -
    s1^2) (Laguerre-Samuelson; n p2 < s1^2 gives None).  Trial division then
    removes every integer root t in that interval dividing the constant term,
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
    n, s1 = max(len(f) - 1, 1), -(f + [0])[1]  # a constant f scans t = 0 alone
    spread = n * _square_sum(f) - s1 * s1
    if spread < 0:
        return None
    linear, quadratic = [], []
    r = math.isqrt((n - 1) * spread)
    for t in range(-((r - s1) // n), (r + s1) // n + 1):
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
