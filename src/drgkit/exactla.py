"""Exact arithmetic over Q and real quadratic fields Q(sqrt(d)).

Everything downstream (spectra, scheme data, algebra closures) rests on this
module.  The guiding constraints:

* Scalars are numbers a + b*sqrt(d) with rational a, b and square-free d >= 0.
  Surds appear only as scalars: eigenvalues, multiplicity and Krein
  computations on the (D+1)-sized intersection array, and local spectra.
  Scalars are exact only; eigenvalues whose minimal polynomial does not
  split over a quadratic field are plain Python floats, outside this type.
* Matrices are plain integer numpy arrays (0/1 generators, algebra closure
  products, characteristic polynomials).  int64 is used whenever a bound
  check proves it safe, with Python-int object arrays as the overflow
  fallback.
* Linear independence is decided by fraction-free row reduction with gcd
  stripping; no floating point is consulted for any exact decision.
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
  matrix) goes through charpoly_int (CRT Faddeev-LeVerrier) and
  eigenvalues_from_charpoly, which factors the polynomial with sympy into a
  factor key of the same canonical form.  sympy is imported there and
  nowhere else; everything else (square-free parts, the CRT primes) is plain
  integer code.  spectra.spectrum_of_int_matrix is the one caller that
  chains these steps into a Spectrum.
* Scalars compare exactly: the sign of a + b*sqrt(d) is decided by one
  comparison of squares, and two different surds by one more (compare).
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
    "sqrt_of_fraction",
    "square_free_split",
    "certified_factors",
    "certified_stack",
    "charpoly_int",
    "eigenvalues_from_charpoly",
    "factor_roots",
]

_INT64_SAFE = 2**62
_STRIP_THRESHOLD = 2**40


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

    @property
    def is_integer(self) -> bool:
        return self.is_rational and self.a.denominator == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self.a

    def as_int(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return int(self.a)

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

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else o + (-self)

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

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else o * self.inverse()

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

    def sign(self) -> int:
        """Exact sign: -1, 0 or 1."""
        return _sign(self.a, self.b, self.d)

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

    def __le__(self, other):
        c = self.compare(other)
        return c if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self.compare(other)
        return c if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self.compare(other)
        return c if c is NotImplemented else c >= 0

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


def sqrt_of_fraction(x) -> AlgebraicScalar:
    """Exact square root of a non-negative rational."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    s, d = square_free_split(x.numerator * x.denominator)
    return AlgebraicScalar(0, Fraction(s, x.denominator), d)


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


def _imatmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact integer matrix product; int64 when provably overflow-free."""
    if A.dtype != object and B.dtype != object:
        if _max_abs(A) * _max_abs(B) * A.shape[1] < _INT64_SAFE:
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


class _Row:
    """One row of a reduced integer echelon form: pivot column, vector and
    m = max|v|."""

    __slots__ = ("piv", "v", "m")

    def __init__(self, piv: int, v: np.ndarray, m: int):
        self.piv, self.v, self.m = piv, v, m


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

    Rows are kept in fully reduced echelon form with integer entries (content
    stripped, leading coefficient positive), so a membership test is a single
    elimination sweep.  Each row carries its largest absolute entry, so a
    combination p*v - c*r is bounded by |p| max|v| + |c| max|r| without a
    pass over the entries.  Matrices are inserted as their flattened entries,
    which is the algebra-closure hot path.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[_Row] = []
        self.last_row: Optional[_Row] = None  # reduced residue of the last insert

    @property
    def dim(self) -> int:
        return len(self.rows)

    @staticmethod
    def _combine(p: int, v: np.ndarray, mv: int, c: int, r: np.ndarray, mr: int
                 ) -> tuple[np.ndarray, int]:
        """p*v - c*r exactly, with the bound |p| mv + |c| mr on its entries
        (mv, mr bound those of v, r); int64 when the bound allows it."""
        m = abs(p) * mv + abs(c) * mr
        if v.dtype != object and r.dtype != object and m < _INT64_SAFE:
            return v * p - c * r, m
        return _to_object(v) * p - c * _to_object(r), m

    def _reduce(self, v: np.ndarray) -> Optional[_Row]:
        m = _max_abs(v)
        for row in self.rows:
            if v[row.piv] != 0:
                v, m = self._combine(int(row.v[row.piv]), v, m, int(v[row.piv]), row.v, row.m)
                if v.dtype == object or m > _STRIP_THRESHOLD:
                    v, m = _strip_row(v)
        v, m = _strip_row(v)
        if m == 0:
            return None
        first = int(np.flatnonzero(v)[0])
        return _Row(first, -v if v[first] < 0 else v, m)

    def _flatten(self, mat) -> np.ndarray:
        v = _as_int_array(mat).reshape(-1).copy()
        if v.shape[0] != self.ncols:
            raise ValueError("dimension mismatch")
        return v

    def insert(self, mat) -> bool:
        """Insert when independent of the current span; True means it grew."""
        new = self._reduce(self._flatten(mat))
        if new is None:
            return False
        self.last_row = new
        p = int(new.v[new.piv])
        updated = []
        for row in self.rows:
            if row.v[new.piv] != 0:
                # new.v is zero on row.piv and both leads are positive, so the
                # combination keeps a positive lead
                v, _ = self._combine(p, row.v, row.m, int(row.v[new.piv]), new.v, new.m)
                updated.append(_Row(row.piv, *_strip_row(v)))
            else:
                updated.append(row)
        updated.append(new)
        updated.sort(key=lambda r: r.piv)
        self.rows = updated
        return True


# ---------------------------------------------------------------------------
# exact characteristic polynomials (CRT Faddeev-LeVerrier)
# ---------------------------------------------------------------------------

@functools.cache
def _crt_primes() -> tuple[int, ...]:
    """The 64 smallest primes above 2**24, sieved once on first use.

    They lie below 2**24 + 1200, so one window [2**24, 2**24 + 4096) holds
    them; it is crossed off by the primes up to its square root, themselves
    from a plain sieve.
    """
    lo, width = 2**24, 4096
    root = math.isqrt(lo + width)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for q in range(2, math.isqrt(root) + 1):
        if small[q]:
            small[q * q::q] = False
    window = np.ones(width, dtype=bool)
    for q in np.flatnonzero(small).tolist():
        window[-lo % q::q] = False
    return tuple((lo + np.flatnonzero(window)[:64]).tolist())


def _charpoly_mod(A: np.ndarray, p: int) -> list[int]:
    n = len(A)
    Ap = np.array([[int(v) % p for v in row] for row in A.tolist()], dtype=np.int64)
    M = np.eye(n, dtype=np.int64)
    coeffs = [1]
    for k in range(1, n + 1):
        N = np.mod(Ap @ M, p)
        c = (-int(np.trace(N)) * pow(k, -1, p)) % p
        coeffs.append(c)
        M = np.mod(N + c * np.eye(n, dtype=np.int64), p)
    return coeffs


def charpoly_int(A) -> list[int]:
    """Exact characteristic polynomial [1, c1, ..., cn] of an integer matrix.

    Faddeev-LeVerrier modulo enough 24-bit primes, recombined by CRT.  The
    prime product exceeds twice the bound |c_k| <= C(n,k) * r**k (r = maximum
    absolute row sum), which dominates every elementary symmetric function of
    the eigenvalues, so the lift is exact, not heuristic.
    """
    A = _as_int_array(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("square matrix required")
    n = len(A)
    if n == 0:
        return [1]
    r = max(1, _max_row_sum(A))
    bound = max(math.comb(n, k) * r**k for k in range(n + 1))
    primes, prod = [], 1
    for p in _crt_primes():
        primes.append(p)
        prod *= p
        if prod > 2 * bound:
            break
    else:
        raise ValueError("matrix too large for the CRT prime pool")
    residues = [_charpoly_mod(A, p) for p in primes]
    coeffs = []
    for k in range(n + 1):
        x, mod = 0, 1
        for p, res in zip(primes, residues):
            t = ((res[k] - x) * pow(mod, -1, p)) % p
            x += mod * t
            mod *= p
        if x > mod // 2:
            x -= mod
        coeffs.append(x)
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


def _sympy_factors(coeffs: list[int]) -> list[tuple[list[int], int]]:
    """(integer coefficients, multiplicity) of each irreducible factor over Q,
    by sympy, which is imported here and nowhere else in the package."""
    import sympy

    poly = sympy.Poly(coeffs, sympy.Symbol("x"), domain=sympy.ZZ)
    return [([int(c) for c in f.all_coeffs()], m) for f, m in poly.factor_list()[1]]


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


def eigenvalues_from_charpoly(coeffs: Sequence[int]) -> Optional[tuple]:
    """The factor key ((r, m), ..., (s, p, m), ...) of a monic integer
    polynomial, factored by sympy: the route of a matrix that
    certified_factors declines.

    The irreducible factors of a monic polynomial over Z are monic, and the
    key is sorted as certified_factors sorts its own, so one spectrum has one
    key whichever route found it.  Returns None when a factor has degree >= 3
    or is a quadratic with non-real roots; callers then fall back to plain
    float eigenvalues.  The function returns a key, not eigenvalues; its name
    is kept because the benchmark's layer trace (perfbench/layer_trace.py)
    records the sympy route under it.
    """
    linear, quadratic = [], []
    for cs, m in _sympy_factors([int(c) for c in coeffs]):
        if len(cs) == 2:
            linear.append((-cs[1], m))
        elif len(cs) == 3 and cs[1] * cs[1] - 4 * cs[2] > 0:
            quadratic.append((-cs[1], cs[2], m))
        else:
            return None
    return tuple(sorted(linear)) + tuple(sorted(quadratic))
