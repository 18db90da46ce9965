"""Exact linear algebra over Q and real quadratic fields Q(sqrt(d)).

Everything downstream (spectra, idempotents, algebra closures) rests on this
module.  The guiding constraints:

* Scalars are numbers a + b*sqrt(d) with rational a, b and square-free d >= 0.
  All graphs in scope have quadratic eigenvalues, so one quadratic field per
  matrix suffices.  A float mode exists only as a fallback for eigenvalues
  whose minimal polynomial does not split over such a field.
* Matrices keep integer numerator arrays plus a single denominator, so the
  hot paths (0/1 generators, algebra closure products) run on plain integer
  numpy arrays.  int64 is used whenever a bound check proves it safe, with
  Python-int object arrays as the overflow fallback.
* Linear independence is decided by fraction-free row reduction with gcd
  stripping; no floating point is consulted for any exact decision.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
import sympy

__all__ = [
    "AlgebraicScalar",
    "ExactMatrix",
    "ExactSpan",
    "sqrt_of_fraction",
    "square_free_split",
    "rank",
    "span_insert",
    "eigenprojection",
    "charpoly_int",
    "eigenvalues_from_charpoly",
]

_INT64_SAFE = 2**62
_STRIP_THRESHOLD = 2**40


def square_free_split(n: int) -> tuple[int, int]:
    """Write n >= 0 as s*s*d with d square-free; return (s, d)."""
    if n < 0:
        raise ValueError("square_free_split needs a non-negative integer")
    if n == 0:
        return 0, 0
    s, d = 1, 1
    for p, e in sympy.factorint(n).items():
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    return s, d


def _sqrt_bounds(d: int, digits: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(d) <= hi with hi - lo <= 10**-digits."""
    scale = 10**digits
    s = math.isqrt(d * scale * scale)
    return Fraction(s, scale), Fraction(s + 1, scale)


class AlgebraicScalar:
    """A real number a + b*sqrt(d), or a float fallback value.

    Exact instances are canonical: d is square-free, b == 0 forces d == 0,
    and d == 1 is folded into the rational part.  Exact equality and ordering
    are decided symbolically, including across two different surds.
    """

    __slots__ = ("a", "b", "d", "fval")

    def __init__(self, a=0, b=0, d=0, fval: Optional[float] = None):
        if fval is not None:
            self.a = self.b = None
            self.d = None
            self.fval = float(fval)
            return
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
        self.fval = None

    # -- constructors and views -------------------------------------------

    @classmethod
    def from_float(cls, x: float) -> "AlgebraicScalar":
        return cls(fval=x)

    @property
    def is_exact(self) -> bool:
        return self.fval is None

    @property
    def is_rational(self) -> bool:
        return self.is_exact and self.b == 0

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

    def to_float(self) -> float:
        if not self.is_exact:
            return self.fval
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, AlgebraicScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return AlgebraicScalar(other)
        if isinstance(other, float):
            return AlgebraicScalar(fval=other)
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
        if not (self.is_exact and o.is_exact):
            return AlgebraicScalar(fval=self.to_float() + o.to_float())
        return AlgebraicScalar(self.a + o.a, self.b + o.b, self._join(self, o))

    __radd__ = __add__

    def __neg__(self):
        if not self.is_exact:
            return AlgebraicScalar(fval=-self.fval)
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
        if not (self.is_exact and o.is_exact):
            return AlgebraicScalar(fval=self.to_float() * o.to_float())
        d = self._join(self, o)
        return AlgebraicScalar(
            self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a, d
        )

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicScalar":
        if not self.is_exact:
            return AlgebraicScalar(fval=1.0 / self.fval)
        if self.a == 0 and self.b == 0:
            raise ZeroDivisionError("inverse of zero")
        norm = self.a * self.a - self.b * self.b * self.d
        return AlgebraicScalar(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not (self.is_exact and o.is_exact):
            return AlgebraicScalar(fval=self.to_float() / o.to_float())
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else o * self.inverse()

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.is_exact and o.is_exact:
            return (self.a, self.b, self.d) == (o.a, o.b, o.d)
        return self.to_float() == o.to_float()

    def __hash__(self):
        if self.is_exact:
            if self.b == 0:
                return hash(self.a)
            return hash((self.a, self.b, self.d))
        return hash(self.fval)

    def sign(self) -> int:
        """Exact sign (-1, 0, 1); float mode signs the float value."""
        if not self.is_exact:
            return (self.fval > 0) - (self.fval < 0)
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        lhs, rhs = self.a * self.a, self.b * self.b * self.d
        if self.a > 0:  # b < 0: positive iff a^2 > b^2 d
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return -1 if lhs > rhs else (1 if lhs < rhs else 0)

    def compare(self, other) -> int:
        """Exact three-way comparison, valid across two different surds."""
        o = self._coerce(other)
        if not (self.is_exact and o.is_exact):
            x, y = self.to_float(), o.to_float()
            return (x > y) - (x < y)
        if self.d == o.d or self.d == 0 or o.d == 0:
            return (self - o).sign()
        return _sign_two_surds(self.a - o.a, self.b, self.d, -o.b, o.d)

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    # -- rendering --------------------------------------------------------------

    @staticmethod
    def _frac_str(f: Fraction) -> str:
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    def __str__(self):
        if not self.is_exact:
            return format(self.fval, ".17g")
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

    @classmethod
    def parse(cls, text: str) -> "AlgebraicScalar":
        """Inverse of str(); also accepts 'sqrt' spelled out and bare floats."""
        s = text.strip().replace("sqrt", "√")
        if "√" not in s:
            try:
                return cls(Fraction(s))
            except ValueError:
                return cls(fval=float(s))
        head, _, tail = s.partition("√")
        d = int(tail.strip())
        sign = 1
        if " + " in head:
            a_str, b_str = head.split(" + ", 1)
        elif " - " in head:
            a_str, b_str = head.rsplit(" - ", 1)
            sign = -1
        else:
            a_str, b_str = "0", head
        b_str = b_str.strip()
        if b_str in ("", "+"):
            b = Fraction(1)
        elif b_str == "-":
            b = Fraction(-1)
        else:
            b = Fraction(b_str)
        return cls(Fraction(a_str.strip() or "0"), sign * b, d)


def _sign_two_surds(r0: Fraction, r1: Fraction, d1: int, r2: Fraction, d2: int) -> int:
    """Exact sign of r0 + r1*sqrt(d1) + r2*sqrt(d2), distinct square-free d1, d2 > 1.

    1, sqrt(d1), sqrt(d2) are linearly independent over Q, so the expression
    vanishes only when all three rationals do; otherwise interval refinement
    of the surds terminates.
    """
    if r1 == 0:
        return AlgebraicScalar(r0, r2, d2).sign()
    if r2 == 0:
        return AlgebraicScalar(r0, r1, d1).sign()
    digits = 8
    while digits <= 4096:
        lo1, hi1 = _sqrt_bounds(d1, digits)
        lo2, hi2 = _sqrt_bounds(d2, digits)
        lo = r0 + (r1 * lo1 if r1 > 0 else r1 * hi1) + (r2 * lo2 if r2 > 0 else r2 * hi2)
        hi = r0 + (r1 * hi1 if r1 > 0 else r1 * lo1) + (r2 * hi2 if r2 > 0 else r2 * lo2)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        digits *= 2
    raise ArithmeticError("sign refinement failed to converge")  # unreachable for nonzero input


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


def _max_abs(a: Optional[np.ndarray]) -> int:
    if a is None or a.size == 0:
        return 0
    if a.dtype == object:
        return max((abs(int(v)) for v in a.flat), default=0)
    return int(np.abs(a).max())


def _to_object(a: np.ndarray) -> np.ndarray:
    if a.dtype == object:
        return a
    out = np.empty(a.shape, dtype=object)
    out[...] = a.tolist()
    return out


def _shrink(a: np.ndarray) -> np.ndarray:
    if a is not None and a.dtype == object and _max_abs(a) < _INT64_SAFE:
        return a.astype(np.int64)
    return a


def _scale(arr: np.ndarray, c: int) -> np.ndarray:
    """Exact arr * c, widening to objects when int64 could overflow."""
    if c == 0:
        return np.zeros(arr.shape, dtype=np.int64)
    if arr.dtype != object and abs(c) * _max_abs(arr) < _INT64_SAFE:
        return arr * c
    return _to_object(arr) * c


def _imatmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact integer matrix product; int64 when provably overflow-free."""
    if A.dtype != object and B.dtype != object:
        if _max_abs(A) * _max_abs(B) * A.shape[1] < _INT64_SAFE:
            return A @ B
    return _to_object(A) @ _to_object(B)


def _scale_rows(d: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Exact diag(d) @ M as a row scaling; int64 when provably overflow-free."""
    col = d.reshape(-1, 1)
    if col.dtype != object and M.dtype != object:
        if _max_abs(col) * _max_abs(M) < _INT64_SAFE:
            return col * M
    return _to_object(col) * _to_object(M)


def _gcd_all(a: Optional[np.ndarray]) -> int:
    if a is None:
        return 0
    if a.dtype != object:
        return int(np.gcd.reduce(np.abs(a), axis=None))
    g = 0
    for v in a.flat:
        g = math.gcd(g, abs(int(v)))
        if g == 1:
            return 1
    return g


# ---------------------------------------------------------------------------
# ExactMatrix
# ---------------------------------------------------------------------------


class ExactMatrix:
    """Dense exact matrix over Q(sqrt(d)).

    Stored as (ra + rb*sqrt(d)) / den with integer numerator arrays and one
    positive integer denominator; rb is None when the matrix is rational.
    """

    __slots__ = ("rows", "cols", "d", "den", "ra", "rb")

    def __init__(self, ra, rb=None, den: int = 1, d: int = 0):
        ra = _as_int_array(ra)
        if ra.ndim != 2:
            raise ValueError("ExactMatrix expects a 2-D array")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if rb is not None:
            rb = _as_int_array(rb)
            if rb.shape != ra.shape:
                raise ValueError("surd part shape mismatch")
            if not rb.any():
                rb = None
        if rb is None:
            d = 0
        elif d in (0, 1):
            raise ValueError("nonzero surd part needs square-free d > 1")
        if den < 0:
            ra, rb, den = -ra, (None if rb is None else -rb), -den
        g = math.gcd(math.gcd(_gcd_all(ra), _gcd_all(rb)), den)
        if g > 1:
            ra = ra // g
            rb = None if rb is None else rb // g
            den //= g
        self.ra = _shrink(ra)
        self.rb = None if rb is None else _shrink(rb)
        self.den, self.d = int(den), int(d)
        self.rows, self.cols = ra.shape

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_int(cls, arr) -> "ExactMatrix":
        return cls(arr)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def from_scalars(cls, grid: Sequence[Sequence]) -> "ExactMatrix":
        scalars = [[s if isinstance(s, AlgebraicScalar) else AlgebraicScalar(s) for s in row]
                   for row in grid]
        d = 0
        for row in scalars:
            for s in row:
                if not s.is_exact:
                    raise ValueError("float-mode scalar in exact matrix")
                if s.d:
                    if d and s.d != d:
                        raise ValueError("entries do not share one quadratic field")
                    d = s.d
        den = 1
        for row in scalars:
            for s in row:
                den = math.lcm(den, s.a.denominator, s.b.denominator)
        ra = np.array([[int(s.a * den) for s in row] for row in scalars], dtype=object)
        rb = None
        if d:
            rb = np.array([[int(s.b * den) for s in row] for row in scalars], dtype=object)
        return cls(ra, rb, den, d)

    @classmethod
    def diagonal(cls, values: Sequence) -> "ExactMatrix":
        values = list(values)
        n = len(values)
        zero = AlgebraicScalar(0)
        return cls.from_scalars(
            [[values[i] if i == j else zero for j in range(n)] for i in range(n)]
        )

    # -- accessors -------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def entry(self, i: int, j: int) -> AlgebraicScalar:
        a = Fraction(int(self.ra[i, j]), self.den)
        b = Fraction(int(self.rb[i, j]), self.den) if self.rb is not None else 0
        return AlgebraicScalar(a, b, self.d)

    def is_zero(self) -> bool:
        return not self.ra.any() and self.rb is None

    def is_integer_matrix(self) -> bool:
        return self.den == 1 and self.rb is None

    def int_array(self) -> np.ndarray:
        if not self.is_integer_matrix():
            raise ValueError("matrix is not integral")
        return self.ra

    def to_float_array(self) -> np.ndarray:
        out = self.ra.astype(float)
        if self.rb is not None:
            out = out + self.rb.astype(float) * math.sqrt(self.d)
        return out / self.den

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.ra.T.copy(),
                           None if self.rb is None else self.rb.T.copy(),
                           self.den, self.d)

    def trace(self) -> AlgebraicScalar:
        a = Fraction(int(sum(int(self.ra[i, i]) for i in range(min(self.shape)))), self.den)
        b = Fraction(0)
        if self.rb is not None:
            b = Fraction(int(sum(int(self.rb[i, i]) for i in range(min(self.shape)))), self.den)
        return AlgebraicScalar(a, b, self.d)

    # -- algebra -----------------------------------------------------------------

    @staticmethod
    def _join_d(x: "ExactMatrix", y: "ExactMatrix") -> int:
        if x.d == y.d or y.d == 0:
            return x.d
        if x.d == 0:
            return y.d
        raise ValueError(f"cannot combine sqrt({x.d}) and sqrt({y.d}) matrices")

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        d = self._join_d(self, other)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        ra = _scale(self.ra, fa) + _scale(other.ra, fb)
        rb = None
        if self.rb is not None and other.rb is not None:
            rb = _scale(self.rb, fa) + _scale(other.rb, fb)
        elif self.rb is not None:
            rb = _scale(self.rb, fa)
        elif other.rb is not None:
            rb = _scale(other.rb, fb)
        return ExactMatrix(ra, rb, den, d)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self + (other * -1)

    def __mul__(self, scalar) -> "ExactMatrix":
        s = scalar if isinstance(scalar, AlgebraicScalar) else AlgebraicScalar(scalar)
        if not s.is_exact:
            raise ValueError("float-mode scalar in exact matrix arithmetic")
        d = self.d
        if s.d:
            if d and s.d != d:
                raise ValueError("scalar lives in a different quadratic field")
            d = s.d
        q = math.lcm(s.a.denominator, s.b.denominator)
        an, bn = int(s.a * q), int(s.b * q)
        ra = _scale(self.ra, an)
        rb = _scale(self.rb, an) if self.rb is not None else None
        if bn:
            if self.rb is not None:
                ra = ra + _scale(self.rb, bn * d)
            sb = _scale(self.ra, bn)
            rb = sb if rb is None else rb + sb
        return ExactMatrix(ra, rb, self.den * q, d)

    __rmul__ = __mul__

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        d = self._join_d(self, other)
        ra = _imatmul(self.ra, other.ra)
        rb = None
        if self.rb is not None and other.rb is not None:
            ra = ra + _scale(_imatmul(self.rb, other.rb), d)
            rb = _imatmul(self.ra, other.rb) + _imatmul(self.rb, other.ra)
        elif self.rb is not None:
            rb = _imatmul(self.rb, other.ra)
        elif other.rb is not None:
            rb = _imatmul(self.ra, other.rb)
        return ExactMatrix(ra, rb, self.den * other.den, d)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("ExactMatrix is unhashable")

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, d={self.d}, den={self.den})"


# ---------------------------------------------------------------------------
# spans and rank
# ---------------------------------------------------------------------------


class _Row:
    """One row of a reduced integer echelon form over Z[sqrt(d)]."""

    __slots__ = ("piv", "va", "vb")

    def __init__(self, piv: int, va: np.ndarray, vb: Optional[np.ndarray]):
        self.piv, self.va, self.vb = piv, va, vb


def _strip_row(va: np.ndarray, vb: Optional[np.ndarray]):
    g = _gcd_all(va)
    if vb is not None:
        g = math.gcd(g, _gcd_all(vb))
    if g > 1:
        va = va // g
        vb = None if vb is None else vb // g
    return _shrink(va), (None if vb is None else _shrink(vb))


class ExactSpan:
    """Incrementally maintained row space over Q(sqrt(d)).

    Rows are kept in fully reduced echelon form with integer entries (content
    stripped, leading coefficient positive), so a membership test is a single
    elimination sweep.  The rational case (d == 0) runs on flat integer
    vectors, which is the algebra-closure hot path.
    """

    def __init__(self, ncols: int, d: int = 0):
        self.ncols = ncols
        self.d = d
        self.rows: list[_Row] = []
        self.last_row: Optional[_Row] = None  # reduced residue of the last insert

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _nonzero_at(self, va, vb, i) -> bool:
        return va[i] != 0 or (vb is not None and vb[i] != 0)

    def _combine(self, pa: int, pb: int, va, vb, ca: int, cb: int, ra, rb):
        """(pa + pb*sqrt(d))*v - (ca + cb*sqrt(d))*r over Z[sqrt(d)]."""
        if pb == 0 and cb == 0 and vb is None and rb is None:
            if (va.dtype != object and ra.dtype != object
                    and abs(pa) * _max_abs(va) + abs(ca) * _max_abs(ra) < _INT64_SAFE):
                return va * pa - ca * ra, None
            return _to_object(va) * pa - ca * _to_object(ra), None
        d = self.d
        va = _to_object(va)
        ra = _to_object(ra)
        vb = np.zeros(self.ncols, dtype=object) if vb is None else _to_object(vb)
        rb = np.zeros(self.ncols, dtype=object) if rb is None else _to_object(rb)
        na = pa * va + (pb * d) * vb - (ca * ra + (cb * d) * rb)
        nb = pa * vb + pb * va - (ca * rb + cb * ra)
        if not nb.any():
            nb = None
        return na, nb

    def _entry(self, va, vb, i) -> tuple[int, int]:
        return int(va[i]), (0 if vb is None else int(vb[i]))

    def _reduce(self, va, vb) -> Optional[_Row]:
        for row in self.rows:
            if self._nonzero_at(va, vb, row.piv):
                pa, pb = self._entry(row.va, row.vb, row.piv)
                ca, cb = self._entry(va, vb, row.piv)
                va, vb = self._combine(pa, pb, va, vb, ca, cb, row.va, row.vb)
                if va.dtype == object or _max_abs(va) > _STRIP_THRESHOLD or \
                        (vb is not None and _max_abs(vb) > _STRIP_THRESHOLD):
                    va, vb = _strip_row(va, vb)
        va, vb = _strip_row(va, vb)
        idx = np.nonzero(va)[0]
        first = int(idx[0]) if len(idx) else self.ncols
        if vb is not None:
            idxb = np.nonzero(vb)[0]
            if len(idxb):
                first = min(first, int(idxb[0]))
        if first == self.ncols:
            return None
        lead = int(va[first]) if va[first] != 0 else int(vb[first])
        if lead < 0:
            va = -va
            vb = None if vb is None else -vb
        return _Row(first, va, vb)

    def _flatten(self, mat):
        if isinstance(mat, ExactMatrix):
            if mat.d != 0:
                if self.d == 0 and self.rows:
                    raise ValueError("cannot extend a started rational span to a surd field")
                if self.d == 0:
                    self.d = mat.d
                elif mat.d != self.d:
                    raise ValueError("matrix field differs from span field")
            va = mat.ra.reshape(-1).copy()
            vb = None if mat.rb is None else mat.rb.reshape(-1).copy()
            return va, vb
        va = _as_int_array(mat).reshape(-1).copy()
        return va, None

    def contains(self, mat) -> bool:
        va, vb = self._flatten(mat)
        if va.shape[0] != self.ncols:
            raise ValueError("dimension mismatch")
        return self._reduce(va, vb) is None

    def insert(self, mat) -> bool:
        """Insert when independent of the current span; True means it grew."""
        va, vb = self._flatten(mat)
        if va.shape[0] != self.ncols:
            raise ValueError("dimension mismatch")
        new = self._reduce(va, vb)
        if new is None:
            return False
        self.last_row = new
        pa, pb = self._entry(new.va, new.vb, new.piv)
        updated = []
        for row in self.rows:
            if self._nonzero_at(row.va, row.vb, new.piv):
                ca, cb = self._entry(row.va, row.vb, new.piv)
                va2, vb2 = self._combine(pa, pb, row.va, row.vb, ca, cb, new.va, new.vb)
                va2, vb2 = _strip_row(va2, vb2)
                lead = int(va2[row.piv]) if va2[row.piv] != 0 else int(vb2[row.piv])
                if lead < 0:
                    va2 = -va2
                    vb2 = None if vb2 is None else -vb2
                updated.append(_Row(row.piv, va2, vb2))
            else:
                updated.append(row)
        updated.append(new)
        updated.sort(key=lambda r: r.piv)
        self.rows = updated
        return True


def rank(m) -> int:
    """Rank over Q(sqrt(d)) by fraction-free row reduction."""
    if not isinstance(m, ExactMatrix):
        m = ExactMatrix(m)
    span = ExactSpan(m.cols, m.d)
    for i in range(m.rows):
        va = m.ra[i].copy()
        vb = None if m.rb is None else m.rb[i].copy()
        row = span._reduce(va, vb)
        if row is not None:
            span.rows.append(row)
            span.rows.sort(key=lambda r: r.piv)
    return span.dim


def span_insert(basis: list[ExactMatrix], m: ExactMatrix) -> tuple[list[ExactMatrix], bool]:
    """Append m to basis when independent of it; returns (basis, inserted)."""
    if basis and m.shape != basis[0].shape:
        raise ValueError("dimension mismatch")
    d = m.d
    for mat in basis:
        if mat.d:
            d = mat.d
    span = ExactSpan(m.rows * m.cols, d)
    for mat in basis:
        if not span.insert(mat):
            raise ValueError("basis is linearly dependent")
    if span.insert(m):
        return basis + [m], True
    return basis, False


def eigenprojection(A: ExactMatrix, eigs: Sequence[AlgebraicScalar]) -> list[ExactMatrix]:
    """Primitive idempotents of symmetric A with the given distinct eigenvalues.

    Lagrange interpolation E_i = prod_{j != i} (A - theta_j I)/(theta_i - theta_j);
    idempotency, orthogonality, completeness and the reconstruction
    A = sum theta_i E_i are all verified exactly, so an incorrect eigenvalue
    list cannot pass silently.
    """
    n = A.rows
    if A.cols != n:
        raise ValueError("square matrix required")
    eigs = [e if isinstance(e, AlgebraicScalar) else AlgebraicScalar(e) for e in eigs]
    if any(not e.is_exact for e in eigs):
        raise ValueError("float-mode eigenvalue")
    I = ExactMatrix.identity(n)
    projs = []
    for i, ti in enumerate(eigs):
        P = ExactMatrix.identity(n)
        denom = AlgebraicScalar(1)
        for j, tj in enumerate(eigs):
            if j != i:
                P = P @ (A - I * tj)
                denom = denom * (ti - tj)
        projs.append(P * denom.inverse())
    total, recon = ExactMatrix.zeros(n, n), ExactMatrix.zeros(n, n)
    for E, t in zip(projs, eigs):
        total = total + E
        recon = recon + E * t
    if total != I or recon != A:
        raise ValueError("eigenvalue list incomplete or incorrect")
    for i, Ei in enumerate(projs):
        for j in range(i, len(projs)):
            prod = Ei @ projs[j]
            if i == j:
                if prod != Ei:
                    raise ValueError("projector not idempotent")
            elif not prod.is_zero():
                raise ValueError("projectors not orthogonal")
    return projs


# ---------------------------------------------------------------------------
# exact characteristic polynomials (CRT Faddeev-LeVerrier)
# ---------------------------------------------------------------------------

_CRT_PRIMES = list(itertools.islice(sympy.primerange(2**24, 2**26), 64))


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
    r = max(1, max(sum(abs(int(v)) for v in row) for row in A.tolist()))
    bound = max(math.comb(n, k) * r**k for k in range(n + 1))
    primes, prod = [], 1
    for p in _CRT_PRIMES:
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


def eigenvalues_from_charpoly(coeffs: Sequence[int]):
    """Exact (eigenvalue, multiplicity) pairs from integer charpoly coefficients.

    Returns None when an irreducible factor of degree >= 3 (or with non-real
    roots) appears; callers then switch that spectrum to float mode.  Pairs
    come back sorted strictly descending.
    """
    x = sympy.Symbol("x")
    poly = sympy.Poly([int(c) for c in coeffs], x, domain=sympy.ZZ)
    pairs: list[tuple[AlgebraicScalar, int]] = []
    for factor, mult in poly.factor_list()[1]:
        cs = [int(c) for c in factor.all_coeffs()]
        if len(cs) == 2:
            a1, a0 = cs
            pairs.append((AlgebraicScalar(Fraction(-a0, a1)), mult))
        elif len(cs) == 3:
            a2, a1, a0 = cs
            disc = a1 * a1 - 4 * a2 * a0
            if disc <= 0:
                return None
            rt = sqrt_of_fraction(disc)
            base = Fraction(-a1, 2 * a2)
            pairs.append((AlgebraicScalar(base) + rt * AlgebraicScalar(Fraction(1, 2 * a2)), mult))
            pairs.append((AlgebraicScalar(base) - rt * AlgebraicScalar(Fraction(1, 2 * a2)), mult))
        else:
            return None
    import functools
    pairs.sort(key=functools.cmp_to_key(lambda p, q: p[0].compare(q[0])), reverse=True)
    return pairs
