"""Exact scalar arithmetic, integer spans, charpolys."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

import drgkit
from conftest import LATIN_SQUARE_6, distance_matrices, latin_square_graph, span_contains
from exact_span import ExactSpan
from drgkit import exactla
from drgkit.exactla import (
    AlgebraicScalar,
    certified_factors,
    certified_stack,
    charpoly_int,
    eigenvalues_from_charpoly,
    factor_roots,
    radical_sign,
    square_free_split,
)
from drgkit.context import GraphContext
from drgkit.families import FamilySpec, construct, icosahedron
from drgkit.graph_core import Graph, distances, save_graph
from drgkit.scheme import eigen_data, intersection_matrix


def S(a, b=0, d=0):
    return AlgebraicScalar(Fraction(a), Fraction(b), d)


def parse(text: str) -> AlgebraicScalar:
    """Round-trip oracle: the inverse of str(), also accepting 'sqrt' spelled out."""
    s = text.strip().replace("sqrt", "√")
    if "√" not in s:
        return AlgebraicScalar(Fraction(s))
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
    return AlgebraicScalar(Fraction(a_str.strip() or "0"), sign * b, d)


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


def test_square_free_split():
    assert square_free_split(0) == (0, 0)
    assert square_free_split(1) == (1, 1)
    assert square_free_split(20) == (2, 5)
    assert square_free_split(49) == (7, 1)


def _factorint_split(n: int) -> tuple[int, int]:
    """square_free_split by the sympy.factorint oracle."""
    if n == 0:
        return 0, 0
    s, d = 1, 1
    for p, e in sympy.factorint(n).items():
        s *= p ** (e // 2)
        d *= p ** (e % 2)
    return s, d


def test_square_free_split_matches_factorint_up_to_1e5():
    assert all(square_free_split(n) == _factorint_split(n) for n in range(10**5 + 1))


def test_square_free_split_cofactors_above_the_cube_root():
    # after trial division up to the cube root the cofactor is 1, p, pq or p^2
    big = [sympy.prevprime(10**6), sympy.nextprime(10**6), sympy.nextprime(3 * 10**6)]
    near = [sympy.prevprime(10**4), sympy.nextprime(10**4)]  # p^2 q ~ 1e12: p, q ~ cbrt
    cases = [p * p for p in big] + [p * q for p, q in itertools.combinations(big, 2)]
    cases += [p * p * q for p in big for q in (2, 3, 101)]
    cases += [p * p * q for p, q in itertools.permutations(near, 2)]
    cases += [2**61 - 1, 4 * (2**61 - 1), (2**31 - 1) ** 2]
    for n in cases:
        assert square_free_split(n) == _factorint_split(n), n
    assert square_free_split(2**61 - 1) == (1, 2**61 - 1)


def test_canonicalization():
    assert S(1, 1, 20) == S(1, 2, 5)  # sqrt(20) = 2 sqrt(5)
    assert S(0, 3, 1) == S(3)  # sqrt(1) folds into the rational part
    assert S(2, 0, 7) == S(2)  # zero coefficient drops the surd
    assert S(0, Fraction(1, 2), 9) == S(Fraction(3, 2))  # sqrt(9)/2 folds into 3/2


_SQUARE_FREE = [1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 21, 30, 105]


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(_SQUARE_FREE), st.integers(-10**6, 10**6), max_size=5))
def test_radical_sign_matches_high_precision(terms):
    # oracle: the sum at 400 digits, far below any nonzero value these terms reach
    import mpmath

    with mpmath.workdps(400):
        value = mpmath.fsum(c * mpmath.sqrt(r) for r, c in terms.items())
        expected = (value > 0) - (value < 0)
    assert radical_sign(terms) == expected
    assert radical_sign({r: -c for r, c in terms.items()}) == -expected


def test_radical_sign_refines_near_cancellation():
    # (1 - sqrt 2)^n = x - y sqrt 2 has sign (-1)^n and size 0.414^n
    x, y = 1, 0
    for n in range(1, 81):
        x, y = x + 2 * y, x + y  # (x - y sqrt 2)(1 - sqrt 2)
        assert radical_sign({1: x, 2: -y}) == (-1) ** n
    assert radical_sign({}) == radical_sign({2: 0, 3: 0}) == 0


def test_golden_ratio_arithmetic():
    phi = S(Fraction(1, 2), Fraction(1, 2), 5)
    # phi^2 = phi + 1 and phi * conjugate = -1
    assert phi * phi == phi + 1
    conj = S(Fraction(1, 2), Fraction(-1, 2), 5)
    assert phi * conj == S(-1)
    assert phi.inverse() == phi - 1


def test_mixed_surd_arithmetic_rejected():
    with pytest.raises(ValueError):
        _ = S(0, 1, 2) + S(0, 1, 3)


def test_cross_field_comparison():
    assert S(0, 1, 2) < S(0, 1, 3)  # sqrt2 < sqrt3
    assert S(1, 1, 2) > S(0, 1, 5)  # 1 + sqrt2 = 2.414... > sqrt5 = 2.236...
    assert S(0, 1, 2).compare(S(0, 1, 2)) == 0
    # tight cross-field comparison: 3 + sqrt(2) vs sqrt(13) + 1 (4.414 vs 4.605)
    assert S(3, 1, 2) < S(1, 1, 13)


def test_floats_are_refused():
    for make in (lambda: AlgebraicScalar(0.5), lambda: AlgebraicScalar(1, 0.5, 2),
                 lambda: S(1) + 0.5, lambda: 0.5 + S(1), lambda: S(1) * 0.5,
                 lambda: S(1) / 0.5, lambda: S(1) < 0.5, lambda: 0.5 < S(1),
                 lambda: S(1) == 1.0, lambda: S(1).compare(0.5)):
        with pytest.raises(TypeError):
            make()
    assert AlgebraicScalar.__slots__ == ("a", "b", "d")


def test_ordering_against_a_non_number_is_a_type_error():
    for make in (lambda: S(1) < "x", lambda: S(1) <= "x", lambda: S(1) > "x",
                 lambda: S(1) >= "x", lambda: "x" < S(1), lambda: S(0, 1, 2) < None,
                 lambda: sorted([S(1), None]), lambda: sorted([None, S(0, 1, 5)])):
        with pytest.raises(TypeError):
            make()
    with pytest.raises(TypeError, match="cannot mix an exact AlgebraicScalar with the float"):
        S(1) < 0.5
    assert S(1).compare("x") is NotImplemented
    assert sorted([Fraction(3, 2), S(0, 1, 2), 1]) == [1, S(0, 1, 2), Fraction(3, 2)]


def test_sign_exactness():
    assert S(7, -1, 48).compare(0) == 1  # 7 - 4 sqrt3 > 0 since 49 > 48
    assert S(-7, 4, 3).compare(0) == -1
    assert S(0).compare(0) == 0


def test_serialization_round_trip():
    cases = [S(4), S(-2), S(Fraction(3, 7)), S(0, 1, 5), S(0, -1, 2),
             S(Fraction(1, 2), Fraction(1, 2), 5), S(1, -1, 3),
             S(Fraction(-1, 2), Fraction(-3, 4), 13)]
    for x in cases:
        assert parse(str(x)) == x
    assert str(S(Fraction(1, 2), Fraction(1, 2), 5)) == "1/2 + 1/2√5"
    assert str(S(1, -1, 3)) == "1 - √3"


@given(st.fractions(max_denominator=20), st.fractions(max_denominator=20),
       st.integers(min_value=0, max_value=30))
def test_scalar_float_consistency(a, b, d):
    x = AlgebraicScalar(a, b, d)
    assert math.isclose(float(x), float(a) + float(b) * math.sqrt(d),
                        rel_tol=1e-12, abs_tol=1e-12)
    assert parse(str(x)) == x


@given(st.fractions(max_denominator=10), st.fractions(max_denominator=10),
       st.sampled_from([0, 2, 3, 5]), st.fractions(max_denominator=10),
       st.fractions(max_denominator=10), st.sampled_from([0, 2, 3, 5]))
def test_comparison_matches_floats_when_separated(a1, b1, d1, a2, b2, d2):
    x, y = AlgebraicScalar(a1, b1, d1), AlgebraicScalar(a2, b2, d2)
    fx, fy = float(x), float(y)
    if abs(fx - fy) > 1e-6:
        assert (x.compare(y) > 0) == (fx > fy)


def _sqrt_approx(b: Fraction, d: int, scale: int) -> Fraction:
    """b*sqrt(d) rounded toward zero to a multiple of 1/(scale * den(b))."""
    mag = math.isqrt(b.numerator ** 2 * d * scale * scale)
    return Fraction(mag if b > 0 else -mag, b.denominator * scale)


def test_comparison_of_near_ties_matches_a_50_digit_oracle():
    """Pairs x, y that differ by less than 1e-9, within one surd, across two
    surds, and against a rational, ordered exactly as mpmath orders them at
    50 significant digits."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(7)
    surds = [0, 2, 3, 5, 6, 7, 10, 13]
    checked = 0
    with mpmath.workdps(50):
        def value(z):
            return (mpmath.mpf(z.a.numerator) / z.a.denominator
                    + mpmath.mpf(z.b.numerator) / z.b.denominator * mpmath.sqrt(z.d))

        for _ in range(400):
            d1, d2 = rng.choice(surds[1:]), rng.choice(surds)
            b1 = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            b2 = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            a2 = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
            scale = 10 ** rng.randint(10, 20)
            # a1 + b1 sqrt(d1) lands within about 1/scale of a2 + b2 sqrt(d2)
            a1 = (a2 + _sqrt_approx(b2, d2, scale) - _sqrt_approx(b1, d1, scale)
                  + Fraction(rng.randint(-1, 1), scale))
            x, y = S(a1, b1, d1), S(a2, b2, d2)
            gap = value(x) - value(y)
            if x == y:
                assert x.compare(y) == 0 and gap == 0
                continue
            assert 0 < abs(gap) < 1e-9
            expected = 1 if gap > 0 else -1
            assert x.compare(y) == expected and y.compare(x) == -expected
            if x.d == y.d or y.d == 0:
                assert (x - y).compare(0) == expected
            checked += 1
    assert checked > 300


@given(st.fractions(max_denominator=8), st.fractions(max_denominator=8),
       st.fractions(max_denominator=8), st.fractions(max_denominator=8),
       st.sampled_from([2, 3, 5, 7]))
def test_field_axioms_sample(a1, b1, a2, b2, d):
    x, y = AlgebraicScalar(a1, b1, d), AlgebraicScalar(a2, b2, d)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + 1) == x * y + x
    if y != 0:
        assert (x / y) * y == x


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def span_rank(m) -> int:
    """Rank of an integer matrix as the dimension of the span of its rows."""
    m = np.asarray(m)
    span = ExactSpan(m.shape[1])
    for row in m:
        span.insert(row)
    return span.dim


def test_rank_examples():
    assert span_rank(np.eye(5, dtype=int)) == 5
    assert span_rank(np.ones((4, 4), dtype=int)) == 1
    c4 = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])
    # eigenvalues of the 4-cycle are {2, 0, 0, -2}: two nonzero
    assert span_rank(c4) == 2


def test_rank_matches_float_rank():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = rng.integers(-3, 4, size=(6, 6))
        m = m @ rng.integers(-2, 3, size=(6, 6))  # encourage rank deficiency
        assert span_rank(m) == np.linalg.matrix_rank(m.astype(float), tol=1e-9)


def test_span_insert_examples():
    I = np.eye(4, dtype=int)
    span = ExactSpan(16)
    assert span.insert(I)
    assert not span.insert(I) and span.dim == 1
    c4 = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])
    assert span.insert(c4) and span.dim == 2
    # saturated space rejects everything
    full = ExactSpan(4)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=int)
            e[i, j] = 1
            assert full.insert(e)
    assert not full.insert(np.array([[3, -1], [2, 5]]))


@given(st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4))
@settings(max_examples=25)
def test_span_rejects_linear_combinations(c1, c2):
    rng = np.random.default_rng(abs(c1) * 17 + abs(c2) * 5 + 1)
    A = rng.integers(-3, 4, size=(3, 3))
    B = rng.integers(-3, 4, size=(3, 3))
    span = ExactSpan(9)
    span.insert(A)
    span.insert(B)
    assert span_contains(span, A * c1 + B * c2)


def test_span_rows_carry_their_max_abs(monkeypatch):
    callers = set()
    to_object = exactla._to_object

    def spy(a):
        callers.add(sys._getframe(1).f_code.co_name)
        return to_object(a)

    monkeypatch.setattr(exactla, "_to_object", spy)
    rng = np.random.default_rng(11)
    for _ in range(6):
        base = [rng.integers(-4, 5, size=(3, 4)) for _ in range(int(rng.integers(2, 8)))]
        # a few dependent ones, so some inserts reduce to zero
        base += [base[0] * 3 - base[-1] * 2, base[1] - base[0]]
        # every second matrix scaled by 2**40: its combinations overflow int64
        mats = [m * 2**40 if i % 2 else m for i, m in enumerate(base)]
        span = ExactSpan(12)
        for m in mats:
            span.insert(m)
            for row, bound in zip(span.rows, span.bounds):
                assert bound == max(abs(int(v)) for v in row)
        assert span.dim == sympy.Matrix([[int(v) for v in m.flat] for m in mats]).rank()
        coeffs = rng.integers(-3, 4, size=len(mats)).tolist()
        combo = sum((c * exactla._to_object(m) for c, m in zip(coeffs, mats)),
                    np.zeros((3, 4), dtype=object))
        assert span_contains(span, combo)
    assert "_residue" in callers


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_span_with_non_unit_pivots_matches_sympy_rank(data):
    # independent rows d e_c + (entries after c), d in 2..5, ending in 1 so
    # each is primitive with pivot entry d > 1, mixed with integer
    # combinations of them; every second row is scaled by 2**40 and inserted
    # as Python ints, the others as int64
    ncols = data.draw(st.integers(3, 8))
    k = data.draw(st.integers(1, ncols - 1))
    cols = sorted(data.draw(st.lists(st.integers(0, ncols - 2), min_size=k, max_size=k,
                                     unique=True)))
    base = []
    for c in cols:
        row = [0] * c + [data.draw(st.integers(2, 5))]
        row += data.draw(st.lists(st.integers(-3, 3), min_size=ncols - c - 2,
                                  max_size=ncols - c - 2)) + [1]
        base.append(row)
    small = st.integers(-3, 3)
    combos = [[sum(a * b for a, b in zip(coeffs, column)) for column in zip(*base)]
              for coeffs in data.draw(st.lists(st.lists(small, min_size=k, max_size=k),
                                               max_size=3))]
    rows = [base[0]] + data.draw(st.permutations(base[1:] + combos))
    rows = [[v * 2**40 for v in row] if i % 2 else row for i, row in enumerate(rows)]
    span = ExactSpan(ncols)
    for i, row in enumerate(rows):
        grew = span.insert(np.array(row, dtype=object if i % 2 else np.int64))
        assert grew == (sympy.Matrix(rows[:i + 1]).rank() > sympy.Matrix(rows[:i]).rank())
        if i == 0:
            assert span.rows[0][cols[0]] == base[0][cols[0]] > 1
    assert span.dim == sympy.Matrix(rows).rank() == k
    coeffs = data.draw(st.lists(small, min_size=len(rows), max_size=len(rows)))
    combo = [sum(c * row[t] for c, row in zip(coeffs, rows)) for t in range(ncols)]
    assert span_contains(span, np.array(combo, dtype=object))
    assert not span.insert(np.array(combo, dtype=object))


# ---------------------------------------------------------------------------
# integer products
# ---------------------------------------------------------------------------


def _spy_float_products(monkeypatch) -> list:
    products = []
    float_matmul = exactla._float_matmul
    monkeypatch.setattr(exactla, "_float_matmul",
                        lambda A, B: products.append(A.shape) or float_matmul(A, B))
    return products


def test_imatmul_takes_float64_below_2_53_and_int64_from_there(monkeypatch):
    floats = _spy_float_products(monkeypatch)
    # bound max|A| max|B| inner = 2**26 (2**26 - 1) 2, just below 2**53
    A = np.array([[2**26, 1], [-3, 2**26]])
    below = np.array([[2**26 - 1, 0], [1, -(2**26 - 1)]])
    exact = exactla._to_object(A) @ exactla._to_object(below)
    assert exactla._imatmul(A, below).tolist() == exact.tolist() and len(floats) == 1
    # 2**26 (2**26 + 1) 2 is just above it: int64, which stays exact where
    # a float64 product would round the odd entry 2**54 + 1
    above = np.array([[2**26 + 1, 0], [1, -(2**26 + 1)]])
    exact = exactla._to_object(A) @ exactla._to_object(above)
    assert exactla._imatmul(A, above).tolist() == exact.tolist() and len(floats) == 1
    odd = np.array([[2**27, 1]]), np.array([[2**27], [1]])
    assert exactla._imatmul(*odd).tolist() == [[2**54 + 1]] != exactla._float_matmul(*odd).tolist()
    # a caller's bound decides alone, for a stack as for one matrix
    stack = np.stack([A, -A])
    for bound, route in ((2**53 - 1, [(2, 2, 2)]), (2**53, [])):
        floats.clear()
        assert exactla._imatmul(stack, stack, bound).tolist() == (stack @ stack).tolist()
        assert floats == route


# ---------------------------------------------------------------------------
# characteristic polynomials
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20)
def test_charpoly_matches_sympy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    m = rng.integers(-5, 6, size=(n, n))
    ours = charpoly_int(m)
    theirs = sympy.Matrix(m.tolist()).charpoly().all_coeffs()
    assert ours == [int(c) for c in theirs]


def test_charpoly_large_entries():
    m = np.diag([10**6, -(10**6), 3]).astype(object)
    coeffs = charpoly_int(m)
    x = sympy.Symbol("x")
    expect = sympy.Poly((x - 10**6) * (x + 10**6) * (x - 3), x).all_coeffs()
    assert coeffs == [int(c) for c in expect]


def test_charpoly_has_no_size_limit():
    # past any fixed pool of CRT primes: the coefficients have about 800 digits
    big = 10**400
    coeffs = charpoly_int(np.diag(np.array([big, 3, -5], dtype=object)))
    assert coeffs == [1, 2 - big, -15 - 2 * big, 15 * big]


@pytest.mark.parametrize("n", [44, 50, 60])
def test_charpoly_past_int64_matches_domain_matrix(monkeypatch, n):
    """Symmetric 0/1 matrices whose Faddeev-LeVerrier products leave int64
    for Python ints part way, against sympy's DomainMatrix.charpoly."""
    rng = np.random.default_rng(n)
    upper = np.triu(rng.integers(0, 2, size=(n, n)), 1)
    A = upper + upper.T
    switches = []
    to_object = exactla._to_object
    monkeypatch.setattr(exactla, "_to_object", lambda a: switches.append(a.dtype) or to_object(a))
    coeffs = charpoly_int(A)
    assert np.dtype(np.int64) in switches  # an int64 M_k went over to Python ints
    expect = DomainMatrix([[sympy.ZZ(v) for v in row] for row in A.tolist()],
                          (n, n), sympy.ZZ).charpoly()
    assert coeffs == [int(c) for c in expect]


def test_eigenvalues_from_charpoly_quadratic():
    # (x^2 - x - 1)(x - 2): golden ratio pair plus 2
    coeffs = [1, -3, 1, 2]
    key = eigenvalues_from_charpoly(coeffs)
    assert key == ((2, 1), (1, -1, 1))
    vals = [str(v) for v, _ in factor_roots(key)]
    assert vals == ["2", "1/2 + 1/2√5", "1/2 - 1/2√5"]


def test_eigenvalues_from_charpoly_cubic_gives_none():
    # x^3 - x - 1 is irreducible over Q
    assert eigenvalues_from_charpoly([1, 0, -1, -1]) is None


def _sympy_route(coeffs):
    """Oracle: eigenvalues_from_charpoly as sympy's factor_list decides it."""
    poly = sympy.Poly([int(c) for c in coeffs], sympy.Symbol("x"), domain=sympy.ZZ)
    pairs = []
    for factor, mult in poly.factor_list()[1]:
        cs = [int(c) for c in factor.all_coeffs()]
        if len(cs) == 2:
            pairs.append((AlgebraicScalar(Fraction(-cs[1], cs[0])), mult))
        elif len(cs) == 3 and cs[1] ** 2 - 4 * cs[0] * cs[2] > 0:
            a2, a1, a0 = cs
            root = S(0, Fraction(1, 2 * a2), a1 * a1 - 4 * a2 * a0)
            base = AlgebraicScalar(Fraction(-a1, 2 * a2))
            pairs += [(base + root, mult), (base - root, mult)]
        else:
            return None
    return sorted(pairs, key=lambda p: float(p[0]), reverse=True)


def _poly(factors):
    """Coefficients of prod (x - r)^m * (x^2 - s x + p)^m over ((r, m), (s, p, m), ...)."""
    x = sympy.Symbol("x")
    expr = sympy.Integer(1)
    for *f, m in factors:
        expr *= (x - f[0] if len(f) == 1 else x * x - f[0] * x + f[1]) ** m
    return [int(c) for c in sympy.Poly(expr, x).all_coeffs()]


def _spy_factoring(monkeypatch):
    """Record each polynomial handed to eigenvalues_from_charpoly, through its
    exactla binding (tests call exactla.eigenvalues_from_charpoly) and the
    spectra binding of the declined route."""
    calls = []
    original = exactla.eigenvalues_from_charpoly

    def spy(coeffs):
        calls.append(tuple(coeffs))
        return original(coeffs)

    for module in (exactla, drgkit.spectra):
        monkeypatch.setattr(module, "eigenvalues_from_charpoly", spy)
    return calls


def _cycle_graph(n: int) -> Graph:
    return Graph(np.roll(np.eye(n, dtype=np.int64), 1, axis=1)
                 + np.roll(np.eye(n, dtype=np.int64), -1, axis=1))


_CORPUS = [("shrikhande", ()), ("rook_grid", (4,)), ("johnson", (8, 2)), ("chang", (1,)),
           ("chang", (2,)), ("chang", (3,)), ("triangular_complement", (6,)),
           ("icosahedron", ()), ("johnson", (6, 3)), ("johnson", (8, 4)),
           ("halved_cube", (8,)), ("hamming", (3, 3)), ("hamming", (4, 2)),
           ("johnson", (7, 3))]


def test_corpus_intersection_charpolys_match_sympy_without_it(monkeypatch):
    """The intersection matrices are not symmetric; certified_factors proposes
    from np.linalg.eigvals and decides all but C7's without the factoring
    route."""
    calls = _spy_factoring(monkeypatch)
    for family, params in _CORPUS:
        B = intersection_matrix(GraphContext.of(construct(FamilySpec(family, params))).params)
        key = certified_factors(B)
        assert key is not None, (family, params)
        assert factor_roots(key) == _sympy_route(charpoly_int(B)), (family, params)
    assert calls == []
    c7 = intersection_matrix(GraphContext.of(_cycle_graph(7)).params)
    assert certified_factors(c7) is None
    coeffs = tuple(charpoly_int(c7))
    assert exactla.eigenvalues_from_charpoly(coeffs) is None is _sympy_route(coeffs)
    assert calls == [coeffs]


def _random_factors(rng: random.Random, max_mult: int) -> tuple:
    """Distinct integer roots and irreducible real quadratics, with multiplicities."""
    factors = {}
    while len(factors) < rng.randint(1, 4):
        if rng.random() < 0.5:
            f = (rng.randint(-12, 12),)
        else:
            s, p = rng.randint(-9, 9), rng.randint(-25, 25)
            disc = s * s - 4 * p
            if disc <= 0 or math.isqrt(disc) ** 2 == disc:
                continue
            f = (s, p)
        factors.setdefault(f, rng.randint(1, max_mult))
    return tuple(f + (m,) for f, m in factors.items())


def _companion(coeffs) -> np.ndarray:
    """The companion matrix of the monic polynomial coeffs, whose charpoly it is."""
    n = len(coeffs) - 1
    C = np.zeros((n, n), dtype=object)
    C[1:, :-1] = np.eye(n - 1, dtype=np.int64)
    C[:, -1] = [-c for c in reversed(coeffs[1:])]
    return C.astype(np.int64) if max(abs(c) for c in coeffs) < 2**62 else C


@pytest.mark.parametrize("max_mult", [1, 3])
def test_random_products_match_sympy(monkeypatch, max_mult):
    """eigenvalues_from_charpoly against the sympy oracle, and the certificate
    on the companion matrix of each product: it decides every product with
    simple roots without the factoring route.  A repeated root makes the
    companion matrix non-diagonalizable, so the certificate declines it; it
    is never wrong."""
    calls = _spy_factoring(monkeypatch)
    rng = random.Random(max_mult)
    certified = 0
    for _ in range(150):
        coeffs = _poly(_random_factors(rng, max_mult))
        expected = _sympy_route(coeffs)
        key = certified_factors(_companion(coeffs))
        factored = exactla.eigenvalues_from_charpoly(coeffs)
        if key is not None:
            certified += 1
            assert factor_roots(key) == expected, coeffs
            assert factored == key, coeffs  # one key whichever route found it
        assert factor_roots(factored) == expected, coeffs
    assert len(calls) == 150  # one per eigenvalues_from_charpoly, none from the certificate
    if max_mult == 1:
        assert certified == 150


def test_cubic_fields_give_none(monkeypatch):
    calls = _spy_factoring(monkeypatch)
    c7 = charpoly_int(np.asarray(_cycle_graph(7).adjacency, dtype=np.int64))
    for coeffs in (c7, [1, 0, -3, 1]):
        assert exactla.eigenvalues_from_charpoly(coeffs) is None is _sympy_route(coeffs)
    assert len(calls) == 2


_MIXED = ["x - 3", "x + 2", "x", "x - 1", "x**2 - 5", "x**2 - x - 1", "x**2 - 3*x - 7",
          "x**2 + 1", "x**2 + x + 1", "x**2 + 2*x + 5",     # non-real pairs
          "x**3 - 3*x + 1", "x**3 - 2", "x**3 - x - 1",      # cubic fields
          "x**4 - 10*x**2 + 1", "x**4 - 4*x**2 + 2", "x**4 + 1"]


def test_random_mixed_products_match_sympy():
    """Products with irreducible cubics and quartics, non-real quadratics and
    repeated factors next to the integer and real quadratic ones: whatever
    trial division leaves makes the answer None, as sympy's factors do."""
    x = sympy.Symbol("x")
    factors = [sympy.sympify(f, locals={"x": x}) for f in _MIXED]
    rng = random.Random(19)
    for _ in range(200):
        expr = sympy.Mul(*[rng.choice(factors) ** rng.randint(1, 3)
                           for _ in range(rng.randint(1, 4))])
        coeffs = [int(c) for c in sympy.Poly(expr, x).all_coeffs()]
        expected = _sympy_route(coeffs)
        key = eigenvalues_from_charpoly(coeffs)
        assert (key is None) is (expected is None), expr
        if key is not None:
            assert factor_roots(key) == expected, expr


@pytest.mark.parametrize("wrong", [
    ((5, 1), (-1, 1), (0, -6, 1)),    # sqrt(6) for sqrt(5)
    ((5, 1), (-1, 2), (0, -5, 1)),    # a multiplicity off
    ((5, 1), (-1, 1), (0, -4, 1)),    # the reducible x^2 - 4
    ((5, 1), (-1, 1), (-1, 1)),       # a repeated factor
    ((5, 1), (-1, 1)),                # a dropped factor
])
def test_wrong_clusters_fall_back_to_sympy(monkeypatch, wrong):
    # icosahedron: (x - 5)(x + 1)(x^2 - 5)
    ctx = GraphContext.of(icosahedron())
    B = intersection_matrix(ctx.params)
    expected = _sympy_route(charpoly_int(B))
    assert _certify_proposal(monkeypatch, B, wrong) is None
    calls = _spy_factoring(monkeypatch)
    ed = eigen_data(ctx.params)  # the wrong proposal is still in place
    assert ed.exact and ed.theta == tuple(v for v, _ in expected)
    assert calls == [tuple(charpoly_int(B))]


@pytest.mark.parametrize("B", [[[0, -1], [1, 0]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]])
def test_non_real_eigenvalues_get_no_proposal(B):
    # x^2 + 1 and x^3 - 1 = (x - 1)(x^2 + x + 1): non-real roots either way
    B = np.array(B, dtype=np.int64)
    assert exactla._propose_factors(B[None]) == [None]
    assert certified_factors(B) is None
    assert eigenvalues_from_charpoly(charpoly_int(B)) is None


_SYMPY_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
from pathlib import Path
import drgkit.cli
from drgkit.families import FamilySpec, construct
from drgkit.graph_core import save_graph
out, seen = Path(sys.argv[1]), {"import drgkit.cli": "sympy" in sys.modules}
for name, family, params in json.loads(sys.argv[2]):
    save_graph(construct(FamilySpec(family, params)), out / f"{name}.json")
(out / "c7.json").write_text(json.dumps(
    {"n": 7, "edges": [sorted((v, (v + 1) % 7)) for v in range(7)]}))
for argv in json.loads(sys.argv[3]):
    with redirect_stdout(io.StringIO()):
        rc = drgkit.cli.main([str(out / a) if a.endswith(".json") else a for a in argv])
    seen[" ".join(argv)] = "sympy" in sys.modules if rc == 0 else f"exit {rc}"
print(json.dumps(seen))
"""


def test_no_command_imports_sympy(tmp_path):
    """pytest has sympy loaded already, so a fresh interpreter runs the
    commands, the declined matrices of C7 and of the Latin square's local
    graphs (cubic fields) included."""
    save_graph(latin_square_graph(LATIN_SQUARE_6), tmp_path / "latin.json")
    graphs = [("shrikhande", "shrikhande", ()), ("rook4", "rook_grid", (4,)),
              ("j82", "johnson", (8, 2)), ("chang1", "chang", (1,)),
              ("chang2", "chang", (2,)), ("chang3", "chang", (3,)),
              ("gq22", "triangular_complement", (6,)), ("icosahedron", "icosahedron", ()),
              ("j63", "johnson", (6, 3)), ("j84", "johnson", (8, 4)),
              ("halved8", "halved_cube", (8,))]
    ops = [["pvt", f"{name}.json"] for name, _, _ in graphs]
    ops += [["tiso", f"{a}.json", f"{b}.json"]
            for a, b in (("shrikhande", "rook4"), ("j82", "chang1"), ("chang2", "chang3"))]
    ops += [["analyze", "j84.json"], ["analyze", "halved8.json"],
            ["analyze", "c7.json", "--all-vertices", "--float-fallback"],
            ["analyze", "latin.json", "--all-vertices", "--float-fallback"],
            ["construct", "--family", "icosahedron", "--out", "built.json"],
            ["reproduce", "--table", "j82"]]
    src = str(Path(drgkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _SYMPY_PROBE, str(tmp_path),
                           json.dumps(graphs), json.dumps(ops)],
                          capture_output=True, text=True, timeout=600,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    expected = {"import drgkit.cli": False, **{" ".join(op): False for op in ops}}
    assert json.loads(proc.stdout) == expected


def test_eigenprojection_icosahedron_ranks():
    # exact spectrum {5, √5, -1, -√5} with multiplicities (1, 3, 5, 3); the
    # Lagrange projections onto the eigenspaces (sympy) have rank = trace = m_i
    g = icosahedron()
    A = np.asarray(g.adjacency, dtype=np.int64)
    pairs = factor_roots(eigenvalues_from_charpoly(charpoly_int(A)))
    assert [(str(t), m) for t, m in pairs] == [("5", 1), ("√5", 3), ("-1", 5), ("-√5", 3)]
    As = sympy.Matrix(A.tolist())
    theta = [sympy.Rational(t.a.numerator, t.a.denominator)
             + sympy.Rational(t.b.numerator, t.b.denominator) * sympy.sqrt(t.d)
             for t, _ in pairs]
    for i, (ti, (_, m)) in enumerate(zip(theta, pairs)):
        E, denom = sympy.eye(g.n), 1
        for j, tj in enumerate(theta):
            if j != i:
                E = E * (As - tj * sympy.eye(g.n))
                denom *= ti - tj
        E = (E * sympy.radsimp(1 / sympy.expand(denom))).applyfunc(sympy.expand)
        assert E.rank(simplify=True) == m
        assert sympy.expand(E.trace()) == m


# ---------------------------------------------------------------------------
# certified factorizations
# ---------------------------------------------------------------------------


def _cycle(n: int) -> np.ndarray:
    c = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        c[i, (i + 1) % n] = c[(i + 1) % n, i] = 1
    return c


# C6: spectrum {2, 1^2, -1^2, -2}; traces 6, 0, 12, 0
_C6_KEY = ((-2, 1), (-1, 2), (1, 2), (2, 1))


def _certify_proposal(monkeypatch, B, proposal):
    """certified_factors(B) when the float step proposes ``proposal`` for
    every matrix of the stack it is given."""
    monkeypatch.setattr(exactla, "_propose_factors", lambda S: [proposal] * len(S))
    return certified_factors(B)


def test_certified_factors_accepts_exact_spectra(monkeypatch):
    assert certified_factors(_cycle(6)) == _C6_KEY
    # C5: {2, ((-1 +- sqrt5)/2)^2}, i.e. x - 2 and x^2 + x - 1 twice
    assert certified_factors(_cycle(5)) == ((2, 1), (-1, -1, 2))
    # icosahedron: {5, -1^5, (+-sqrt5)^3}
    A = np.asarray(icosahedron().adjacency, dtype=np.int64)
    assert certified_factors(A) == ((-1, 5), (5, 1), (0, -5, 3))
    # the factor order of a proposal does not matter
    assert _certify_proposal(monkeypatch, _cycle(6), tuple(reversed(_C6_KEY))) is not None


def test_certified_factors_rejects_wrong_proposals(monkeypatch):
    C6 = _cycle(6)

    def certify(proposal):
        return _certify_proposal(monkeypatch, C6, proposal)

    # a shifted root: 2 -> 3
    assert certify(((-2, 1), (-1, 2), (1, 2), (3, 1))) is None
    # a wrong multiplicity with the right size: only the power traces see it
    assert certify(((-2, 1), (-1, 3), (1, 1), (2, 1))) is None
    # dropped factors x - 1, x + 1, their multiplicity moved to +-2: the traces
    # for j < d = 2 still match, only prod f_i(C6) = C6^2 - 4I != 0 sees it
    assert certify(((-2, 3), (2, 3))) is None
    # a repeated factor, a reducible and a complex quadratic
    assert certify(_C6_KEY + ((2, 1),)) is None
    assert certify(((-2, 1), (0, -1, 2), (2, 1))) is None
    assert certify(((-2, 1), (0, 1, 2), (2, 1))) is None


def test_certified_multiplicities_need_d_trace_equations(monkeypatch):
    # P3 + P3: {0^2, (+-sqrt2)^2}.  With one equation per factor (j = 0, 1)
    # the j = 1 row of x and x^2 - 2 is (0, 0), so {0^4, (+-sqrt2)^1} would
    # pass; tr(B^2) = 8 (j = 2 < d = 3) rules it out.
    P3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int64)
    B = np.block([[P3, np.zeros((3, 3), dtype=np.int64)],
                  [np.zeros((3, 3), dtype=np.int64), P3]])
    assert certified_factors(B) == ((0, 2), (0, -2, 2))
    assert _certify_proposal(monkeypatch, B, ((0, 4), (0, -2, 1))) is None


def test_certified_factors_decline_cubic_and_large_entries(monkeypatch):
    # C7 has the cubic x^3 + x^2 - 2x - 1: no proposal pairs its clusters
    assert certified_factors(_cycle(7)) is None
    # object-dtype (large-entry) matrices get no float proposal, but the
    # integer checks still certify a right one exactly
    big = np.diag([10**6, -(10**6), 3]).astype(object)
    assert certified_factors(big) is None
    assert _certify_proposal(monkeypatch, big,
                             ((-(10**6), 1), (3, 1), (10**6, 1))) is not None


def test_icosahedron_distance_matrices_partition(ico=None):
    g = icosahedron()
    A = distance_matrices(distances(g))
    assert (sum(A) == 1).all()
    assert (A[0] == np.eye(12, dtype=int)).all()


def test_rank_matches_float_rank_on_acceptance_graphs():
    from drgkit.families import johnson, shrikhande

    for g in (shrikhande(), johnson(8, 2)):
        m = np.asarray(g.adjacency, dtype=np.int64)
        assert span_rank(m) == np.linalg.matrix_rank(m.astype(float), tol=1e-9)


# ---------------------------------------------------------------------------
# the stacked certificate: certified_factors is its m = 1 case
# ---------------------------------------------------------------------------


def _class_stacks(g):
    """(i, the (n, k_i, k_i) stack of distance-i class blocks) for every i."""
    dd = distances(g)
    for i in range(1, dd.D + 1):
        cls = np.array([dd.classes_from(x, i) for x in range(g.n)])
        yield i, g.adjacency[cls[:, :, None], cls[:, None, :]].astype(np.int64)


@pytest.mark.parametrize("family, params", _CORPUS)
def test_stacked_certificate_matches_per_block_on_corpus(family, params):
    g = construct(FamilySpec(family, params))
    for i, stack in _class_stacks(g):
        keys = certified_stack(stack)
        assert keys == [certified_factors(B) for B in stack], (g.label, i)
        assert all(key is not None for key in keys), (g.label, i)


def _perturbed(proposal: tuple) -> tuple:
    """A wrong proposal: the first factor's root shifted, or its
    quadratic's constant term moved, by one."""
    head, *rest = proposal
    head = (head[0] + 1, head[1]) if len(head) == 2 else (head[0], head[1] + 1, head[2])
    return (head, *rest)


_symmetric_block = st.integers(min_value=0, max_value=2**21 - 1)


def _block(bits: int, k: int) -> np.ndarray:
    """The symmetric 0/1 matrix with zero diagonal whose upper triangle is
    read off the low bits of ``bits``."""
    B = np.zeros((k, k), dtype=np.int64)
    iu = np.triu_indices(k, 1)
    B[iu] = [(bits >> t) & 1 for t in range(len(iu[0]))]
    return B + B.T


def _path(n: int) -> np.ndarray:
    return np.eye(n, k=1, dtype=np.int64) + np.eye(n, k=-1, dtype=np.int64)


# small graphs whose spectra lie in quadratic fields: K1, K2, P3, K3, C4, K4,
# C5, P4 and C6
_QUADRATIC_PIECES = [_path(1), _path(2), _path(3), 1 - np.eye(3, dtype=np.int64), _cycle(4),
                     1 - np.eye(4, dtype=np.int64), _cycle(5), _path(4), _cycle(6)]


def _union_block(bits: int, k: int) -> np.ndarray:
    """A disjoint union of _QUADRATIC_PIECES on k vertices, picked by ``bits``:
    its spectrum is certified."""
    B = np.zeros((k, k), dtype=np.int64)
    at = 0
    while at < k:
        bits, pick = divmod(bits, len(_QUADRATIC_PIECES))
        piece = _QUADRATIC_PIECES[pick]
        if len(piece) > k - at:
            piece = _path(1)
        B[at:at + len(piece), at:at + len(piece)] = piece
        at += len(piece)
    return B


@given(st.lists(st.tuples(_symmetric_block, st.booleans(),
                          st.sampled_from(["honest", "perturb", "borrow"])),
                min_size=1, max_size=6),
       st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_stacked_certificate_matches_one_by_one(draws, rnd):
    """A stack of certified blocks (C6 + K1 and unions of small graphs),
    cubic blocks (C7 and most random graphs on 7 vertices) and blocks given a
    wrong proposal: a perturbed one, or another block's honest one, so a
    group of one proposal mixes blocks that pass and blocks that fail.  Every
    block gets the key that it gets alone under the same proposal, and a
    wrong proposal never certifies."""
    k = 7
    blocks = [_cycle(7), np.pad(_cycle(6), ((0, 1), (0, 1)))]
    kinds = ["honest", "honest"]
    for bits, union, kind in draws:
        perm = rnd.sample(range(k), k)
        B = _union_block(bits, k) if union else _block(bits, k)
        blocks += [B, B[perm][:, perm]]
        kinds += [kind, "honest"]
    stack = np.stack(blocks)
    honest = exactla._propose_factors(stack)
    truth = [certified_factors(B) for B in stack]
    assert truth[0] is None and truth[1] is not None  # the cubic C7, C6 + K1
    candidates = [p for p in honest if p is not None]
    proposals = []
    for b, kind in enumerate(kinds):
        p = honest[b]
        if kind == "perturb" and p:
            p = _perturbed(p)
        elif kind == "borrow":
            p = next((q for q in candidates if q != p), _perturbed(p) if p else None)
        proposals.append(p)
    with mock.patch.object(exactla, "_propose_factors", lambda S: list(proposals)):
        keys = certified_stack(stack)
    for b, B in enumerate(stack):
        with mock.patch.object(exactla, "_propose_factors", lambda S: [proposals[b]]):
            assert keys[b] == certified_factors(B), b
        assert keys[b] == (truth[b] if proposals[b] == honest[b] else None), b


def test_group_past_int64_bound_certifies_on_object_dtype():
    """Entries of 10**7: prod f_i(B) bounds above 2**62, so the group's
    product runs on Python ints, and both blocks still certify."""
    N = 10**7
    B = np.zeros((4, 4), dtype=np.int64)
    B[0, 1] = B[1, 0] = N
    B[2, 3] = B[3, 2] = 3
    perm = [2, 0, 3, 1]
    stack = np.stack([B, B[perm][:, perm]])
    key = ((-N, 1), (-3, 1), (3, 1), (N, 1))
    converted = []
    to_object = exactla._to_object

    def spy(a):
        converted.append(a.shape)
        return to_object(a)

    with mock.patch.object(exactla, "_to_object", spy):
        assert certified_stack(stack) == [key, key]
    assert (2, 4, 4) in converted  # the whole group, in one object product
    assert certified_factors(B) == key
