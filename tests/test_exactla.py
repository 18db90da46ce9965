"""Exact scalar arithmetic, integer spans, charpolys."""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from drgkit import exactla
from drgkit.exactla import (
    AlgebraicScalar,
    ExactSpan,
    certified_factors,
    charpoly_int,
    eigenvalues_from_charpoly,
    sqrt_of_fraction,
    square_free_split,
)
from drgkit.families import icosahedron
from drgkit.graph_core import distances


def S(a, b=0, d=0):
    return AlgebraicScalar(Fraction(a), Fraction(b), d)


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


def test_square_free_split():
    assert square_free_split(0) == (0, 0)
    assert square_free_split(1) == (1, 1)
    assert square_free_split(20) == (2, 5)
    assert square_free_split(49) == (7, 1)


def test_canonicalization():
    assert S(1, 1, 20) == S(1, 2, 5)  # sqrt(20) = 2 sqrt(5)
    assert S(0, 3, 1) == S(3)  # sqrt(1) folds into the rational part
    assert S(2, 0, 7) == S(2)  # zero coefficient drops the surd
    assert sqrt_of_fraction(Fraction(9, 4)) == S(Fraction(3, 2))


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


def test_sign_exactness():
    assert S(7, -1, 48).sign() == 1  # 7 - 4 sqrt3 > 0 since 49 > 48
    assert S(-7, 4, 3).sign() == -1
    assert S(0).sign() == 0


def test_serialization_round_trip():
    cases = [S(4), S(-2), S(Fraction(3, 7)), S(0, 1, 5), S(0, -1, 2),
             S(Fraction(1, 2), Fraction(1, 2), 5), S(1, -1, 3),
             S(Fraction(-1, 2), Fraction(-3, 4), 13)]
    for x in cases:
        assert AlgebraicScalar.parse(str(x)) == x
    assert str(S(Fraction(1, 2), Fraction(1, 2), 5)) == "1/2 + 1/2√5"
    assert str(S(1, -1, 3)) == "1 - √3"


@given(st.fractions(max_denominator=20), st.fractions(max_denominator=20),
       st.integers(min_value=0, max_value=30))
def test_scalar_float_consistency(a, b, d):
    x = AlgebraicScalar(a, b, d)
    assert math.isclose(x.to_float(), float(a) + float(b) * math.sqrt(d),
                        rel_tol=1e-12, abs_tol=1e-12)
    assert AlgebraicScalar.parse(str(x)) == x


@given(st.fractions(max_denominator=10), st.fractions(max_denominator=10),
       st.sampled_from([0, 2, 3, 5]), st.fractions(max_denominator=10),
       st.fractions(max_denominator=10), st.sampled_from([0, 2, 3, 5]))
def test_comparison_matches_floats_when_separated(a1, b1, d1, a2, b2, d2):
    x, y = AlgebraicScalar(a1, b1, d1), AlgebraicScalar(a2, b2, d2)
    fx, fy = x.to_float(), y.to_float()
    if abs(fx - fy) > 1e-6:
        assert (x.compare(y) > 0) == (fx > fy)


@given(st.fractions(max_denominator=8), st.fractions(max_denominator=8),
       st.fractions(max_denominator=8), st.fractions(max_denominator=8),
       st.sampled_from([2, 3, 5, 7]))
def test_field_axioms_sample(a1, b1, a2, b2, d):
    x, y = AlgebraicScalar(a1, b1, d), AlgebraicScalar(a2, b2, d)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + 1) == x * y + x
    if y.sign() != 0:
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
    assert span.contains(A * c1 + B * c2)


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


def test_eigenvalues_from_charpoly_quadratic():
    # (x^2 - x - 1)(x - 2): golden ratio pair plus 2
    coeffs = [1, -3, 1, 2]
    pairs = eigenvalues_from_charpoly(coeffs)
    vals = [str(v) for v, _ in pairs]
    assert vals == ["2", "1/2 + 1/2√5", "1/2 - 1/2√5"]


def test_eigenvalues_from_charpoly_cubic_gives_none():
    # x^3 - x - 1 is irreducible over Q
    assert eigenvalues_from_charpoly([1, 0, -1, -1]) is None


def test_eigenprojection_icosahedron_ranks():
    # exact spectrum {5, √5, -1, -√5} with multiplicities (1, 3, 5, 3); the
    # Lagrange projections onto the eigenspaces (sympy) have rank = trace = m_i
    g = icosahedron()
    A = np.asarray(g.adjacency, dtype=np.int64)
    pairs = eigenvalues_from_charpoly(charpoly_int(A))
    assert pairs is not None
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
    """certified_factors(B) when the float step proposes ``proposal``."""
    monkeypatch.setattr(exactla, "_propose_factors", lambda _: proposal)
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
    dd = distances(g)
    total = sum(dd.A)
    assert (total == 1).all()
    assert (dd.A[0] == np.eye(12, dtype=int)).all()


def test_rank_matches_float_rank_on_acceptance_graphs():
    from drgkit.families import johnson, shrikhande

    for g in (shrikhande(), johnson(8, 2)):
        m = np.asarray(g.adjacency, dtype=np.int64)
        assert span_rank(m) == np.linalg.matrix_rank(m.astype(float), tol=1e-9)
