"""Dual idempotents, dual eigenvalues, algebra closure, the primary-module action."""

import itertools

import numpy as np
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import idempotent_profiles
from drgkit.exactla import ExactSpan, _imatmul, charpoly_int, eigenvalues_from_charpoly
from drgkit.families import chang, hamming, icosahedron, johnson, rook_grid, shrikhande
from drgkit.graph_core import distances
from drgkit.scheme import (
    antipodality,
    eigen_data,
    intersection_matrix,
    krein,
    verify_drg,
)
from drgkit.terwilliger import algebra_closure, dual_idempotents, terwilliger_dimension


def test_dual_idempotents_partition():
    g = johnson(8, 2)
    dd = distances(g)
    di = dual_idempotents(g, 0, dd)
    # each E*_i is a 0/1 diagonal (so idempotent) and they sum to I
    assert all(set(np.unique(e)) <= {0, 1} for e in di.indicators)
    assert (sum(di.indicators) == 1).all()
    # rank E*_1 = valency
    assert int(di.indicators[1].sum()) == 12


def test_dual_idempotents_antipode_reversal():
    g = icosahedron()
    dd = distances(g)
    amap = antipodality(g, dd)
    x = 0
    di_x = dual_idempotents(g, x, dd)
    di_hat = dual_idempotents(g, amap[x], dd)
    for j in range(4):
        assert (di_x.indicators[j] == di_hat.indicators[3 - j]).all()


def _dual_eigenvalues(g, params, ed, order):
    # theta*_h = n * (E_{order[1]})_{xy} for y at distance h from x
    prof = idempotent_profiles(ed, params)
    return [prof[h][order[1]] * g.n for h in range(params.D + 1)]


def _sym(x):
    return sympy.Rational(x.a.numerator, x.a.denominator) + \
        sympy.Rational(x.b.numerator, x.b.denominator) * sympy.sqrt(x.d)


def test_dual_eigenvalues_distinct():
    # A* = A*_1(x) is diagonal with entry n * (E_1)_{xy} = n * prof[h][ordering[1]]
    # on distance class h; for a Q-polynomial ordering these dual eigenvalues
    # are mutually distinct
    for g in (johnson(8, 2), icosahedron()):
        params = verify_drg(g)
        ed = eigen_data(g, params)
        orderings = krein(ed, params).qpoly_orderings
        assert orderings
        for order in orderings:
            theta_star = _dual_eigenvalues(g, params, ed, order)
            assert all(a != b for a, b in itertools.combinations(theta_star, 2))


def test_dual_adjacency_j82():
    g = johnson(8, 2)
    dd = distances(g)
    params = verify_drg(g, dd)
    ed = eigen_data(g, params, dd)
    order = krein(ed, params).qpoly_orderings[0]
    theta_star = _dual_eigenvalues(g, params, ed, order)
    # distinctness
    assert len(set(theta_star)) == 3
    # A* = A*_1(0) = sum_i theta*_i E*_i
    di = dual_idempotents(g, 0, dd)
    A_star = sympy.diag(*[sum(_sym(t) * int(e[y]) for t, e in zip(theta_star, di.indicators))
                          for y in range(g.n)])
    # E_i = sum_h prof[h][i] A_h, taken in the Q-polynomial ordering
    prof = idempotent_profiles(ed, params)
    A = [sympy.Matrix(a.tolist()) for a in dd.A]
    E = [sum((_sym(prof[h][i]) * A[h] for h in range(params.D + 1)), sympy.zeros(g.n))
         for i in order]
    # E_i A* E_j = 0 for |i - j| > 1, and != 0 for |i - j| = 1
    for i in range(3):
        for j in range(3):
            prod = (E[i] * A_star * E[j]).applyfunc(sympy.expand)
            if abs(i - j) > 1:
                assert prod.is_zero_matrix
            elif abs(i - j) == 1:
                assert not prod.is_zero_matrix


def test_dual_adjacency_icosahedron_distinct():
    g = icosahedron()
    dd = distances(g)
    params = verify_drg(g, dd)
    ed = eigen_data(g, params, dd)
    order = krein(ed, params).qpoly_orderings[0]
    assert len(set(_dual_eigenvalues(g, params, ed, order))) == 4


def _terwilliger_generators(g, x, dd):
    gens = [np.asarray(g.adjacency, dtype=np.int64)]
    return gens + [np.diag(e) for e in dual_idempotents(g, x, dd).indicators]


def _spin_closure_dim(gens):
    """Test oracle: spin span{I} as whole n x n matrices, every generator a multiplier."""
    gens = [np.asarray(G) for G in gens]
    n = gens[0].shape[0]
    span = ExactSpan(n * n)
    span.insert(np.eye(n, dtype=np.int64))
    todo = [span.last_row.v.reshape(n, n)]
    while todo:
        M = todo.pop()
        for G in gens:
            if span.insert(_imatmul(G, M)):
                todo.append(span.last_row.v.reshape(n, n))
    return span.dim


def test_closure_identity_only():
    basis = algebra_closure([np.eye(5, dtype=np.int64)])
    assert basis.dim == 1
    assert (basis.basis[0] == np.eye(5, dtype=np.int64)).all()


def test_closure_diagonal_only_generators():
    basis = algebra_closure([np.diag([1, 1, 2, 3])])
    assert basis.dim == 3
    # the cell projections onto {0, 1}, {2} and {3}
    assert sorted(tuple(m.diagonal()) for m in basis.basis) == [(0, 0, 0, 1), (0, 0, 1, 0),
                                                                (1, 1, 0, 0)]


def test_closure_diagonal_values_act_through_their_level_sets():
    g = icosahedron()
    A = np.asarray(g.adjacency, dtype=np.int64)
    dist = distances(g).dist[0]
    for f in ((5, -2, 7, 9), (3, 3, -1, -1), (2, 4, 2, 4)):
        values = np.array(f)[dist]
        levels = [np.diag((values == v).astype(np.int64)) for v in sorted(set(f))]
        dim = algebra_closure([A, np.diag(values)]).dim
        assert dim == algebra_closure([A] + levels).dim == _spin_closure_dim([A, np.diag(values)])
        if len(set(f)) == 4:
            assert dim == terwilliger_dimension(g, 0) == 24


def test_closure_shrikhande_and_grid():
    assert terwilliger_dimension(shrikhande(), 0) == 20
    assert terwilliger_dimension(rook_grid(4), 0) == 15


def test_closure_matches_whole_matrix_spin():
    cases = [(g, range(g.n)) for g in (shrikhande(), chang(1), chang(2), chang(3), icosahedron())]
    cases += [(hamming(3, 3), [0]), (johnson(8, 4), [0])]
    for g, vertices in cases:
        dd = distances(g)
        for x in vertices:
            assert terwilliger_dimension(g, x, dd) == \
                _spin_closure_dim(_terwilliger_generators(g, x, dd)), (g.label, x)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_closure_matches_whole_matrix_spin_on_random_generators(data):
    # a symmetric 0/1 matrix (loops allowed) plus one diagonal with values in 0..3
    n = data.draw(st.integers(1, 8))
    m = n * (n + 1) // 2
    A = np.zeros((n, n), dtype=np.int64)
    A[np.triu_indices(n)] = data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    A = A | A.T
    D = np.diag(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    assert algebra_closure([A, D]).dim == _spin_closure_dim([A, D])


def test_closure_basis_is_closed_and_transpose_stable():
    g = shrikhande()
    dd = distances(g)
    gens = _terwilliger_generators(g, 0, dd)
    basis = algebra_closure(gens)
    assert basis.dim == 20
    # every basis element lies in one block E*_h T E*_j
    for m in basis.basis:
        rows, cols = np.nonzero(m)
        assert len(set(dd.dist[0][rows])) == 1 and len(set(dd.dist[0][cols])) == 1
    span = ExactSpan(g.n * g.n)
    for m in basis.basis:
        assert span.insert(m)
    for m in basis.basis:
        assert span.contains(m.T)
    for a in basis.basis:
        for b in basis.basis:
            assert span.contains(a.astype(object) @ b.astype(object))
    for gmat in gens:
        assert span.contains(gmat)


# The matrix of A on the standard basis of the primary module T(x)1 is the
# intersection matrix: row i carries (c_i, a_i, b_i) in columns i-1, i, i+1.


def test_tridiagonal_primary_srg_shape():
    params = verify_drg(johnson(8, 2))
    assert intersection_matrix(params).tolist() == [[0, 12, 0], [1, 6, 5], [0, 4, 8]]


def test_tridiagonal_primary_icosahedron():
    params = verify_drg(icosahedron())
    M = intersection_matrix(params)
    assert M.tolist() == [[0, 5, 0, 0], [1, 2, 2, 0], [0, 2, 2, 1], [0, 0, 5, 0]]


def test_tridiagonal_primary_j84():
    params = verify_drg(johnson(8, 4))
    M = intersection_matrix(params)
    assert M.shape == (5, 5)
    assert [M[i + 1, i] for i in range(4)] == [1, 4, 9, 16]


def test_tridiagonal_eigenvalues_match_theta():
    for g in (johnson(8, 2), icosahedron(), johnson(8, 4)):
        params = verify_drg(g)
        ed = eigen_data(g, params)
        pairs = eigenvalues_from_charpoly(charpoly_int(intersection_matrix(params)))
        assert tuple(v for v, m in pairs) == ed.theta
        assert all(m == 1 for _, m in pairs)


def test_span_dims_match_sympy_rank_oracle():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        mats = [rng.integers(-4, 5, size=(n, n)) for _ in range(int(rng.integers(1, 7)))]
        span = ExactSpan(n * n)
        for m in mats:
            span.insert(m)
        stacked = sympy.Matrix([list(m.reshape(-1)) for m in mats])
        assert span.dim == stacked.rank()


def _naive_closure_dim(gens):
    """Test oracle: grow span{I, gens} by all pairwise products until stable."""
    n = gens[0].shape[0]
    mats = [sympy.eye(n)] + [sympy.Matrix(g.tolist()) for g in gens]
    while True:
        rows = sympy.Matrix([list(m) for m in mats]).rowspace()
        basis = [sympy.Matrix(n, n, list(r)) for r in rows]
        grown = basis + [a * b for a in basis for b in basis]
        if sympy.Matrix([list(m) for m in grown]).rank() == len(basis):
            return len(basis)
        mats = grown


def test_closure_dim_matches_naive_fixed_point():
    rng = np.random.default_rng(3)
    for _ in range(4):
        n = int(rng.integers(2, 4))
        gens = [rng.integers(-2, 3, size=(n, n)) for _ in range(int(rng.integers(1, 3)))]
        assert algebra_closure(gens).dim == _naive_closure_dim(gens)


def _dense_and_diagonal_generators(seed):
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(6):
        n = int(rng.integers(2, 5))
        gens = [rng.integers(-2, 3, size=(n, n)) for _ in range(int(rng.integers(1, 3)))]
        gens += [np.diag(rng.integers(-3, 4, size=n)) for _ in range(int(rng.integers(1, 3)))]
        cases.append(gens)
    return cases


def test_closure_dense_and_diagonal_generators_match_naive_fixed_point():
    for gens in _dense_and_diagonal_generators(7):
        assert algebra_closure(gens).dim == _naive_closure_dim(gens)


def test_closure_dim_survives_int64_overflow(monkeypatch):
    import sys

    from drgkit import exactla

    fallbacks = set()
    to_object = exactla._to_object

    def spy(a):
        fallbacks.add(sys._getframe(1).f_code.co_name)
        return to_object(a)

    scale = 2**40
    for gens in _dense_and_diagonal_generators(7):
        plain = algebra_closure(gens).dim
        monkeypatch.setattr(exactla, "_to_object", spy)
        big = [to_object(np.asarray(g, dtype=np.int64)) * scale for g in gens]
        assert algebra_closure(big).dim == plain
        monkeypatch.setattr(exactla, "_to_object", to_object)
    # the scaled run really took the Python-int paths it is meant to cover
    assert {"_imatmul", "_combine"} <= fallbacks
