"""Dual idempotents, dual adjacency, algebra closure, tridiagonal action."""

from fractions import Fraction

import numpy as np
import pytest

from drgkit.exactla import (
    AlgebraicScalar,
    ExactMatrix,
    ExactSpan,
    charpoly_int,
    eigenvalues_from_charpoly,
)
from drgkit.families import icosahedron, johnson, rook_grid, shrikhande
from drgkit.graph_core import distances
from drgkit.scheme import antipodality, eigen_data, krein, verify_drg
from drgkit.terwilliger import (
    algebra_closure,
    dual_adjacency,
    dual_idempotents,
    terwilliger_dimension,
    tridiagonal_primary,
)


def S(a, b=0, d=0):
    return AlgebraicScalar(Fraction(a), Fraction(b), d)


def test_dual_idempotents_partition():
    g = johnson(8, 2)
    dd = distances(g)
    di = dual_idempotents(g, 0, dd)
    total = ExactMatrix.zeros(g.n, g.n)
    for E in di.E_star:
        total = total + E
        assert E @ E == E
    assert total == ExactMatrix.identity(g.n)
    # rank E*_1 = valency
    assert int(di.indicator(1).sum()) == 12


def test_dual_idempotents_antipode_reversal():
    g = icosahedron()
    dd = distances(g)
    amap = antipodality(g, dd)
    x = 0
    di_x = dual_idempotents(g, x, dd)
    di_hat = dual_idempotents(g, amap[x], dd)
    for j in range(4):
        assert di_x.E_star[j] == di_hat.E_star[3 - j]


def test_dual_adjacency_j82():
    g = johnson(8, 2)
    dd = distances(g)
    params = verify_drg(g, dd)
    ed = eigen_data(g, params, dd)
    kd = krein(ed, params)
    da = dual_adjacency(g, 0, ed, kd.qpoly_orderings[0], dd)
    di = dual_idempotents(g, 0, dd)
    # eigen-relation A* E*_i = theta*_i E*_i
    for i, ts in enumerate(da.theta_star):
        assert da.A_star @ di.E_star[i] == di.E_star[i] * ts
    # distinctness
    assert len(set(da.theta_star)) == 3
    # E_i A* E_j = 0 for |i - j| > 1
    for i in range(3):
        for j in range(3):
            prod = ed.E[i] @ da.A_star @ ed.E[j]
            if abs(i - j) > 1:
                assert prod.is_zero()


def test_dual_adjacency_icosahedron_distinct():
    g = icosahedron()
    dd = distances(g)
    params = verify_drg(g, dd)
    ed = eigen_data(g, params, dd)
    kd = krein(ed, params)
    da = dual_adjacency(g, 0, ed, kd.qpoly_orderings[0], dd)
    assert len(set(da.theta_star)) == 4


def test_dual_adjacency_rejects_bad_ordering():
    g = johnson(8, 2)
    ed = eigen_data(g, verify_drg(g))
    with pytest.raises(ValueError):
        dual_adjacency(g, 0, ed, (1, 0, 2))


def test_closure_identity_only():
    basis = algebra_closure([ExactMatrix.identity(5)])
    assert basis.dim == 1
    assert basis.basis[0] == ExactMatrix.identity(5)


def test_closure_shrikhande_and_grid():
    assert terwilliger_dimension(shrikhande(), 0) == 20
    assert terwilliger_dimension(rook_grid(4), 0) == 15


def test_closure_basis_is_closed_and_transpose_stable():
    g = shrikhande()
    dd = distances(g)
    gens = [ExactMatrix.from_int(np.asarray(g.adjacency, dtype=np.int64))]
    gens += list(dual_idempotents(g, 0, dd).E_star)
    basis = algebra_closure(gens)
    assert basis.dim == 20
    span = ExactSpan(g.n * g.n)
    for m in basis.basis:
        assert span.insert(m)
    for m in basis.basis:
        assert span.contains(m.transpose())
    for a in basis.basis:
        for b in basis.basis:
            assert span.contains(a @ b)
    for gmat in gens:
        assert span.contains(gmat)


def test_closure_surd_generators():
    # Q(sqrt2) generated by one symmetric surd matrix: dimension 2 over Q(sqrt2)
    rt2 = S(0, 1, 2)
    m = ExactMatrix.from_scalars([[S(0), rt2], [rt2, S(0)]])
    basis = algebra_closure([m])
    assert basis.dim == 2  # I and m span; m @ m = 2 I


def test_tridiagonal_primary_srg_shape():
    params = verify_drg(johnson(8, 2))
    M = tridiagonal_primary(params)
    assert M.int_array().tolist() == [[0, 12, 0], [1, 6, 5], [0, 4, 8]]


def test_tridiagonal_primary_icosahedron():
    params = verify_drg(icosahedron())
    M = tridiagonal_primary(params).int_array()
    assert M.tolist() == [[0, 5, 0, 0], [1, 2, 2, 0], [0, 2, 2, 1], [0, 0, 5, 0]]


def test_tridiagonal_primary_j84():
    params = verify_drg(johnson(8, 4))
    M = tridiagonal_primary(params).int_array()
    assert M.shape == (5, 5)
    assert [M[i + 1, i] for i in range(4)] == [1, 4, 9, 16]


def test_tridiagonal_eigenvalues_match_theta():
    for g in (johnson(8, 2), icosahedron(), johnson(8, 4)):
        params = verify_drg(g)
        ed = eigen_data(g, params)
        M = tridiagonal_primary(params)
        pairs = eigenvalues_from_charpoly(charpoly_int(M.int_array()))
        assert tuple(v for v, m in pairs) == ed.theta
        assert all(m == 1 for _, m in pairs)


def test_span_dims_match_sympy_rank_oracle():
    import sympy

    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        mats = [rng.integers(-4, 5, size=(n, n)) for _ in range(int(rng.integers(1, 7)))]
        span = ExactSpan(n * n)
        for m in mats:
            span.insert(m)
        stacked = sympy.Matrix([list(m.reshape(-1)) for m in mats])
        assert span.dim == stacked.rank()


def test_closure_dim_matches_naive_fixed_point():
    import sympy

    def naive_closure_dim(gens):
        n = gens[0].shape[0]
        basis = [sympy.eye(n)] + [sympy.Matrix(g.tolist()) for g in gens]

        def dim_of(mats):
            return sympy.Matrix([list(m) for m in mats]).rank()

        while True:
            current = dim_of(basis)
            grown = basis + [a * b for a in basis for b in basis]
            if dim_of(grown) == current:
                return current
            basis = grown

    rng = np.random.default_rng(3)
    for _ in range(4):
        n = int(rng.integers(2, 4))
        gens = [rng.integers(-2, 3, size=(n, n)) for _ in range(int(rng.integers(1, 3)))]
        ours = algebra_closure([ExactMatrix.from_int(g) for g in gens]).dim
        assert ours == naive_closure_dim(gens)


def _naive_closure_dim(gens):
    """Test oracle: grow span{I, gens} by all pairwise products until stable."""
    import sympy

    n = gens[0].shape[0]
    mats = [sympy.eye(n)] + [sympy.Matrix(g.tolist()) for g in gens]
    while True:
        rows = sympy.Matrix([list(m) for m in mats]).rowspace()
        basis = [sympy.Matrix(n, n, list(r)) for r in rows]
        grown = basis + [a * b for a in basis for b in basis]
        if sympy.Matrix([list(m) for m in grown]).rank() == len(basis):
            return len(basis)
        mats = grown


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
        ours = algebra_closure([ExactMatrix.from_int(g) for g in gens]).dim
        assert ours == _naive_closure_dim(gens)


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
        plain = algebra_closure([ExactMatrix.from_int(g) for g in gens]).dim
        monkeypatch.setattr(exactla, "_to_object", spy)
        big = [ExactMatrix(to_object(np.asarray(g, dtype=np.int64)) * scale) for g in gens]
        assert algebra_closure(big).dim == plain
        monkeypatch.setattr(exactla, "_to_object", to_object)
    # the scaled run really took the Python-int paths it is meant to cover
    assert {"_imatmul", "_scale_rows", "_combine"} <= fallbacks
