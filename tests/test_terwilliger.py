"""Dual idempotents, dual eigenvalues, the block-spin closure, the primary-module action."""

import itertools
import re

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import classes_from, distance_matrices, idempotent_profiles, span_contains
from drgkit.exactla import (
    _imatmul,
    charpoly_int,
    eigenvalues_from_charpoly,
    factor_roots,
)
from drgkit.families import chang, hamming, icosahedron, johnson, rook_grid, shrikhande
from drgkit.graph_core import Graph, distances
from drgkit.scheme import (
    antipodality,
    eigen_data,
    intersection_matrix,
    krein,
    verify_drg,
)
from drgkit.spectra import Spectrum, subconstituent_spectra
from drgkit.terwilliger import (
    StackedSpan,
    block_spin_dims,
    terwilliger_dimension,
    terwilliger_dimensions,
)
from exact_span import ExactSpan


def _class_indicators(dd, x):
    """E*_0 .. E*_D at x, each as its 0/1 diagonal: the distance-class indicators."""
    return [(dd.dist[x] == i).astype(np.int64) for i in range(dd.D + 1)]


def test_dual_idempotents_partition():
    g = johnson(8, 2)
    dd = distances(g)
    indicators = _class_indicators(dd, 0)
    # each E*_i is a 0/1 diagonal (so idempotent) and they sum to I
    assert all(set(np.unique(e)) <= {0, 1} for e in indicators)
    assert (sum(indicators) == 1).all()
    # rank E*_1 = valency
    assert int(indicators[1].sum()) == 12


def test_dual_idempotents_antipode_reversal():
    g = icosahedron()
    dd = distances(g)
    amap = antipodality(dd)
    x = 0
    e_x = _class_indicators(dd, x)
    e_hat = _class_indicators(dd, amap[x])
    for j in range(4):
        assert (e_x[j] == e_hat[3 - j]).all()


def _dual_eigenvalues(g, params, ed, order):
    # theta*_h = n * (E_{order[1]})_{xy} for y at distance h from x
    prof = idempotent_profiles(ed, params)
    return [sympy.expand(prof[h][order[1]] * g.n) for h in range(params.D + 1)]


def test_dual_eigenvalues_distinct():
    # A* = A*_1(x) is diagonal with entry n * (E_1)_{xy} = n * prof[h][ordering[1]]
    # on distance class h; for a Q-polynomial ordering these dual eigenvalues
    # are mutually distinct
    for g in (johnson(8, 2), icosahedron()):
        params = verify_drg(g)
        ed = eigen_data(params)
        orderings = krein(ed, params).qpoly_orderings
        assert orderings
        for order in orderings:
            theta_star = _dual_eigenvalues(g, params, ed, order)
            assert all(sympy.expand(a - b) != 0 for a, b in itertools.combinations(theta_star, 2))


def test_dual_adjacency_j82():
    g = johnson(8, 2)
    dd = distances(g)
    params = verify_drg(g, dd)
    ed = eigen_data(params)
    order = krein(ed, params).qpoly_orderings[0]
    theta_star = _dual_eigenvalues(g, params, ed, order)
    # distinctness
    assert len(set(theta_star)) == 3
    # A* = A*_1(0) = sum_i theta*_i E*_i
    indicators = _class_indicators(dd, 0)
    A_star = sympy.diag(*[sum(t * int(e[y]) for t, e in zip(theta_star, indicators))
                          for y in range(g.n)])
    # E_i = sum_h prof[h][i] A_h, taken in the Q-polynomial ordering
    prof = idempotent_profiles(ed, params)
    A = [sympy.Matrix(a.tolist()) for a in distance_matrices(dd)]
    E = [sum((prof[h][i] * A[h] for h in range(params.D + 1)), sympy.zeros(g.n))
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
    ed = eigen_data(params)
    order = krein(ed, params).qpoly_orderings[0]
    assert len(set(_dual_eigenvalues(g, params, ed, order))) == 4


def _terwilliger_generators(g, x, dd):
    gens = [np.asarray(g.adjacency, dtype=np.int64)]
    return gens + [np.diag(e) for e in _class_indicators(dd, x)]


def _spin_closure(gens) -> ExactSpan:
    """Test oracle: spin span{I} as whole n x n matrices, every generator a multiplier."""
    gens = [np.asarray(G) for G in gens]
    n = gens[0].shape[0]
    span = ExactSpan(n * n)
    span.insert(np.eye(n, dtype=np.int64))
    todo = [span.last[0].reshape(n, n)]
    while todo:
        M = todo.pop()
        for G in gens:
            if span.insert(_imatmul(G, M)):
                todo.append(span.last[0].reshape(n, n))
    return span


def _spin_closure_dim(gens):
    return _spin_closure(gens).dim


def _closure_dim(gens):
    """dim of the unital algebra generated by gens through block_spin_dims: the
    diagonal generators give the cells, their common level sets (one cell when
    there is none), and the one other generator, or a zero matrix when there
    is none, is the symmetric matrix A."""
    gens = [np.asarray(G) for G in gens]
    n = gens[0].shape[0]
    diagonal = [np.count_nonzero(G) == np.count_nonzero(G.diagonal()) for G in gens]
    cells = {}
    labels = [cells.setdefault(tuple(int(G[v, v]) for G, diag in zip(gens, diagonal) if diag),
                               len(cells))
              for v in range(n)]
    dense = [G for G, diag in zip(gens, diagonal) if not diag]
    assert len(dense) <= 1
    A = dense[0] if dense else np.zeros((n, n), dtype=np.int64)
    (dim,) = block_spin_dims(A, [labels])
    return dim


def test_closure_identity_only():
    assert _closure_dim([np.eye(5, dtype=np.int64)]) == 1


def test_closure_diagonal_only_generators():
    # the cell projections onto {0, 1}, {2} and {3}
    assert _closure_dim([np.diag([1, 1, 2, 3])]) == 3


def test_closure_diagonal_values_act_through_their_level_sets():
    g = icosahedron()
    A = np.asarray(g.adjacency, dtype=np.int64)
    dist = distances(g).dist[0]
    for f in ((5, -2, 7, 9), (3, 3, -1, -1), (2, 4, 2, 4)):
        values = np.array(f)[dist]
        levels = [np.diag((values == v).astype(np.int64)) for v in sorted(set(f))]
        dim = _closure_dim([A, np.diag(values)])
        assert dim == _closure_dim([A] + levels) == _spin_closure_dim([A, np.diag(values)])
        if len(set(f)) == 4:
            assert dim == terwilliger_dimension(g, 0) == 24


def test_closure_shrikhande_and_grid():
    assert terwilliger_dimension(shrikhande(), 0) == 20
    assert terwilliger_dimension(rook_grid(4), 0) == 15


def test_closure_skips_empty_distance_classes():
    # the centre of a path reaches every vertex in one step, so its class at
    # distance D = 2 is empty; the closure runs on the two nonempty cells, with
    # blocks of dimension 1, 1, 1 and 2 (I and J on the two leaves)
    path = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    g = Graph(path)
    dd = distances(g)
    assert [len(np.flatnonzero(dd.dist[1] == i)) for i in range(3)] == [1, 2, 0]
    assert terwilliger_dimension(g, 1, dd) == \
        _spin_closure_dim(_terwilliger_generators(g, 1, dd)) == 5


def test_one_request_refuses_classes_of_different_sizes():
    # the path is not distance-regular: the leaves have classes of sizes
    # 1, 1, 1 and the centre 1, 2, 0, so both stacked kernels refuse the three
    # vertices together, and each vertex alone gets what the oracle gives
    g = Graph(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
    dd = distances(g)
    with pytest.raises(ValueError, match="different sizes"):
        terwilliger_dimensions(g, [0, 1, 2], dd)
    with pytest.raises(ValueError, match="different sizes"):
        subconstituent_spectra(g, 1, dd, [0, 1, 2])
    assert [terwilliger_dimensions(g, [x], dd)[0] for x in range(3)] == \
        [_spin_closure_dim(_terwilliger_generators(g, x, dd)) for x in range(3)] == [9, 5, 9]
    blocks = [g.adjacency[np.ix_(c, c)].astype(np.int64) for c in
              (classes_from(dd, x, 1) for x in range(3))]
    assert [subconstituent_spectra(g, 1, dd, [x])[0] for x in range(3)] == \
        [Spectrum.from_pairs(factor_roots(eigenvalues_from_charpoly(charpoly_int(B))))
         for B in blocks]
    assert terwilliger_dimensions(g, [0, 2, 0], dd) == [9, 9, 9]
    assert terwilliger_dimensions(g, [], dd) == []
    with pytest.raises(ValueError, match="vertex 3 out of range 0..2"):
        terwilliger_dimensions(g, [0, 3], dd)


@pytest.mark.parametrize("v", [1.5, "1", True, np.float64(1.0), np.bool_(True)])
def test_non_integer_vertex_is_refused_not_truncated(v):
    g = shrikhande()
    with pytest.raises(ValueError, match=re.escape(f"vertex {v!r} is not an integer")):
        terwilliger_dimensions(g, [0, v])


def test_numpy_int_vertices_are_accepted():
    g = shrikhande()
    assert terwilliger_dimensions(g, [np.int64(1), np.intp(2)]) == [20, 20]
    assert terwilliger_dimensions(g, np.arange(2)) == [20, 20]


def test_empty_request_spins_nothing():
    g = shrikhande()
    assert block_spin_dims(g.adjacency, np.empty((0, g.n), int)) == []


def test_closure_matches_whole_matrix_spin():
    cases = [(g, range(g.n)) for g in (shrikhande(), chang(1), chang(2), chang(3), icosahedron())]
    cases += [(hamming(3, 3), [0]), (johnson(8, 4), [0])]
    for g, vertices in cases:
        dd = distances(g)
        for x in vertices:
            assert terwilliger_dimension(g, x, dd) == \
                _spin_closure_dim(_terwilliger_generators(g, x, dd)), (g.label, x)


def test_one_stacked_request_matches_whole_matrix_spin_at_every_vertex():
    # Chang-1..3 have two dims each, so their vertices accept new elements at
    # different steps and the stacked spans carry vertices that did not grow
    for g in (chang(1), chang(2), chang(3)):
        dd = distances(g)
        dims = terwilliger_dimensions(g, range(g.n), dd)
        assert len(set(dims)) == 2, g.label
        assert dims == [_spin_closure_dim(_terwilliger_generators(g, x, dd))
                        for x in range(g.n)], g.label


def test_stacks_are_cut_at_the_entry_budget(monkeypatch):
    # J(8,4) has classes of sizes 1, 16, 36, 16, 1: at most 2**16 // 36**2 = 50
    # vertices per stack, so its 70 vertices take two stacks
    import drgkit.terwilliger

    spin = drgkit.terwilliger._spin_stack
    stacks = []

    def spy(A, cells):
        stacks.append(len(cells[0]))
        return spin(A, cells)

    monkeypatch.setattr(drgkit.terwilliger, "_spin_stack", spy)
    g = johnson(8, 4)
    assert terwilliger_dimensions(g, range(g.n)) == [46] * g.n
    assert stacks == [50, 20]


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
    assert _closure_dim([A, D]) == _spin_closure_dim([A, D])


def test_closure_basis_is_closed_and_transpose_stable():
    g = shrikhande()
    dd = distances(g)
    gens = _terwilliger_generators(g, 0, dd)
    assert block_spin_dims(gens[0], [dd.dist[0]]) == [20]
    span = _spin_closure(gens)
    basis = [row.reshape(g.n, g.n) for row in span.rows]
    assert len(basis) == 20
    # T is the direct sum of its blocks E*_h T E*_j, so every row of the
    # reduced echelon basis lies in one block
    for m in basis:
        rows, cols = np.nonzero(m)
        assert len(set(dd.dist[0][rows])) == 1 and len(set(dd.dist[0][cols])) == 1
    for m in basis:
        assert span_contains(span, m.T)
    for a in basis:
        for b in basis:
            assert span_contains(span, a.astype(object) @ b.astype(object))
    for gmat in gens:
        assert span_contains(span, gmat)


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
        ed = eigen_data(params)
        pairs = factor_roots(eigenvalues_from_charpoly(charpoly_int(intersection_matrix(params))))
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


def _symmetrized(rng, n):
    G = rng.integers(-2, 3, size=(n, n))
    return G + G.T


def test_closure_dim_matches_naive_fixed_point():
    rng = np.random.default_rng(3)
    for _ in range(4):
        gens = [_symmetrized(rng, int(rng.integers(2, 4)))]
        assert _closure_dim(gens) == _naive_closure_dim(gens)


def _dense_and_diagonal_generators(seed):
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(6):
        n = int(rng.integers(2, 5))
        gens = [_symmetrized(rng, n)]
        gens += [np.diag(rng.integers(-3, 4, size=n)) for _ in range(int(rng.integers(1, 3)))]
        cases.append(gens)
    return cases


def test_closure_dense_and_diagonal_generators_match_naive_fixed_point():
    for gens in _dense_and_diagonal_generators(7):
        assert _closure_dim(gens) == _naive_closure_dim(gens)


def test_transpose_path_needs_an_exactly_symmetric_generator():
    # one off-diagonal entry breaks the symmetry, in its support or only in its
    # value: T is then not closed under transpose, and spinning only the
    # blocks l >= j would give 8 and 11, so block_spin_dims refuses the matrix
    path = np.array([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]])
    path[2, 1] = 0
    weighted = np.array([[0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 1], [0, 0, 1, 0]])
    weighted[0, 2] = 2
    for gens, dim in (([path, np.diag([0, 1, 2, 3])], 12),
                      ([weighted, np.diag([1, 1, 0, 0])], 13)):
        assert _spin_closure_dim(gens) == _naive_closure_dim(gens) == dim
        with pytest.raises(ValueError, match="symmetric"):
            _closure_dim(gens)


def _spy_conversions(monkeypatch):
    """Record the function that asks for each Python-int conversion, in
    exactla (the products) and in terwilliger (the stacked spans)."""
    import sys

    import drgkit.terwilliger
    from drgkit import exactla

    callers = set()
    to_object = exactla._to_object

    def spy(a):
        callers.add(sys._getframe(1).f_code.co_name)
        return to_object(a)

    monkeypatch.setattr(exactla, "_to_object", spy)
    monkeypatch.setattr(drgkit.terwilliger, "_to_object", spy)
    return callers


def _big(mat, scale=2**40):
    return np.array([[int(v) * scale for v in row] for row in np.asarray(mat)], dtype=object)


def test_closure_dim_survives_int64_overflow(monkeypatch):
    # generators scaled by 2**40 as Python ints: the products overflow int64,
    # so the stacked kernel multiplies and reduces on Python ints, and the
    # scaled algebra has the dimension of the plain one
    plain = [_closure_dim(gens) for gens in _dense_and_diagonal_generators(7)]
    callers = _spy_conversions(monkeypatch)
    assert [_closure_dim([_big(g) for g in gens])
            for gens in _dense_and_diagonal_generators(7)] == plain
    assert {"_imatmul", "_residue"} <= callers
    # a stack of several vertices: 2**40 A on the distance classes of every
    # vertex of the icosahedron, one stack of 12, gives dim T(x) = 24
    callers.clear()
    g = icosahedron()
    assert block_spin_dims(_big(g.adjacency), distances(g).dist) == [24] * g.n
    assert {"_imatmul", "_residue"} <= callers


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stacked_span_matches_sympy_rank_per_vertex(data):
    # m vertices, each step inserting one vector for a drawn subset of them;
    # some vectors are integer combinations of that vertex's earlier ones.
    # Past their first entry, the fresh ones may carry multiples of 2**24,
    # whose back-substitution overflows int64 under small pivot entries, or
    # of 2**61, whose residues do: either takes the span to Python ints
    m = data.draw(st.integers(1, 4))
    ncols = data.draw(st.integers(1, 6))
    small = st.integers(-3, 3)
    scale = data.draw(st.sampled_from([0, 2**24, 2**61]))
    span = StackedSpan(m, ncols)
    inserted = [[] for _ in range(m)]
    for _ in range(data.draw(st.integers(1, 8))):
        idx = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1)))
        rows = []
        for b in idx:
            if inserted[b] and data.draw(st.booleans()):
                coeffs = data.draw(st.lists(small, min_size=len(inserted[b]),
                                            max_size=len(inserted[b])))
                row = [sum(c * r[t] for c, r in zip(coeffs, inserted[b])) for t in range(ncols)]
            else:
                row = data.draw(st.lists(small, min_size=ncols, max_size=ncols))
                row = row[:1] + [v + scale * data.draw(small) for v in row[1:]]
            rows.append(row)
        ranks = [sympy.Matrix(inserted[b]).rank() if inserted[b] else 0 for b in idx]
        for b, row in zip(idx, rows):
            inserted[b].append(row)
        mv = max(abs(v) for row in rows for v in row)
        V = np.array(rows, dtype=object if mv >= 2**62 else np.int64)
        grew, W, bound = span.insert(np.array(idx), V, mv)
        assert grew.tolist() == [b for b, r in zip(idx, ranks)
                                 if sympy.Matrix(inserted[b]).rank() > r]
        assert bound == max((abs(int(v)) for v in np.asarray(W).flat), default=0)
    for b in range(m):
        assert span.dim[b] == sympy.Matrix(inserted[b]).rank()


def test_stacked_span_back_substitution_moves_to_python_ints():
    # vertex 0's second row has pivot entry 1 but an entry 2**33, so clearing
    # its pivot column from the first row, q R - 2**30 w, reaches -2**63:
    # the whole stack moves to Python ints, and vertex 1's small rows with it
    span = StackedSpan(2, 3)
    both = np.array([0, 1])
    grew, _, _ = span.insert(both, np.array([[1, 2**30, 0], [2, 0, 1]]), 2**30)
    assert grew.tolist() == [0, 1]
    grew, W, bound = span.insert(both, np.array([[0, 1, 2**33], [0, 3, 0]]), 2**33)
    assert grew.tolist() == [0, 1] and bound == 2**33
    assert span._R.dtype == object and span.dim.tolist() == [2, 2]
    assert span._R[0, :2].tolist() == [[1, 0, -2**63], [0, 1, 2**33]]
    combo = np.array([[5, 7, 5 * -2**63 + 7 * 2**33], [4, 9, 2]], dtype=object)
    grew, _, _ = span.insert(both, combo, 2**70)
    assert grew.tolist() == [] and span.dim.tolist() == [2, 2]
