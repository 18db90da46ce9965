"""Distance-regularity, eigen data, Krein parameters, antipodality, tightness."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from conftest import idempotent_profiles
from drgkit.exactla import AlgebraicScalar
from drgkit.families import (
    chang,
    halved_cube,
    hamming,
    icosahedron,
    johnson,
    shrikhande,
)
from drgkit.graph_core import Graph, distances
from drgkit.scheme import (
    NotDistanceRegularError,
    antipodality,
    eigen_data,
    intersection_matrix,
    krein,
    multiplicity,
    tightness,
    verify_drg,
)


def S(a, b=0, d=0):
    return AlgebraicScalar(Fraction(a), Fraction(b), d)


def test_verify_drg_j82():
    params = verify_drg(johnson(8, 2))
    assert params.intersection_array == "{12,5;1,4}"
    assert params.D == 2 and params.k == 12


def test_verify_drg_icosahedron():
    assert verify_drg(icosahedron()).intersection_array == "{5,2,1;1,2,5}"


def test_path_not_distance_regular():
    p3 = Graph(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
    with pytest.raises(NotDistanceRegularError) as e:
        verify_drg(p3)
    assert len(e.value.witness) == 5


def test_verify_drg_witness_on_triangular_prism():
    # C3 x K2 is 3-regular but not distance-regular: the two ends of a
    # triangle edge have a common neighbour, the two ends of a rung have none
    adj = np.zeros((6, 6), dtype=int)
    for u, v in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]:
        adj[u, v] = adj[v, u] = 1
    g = Graph(adj)
    assert g.is_regular() == 3
    with pytest.raises(NotDistanceRegularError) as e:
        verify_drg(g)
    h, i, j, x, y = e.value.witness
    # brute force: Floyd-Warshall distances and the counts |G_i(x) n G_j(y)|
    dist = np.where(adj == 1, 1, 99)
    np.fill_diagonal(dist, 0)
    for w in range(6):
        dist = np.minimum(dist, dist[:, [w]] + dist[[w], :])

    def count(u, v):
        return sum(1 for w in range(6) if dist[u, w] == i and dist[v, w] == j)

    x0, y0 = next((u, v) for u in range(6) for v in range(6) if dist[u, v] == h)
    assert dist[x, y] == h
    assert count(x, y) != count(x0, y0)


def test_class_size_identity():
    params = verify_drg(johnson(8, 4))
    for h in range(params.D + 1):
        for i in range(params.D + 1):
            assert sum(params.p[h][i]) == params.k_i[i]


def test_eigen_data_j82():
    g = johnson(8, 2)
    params = verify_drg(g)
    ed = eigen_data(g, params)
    assert [str(t) for t in ed.theta] == ["12", "4", "-2"]
    assert ed.mult == (1, 7, 20)


def test_eigen_data_j84():
    g = johnson(8, 4)
    ed = eigen_data(g, verify_drg(g))
    assert [str(t) for t in ed.theta] == ["16", "8", "2", "-2", "-4"]
    assert ed.mult == (1, 7, 20, 28, 14)


def test_eigen_data_icosahedron():
    g = icosahedron()
    ed = eigen_data(g, verify_drg(g))
    assert [str(t) for t in ed.theta] == ["5", "√5", "-1", "-√5"]
    assert ed.mult == (1, 3, 5, 3)


def test_eigen_data_float_fallback_cycles():
    # C7 and C9 need a cubic field: float eigenvalues, multiplicities still exact
    for n in (7, 9):
        adj = np.zeros((n, n), dtype=int)
        for i in range(n):
            adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1
        g = Graph(adj)
        ed = eigen_data(g, verify_drg(g))
        assert not ed.exact
        assert ed.mult == (1,) + (2,) * (n // 2)
        expect = sorted((2 * np.cos(2 * np.pi * j / n) for j in range(n // 2 + 1)), reverse=True)
        assert np.allclose(ed.theta, expect)


def _sym(x: AlgebraicScalar):
    return sympy.Rational(x.a.numerator, x.a.denominator) + \
        sympy.Rational(x.b.numerator, x.b.denominator) * sympy.sqrt(x.d)


def _is_zero(M) -> bool:
    return M.applyfunc(sympy.expand).is_zero_matrix


def test_idempotent_identities():
    # sympy oracle: E_i = sum_h prof[h][i] A_h must be the primitive idempotents
    # of A, with rank E_i = m_i (rational on Shrikhande, sqrt5 on the icosahedron)
    for g in (shrikhande(), icosahedron()):
        params = verify_drg(g)
        ed = eigen_data(g, params)
        prof = idempotent_profiles(ed, params)
        n, D = g.n, params.D
        A = [sympy.Matrix(a.tolist()) for a in distances(g).A]
        E = [sum((_sym(prof[h][i]) * A[h] for h in range(D + 1)), sympy.zeros(n))
             for i in range(D + 1)]
        for i in range(D + 1):
            for j in range(D + 1):
                assert _is_zero(E[i] * E[j] - (E[i] if i == j else sympy.zeros(n)))
        assert _is_zero(sum(E, sympy.zeros(n)) - sympy.eye(n))
        assert _is_zero(sum((_sym(t) * Ei for t, Ei in zip(ed.theta, E)), sympy.zeros(n)) - A[1])
        assert [Ei.rank(simplify=True) for Ei in E] == list(ed.mult)


def test_idempotent_profiles_match_entries():
    # Lagrange oracle: E_i = prod_{j != i} (A - theta_j I) / (theta_i - theta_j)
    g = icosahedron()
    params = verify_drg(g)
    ed = eigen_data(g, params)
    dd = distances(g)
    prof = idempotent_profiles(ed, params)
    A = sympy.Matrix(g.adjacency.tolist())
    theta = [_sym(t) for t in ed.theta]
    for i, ti in enumerate(theta):
        E, denom = sympy.eye(g.n), 1
        for j, tj in enumerate(theta):
            if j != i:
                E = E * (A - tj * sympy.eye(g.n))
                denom *= ti - tj
        E = E * sympy.radsimp(1 / sympy.expand(denom))
        for h in range(params.D + 1):
            xs, ys = np.nonzero(dd.A[h])
            assert sympy.expand(E[int(xs[0]), int(ys[0])] - _sym(prof[h][i])) == 0


def test_multiplicities_reject_wrong_theta():
    for g in (shrikhande(), icosahedron(), johnson(8, 4)):
        params = verify_drg(g)
        ed = eigen_data(g, params)
        assert [multiplicity(t, params) for t in ed.theta] == list(ed.mult)
        with pytest.raises(ValueError):
            multiplicity(ed.theta[1] + 1, params)
        with pytest.raises(ValueError):
            multiplicity(float(ed.theta[1]) + 0.5, params)


def _krein_oracle(ed, params):
    """Test oracle, the elimination route: E_i o E_j = sum_h c_h E_h solved
    exactly over Q or Q(sqrt d) on the idempotent profiles; q^h_ij = n c_h.
    Returns q[h, i, j] and the Q-polynomial orderings of its zero pattern."""
    D, n = params.D, params.n
    prof = idempotent_profiles(ed, params)
    P = sympy.Matrix(D + 1, D + 1, lambda h, i: _sym(prof[h][i]))
    pairs = list(itertools.product(range(D + 1), repeat=2))
    R = sympy.Matrix(D + 1, len(pairs), lambda h, c: P[h, pairs[c][0]] * P[h, pairs[c][1]])
    M = DomainMatrix.from_Matrix(P.row_join(R), extension=True)
    rows = list(range(D + 1))
    C = M.extract(rows, rows).lu_solve(M.extract(rows, range(D + 1, M.shape[1])))
    C = C.to_Matrix()
    q = {(h, i, j): sympy.expand(n * C[h, c])
         for c, (i, j) in enumerate(pairs) for h in range(D + 1)}
    orderings = []
    for perm in itertools.permutations(range(1, D + 1)):
        order = (0,) + perm
        good = True
        for h, i, j in itertools.product(range(D + 1), repeat=3):
            top = max(h, i, j)
            zero = q[order[h], order[i], order[j]] == 0
            if (top > h + i + j - top and not zero) or (top == h + i + j - top and zero):
                good = False
        if good:
            orderings.append(order)
    return q, tuple(orderings)


@pytest.mark.parametrize("build", [shrikhande, icosahedron, lambda: johnson(8, 4),
                                   lambda: johnson(7, 3), lambda: halved_cube(8),
                                   lambda: hamming(3, 3), lambda: chang(3)],
                         ids=["Shrikhande", "icosahedron", "J(8,4)", "J(7,3)", "halved-8-cube",
                              "H(3,3)", "Chang-3"])
def test_krein_matches_elimination_oracle(build):
    g = build()
    params = verify_drg(g)
    ed = eigen_data(g, params)
    kd = krein(ed, params)
    q, orderings = _krein_oracle(ed, params)
    for (h, i, j), value in q.items():
        assert sympy.expand(value - _sym(kd.q[h][i][j])) == 0, (g.label, h, i, j)
    assert kd.qpoly_orderings == orderings


def test_krein_srg_natural_ordering():
    g = shrikhande()
    params = verify_drg(g)
    kd = krein(eigen_data(g, params), params)
    assert (0, 1, 2) in kd.qpoly_orderings


def test_krein_icosahedron_dual_bipartite():
    g = icosahedron()
    params = verify_drg(g)
    kd = krein(eigen_data(g, params), params)
    assert (0, 1, 2, 3) in kd.qpoly_orderings
    # q^i_{1,i} = 0 for all i in the natural ordering
    for i in range(4):
        assert kd.q[i][1][i] == S(0)


def test_krein_j84_has_ordering():
    g = johnson(8, 4)
    params = verify_drg(g)
    kd = krein(eigen_data(g, params), params)
    assert len(kd.qpoly_orderings) >= 1
    assert (0, 1, 2, 3, 4) in kd.qpoly_orderings


def test_antipodality():
    g = icosahedron()
    dd = distances(g)
    amap = antipodality(g, dd)
    assert amap is not None
    assert all(amap[amap[x]] == x for x in range(12))
    j84 = johnson(8, 4)
    amap = antipodality(j84, distances(j84))
    assert amap is not None and len(amap) == 70
    assert antipodality(johnson(8, 2)) is None


def test_tightness_icosahedron():
    g = icosahedron()
    params = verify_drg(g)
    t = tightness(params, eigen_data(g, params))
    assert t.is_tight and not t.bipartite
    assert t.lhs == S(Fraction(-20, 9)) and t.rhs == S(Fraction(-20, 9))
    assert t.b_plus == S(Fraction(-1, 2), Fraction(1, 2), 5)
    assert t.b_minus == S(Fraction(-1, 2), Fraction(-1, 2), 5)


def test_tightness_j84():
    g = johnson(8, 4)
    params = verify_drg(g)
    t = tightness(params, eigen_data(g, params))
    assert t.is_tight
    assert t.lhs == S(Fraction(-864, 49)) and t.rhs == S(Fraction(-864, 49))
    assert t.b_plus == S(2) and t.b_minus == S(-2)


def test_tightness_bipartite_undefined():
    g = hamming(3, 2)
    params = verify_drg(g)
    t = tightness(params, eigen_data(g, params))
    assert t.bipartite and not t.is_tight
    assert t.b_plus is None


def test_intersection_matrix_srg_shape():
    params = verify_drg(johnson(8, 2))
    M = intersection_matrix(params)
    assert M.tolist() == [[0, 12, 0], [1, 6, 5], [0, 4, 8]]


def test_tight_local_graph_characterization():
    # tight => local graphs are connected SRGs with eigenvalues a_1, b+, b-
    from drgkit.graph_core import induced_subgraph
    from drgkit.spectra import subconstituent_spectrum

    for g in (icosahedron(), johnson(8, 4)):
        params = verify_drg(g)
        ed = eigen_data(g, params)
        t = tightness(params, ed)
        assert t.is_tight
        dd = distances(g)
        local = induced_subgraph(g, dd.classes_from(0, 1))
        assert local.connected
        spec = subconstituent_spectrum(g, 0, 1, dd)
        values = [v for v, _ in spec.pairs]
        assert values[0] == S(params.a[1])
        assert set(values[1:]) == {t.b_plus, t.b_minus}
