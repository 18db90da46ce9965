"""Distance-regularity, eigen data, Krein parameters, antipodality, tightness."""

import dataclasses
import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from conftest import (
    TUTTE_12_CAGE_LCF,
    classes_from,
    distance_matrices,
    idempotent_profiles,
    induced_subgraph,
    lcf_graph,
    sympy_cosines,
    sympy_scalar,
)
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
    DrgParameters,
    EigenData,
    NotDistanceRegularError,
    _float_multiplicity,
    _p_row,
    antipodality,
    eigen_data,
    intersection_matrix,
    krein,
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
    # oracle: every p^h_ij from the int64 products A_i A_j, read at one pair of
    # each class h after checking that it is constant there
    for g in (johnson(8, 4), icosahedron(), halved_cube(6), hamming(3, 3), chang(1)):
        params = verify_drg(g)
        dd = distances(g)
        A = distance_matrices(dd)
        D = dd.D
        p = np.zeros((D + 1, D + 1, D + 1), dtype=np.int64)
        for i, j in itertools.product(range(D + 1), repeat=2):
            prod = A[i] @ A[j]
            for h in range(D + 1):
                values = set(prod[dd.dist == h].tolist())
                assert len(values) == 1
                p[h, i, j] = values.pop()
        for h, i in itertools.product(range(D + 1), repeat=2):
            assert p[h, i].sum() == params.k_i[i]
        assert tuple(p[0, range(D + 1), range(D + 1)]) == params.k_i
        assert params.k == p[0, 1, 1]
        assert params.a == tuple(p[h, 1, h] for h in range(D + 1))
        assert params.b == tuple(p[h, 1, h + 1] for h in range(D))
        assert params.c == tuple(p[h, 1, h - 1] for h in range(1, D + 1))


def test_eigen_data_j82():
    g = johnson(8, 2)
    params = verify_drg(g)
    ed = eigen_data(params)
    assert [str(t) for t in ed.theta] == ["12", "4", "-2"]
    assert ed.mult == (1, 7, 20)


def test_eigen_data_j84():
    g = johnson(8, 4)
    ed = eigen_data(verify_drg(g))
    assert [str(t) for t in ed.theta] == ["16", "8", "2", "-2", "-4"]
    assert ed.mult == (1, 7, 20, 28, 14)


def test_eigen_data_icosahedron():
    g = icosahedron()
    ed = eigen_data(verify_drg(g))
    assert [str(t) for t in ed.theta] == ["5", "√5", "-1", "-√5"]
    assert ed.mult == (1, 3, 5, 3)


def test_eigen_data_float_fallback_cycles():
    # C7 and C9 need a cubic field: float eigenvalues, multiplicities still exact
    for n in (7, 9):
        adj = np.zeros((n, n), dtype=int)
        for i in range(n):
            adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1
        g = Graph(adj)
        ed = eigen_data(verify_drg(g))
        assert not ed.exact
        assert ed.mult == (1,) + (2,) * (n // 2)
        expect = sorted((2 * np.cos(2 * np.pi * j / n) for j in range(n // 2 + 1)), reverse=True)
        assert np.allclose(ed.theta, expect)


_sym = sympy_scalar


def _is_zero(M) -> bool:
    return M.applyfunc(sympy.expand).is_zero_matrix


def test_idempotent_identities():
    # sympy oracle: E_i = sum_h prof[h][i] A_h must be the primitive idempotents
    # of A, with rank E_i = m_i (rational on Shrikhande, sqrt5 on the icosahedron)
    for g in (shrikhande(), icosahedron()):
        params = verify_drg(g)
        ed = eigen_data(params)
        prof = idempotent_profiles(ed, params)
        n, D = g.n, params.D
        A = [sympy.Matrix(a.tolist()) for a in distance_matrices(distances(g))]
        E = [sum((prof[h][i] * A[h] for h in range(D + 1)), sympy.zeros(n))
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
    ed = eigen_data(params)
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
            xs, ys = np.nonzero(dd.dist == h)
            assert sympy.expand(E[int(xs[0]), int(ys[0])] - prof[h][i]) == 0


def test_multiplicities_reject_wrong_theta():
    for g in (shrikhande(), icosahedron(), johnson(8, 4)):
        params = verify_drg(g)
        ed = eigen_data(params)
        assert [_p_row(t, params)[1] for t in ed.theta] == list(ed.mult)
        assert [_float_multiplicity(float(t), params) for t in ed.theta] == list(ed.mult)
        with pytest.raises(ValueError):
            _p_row(ed.theta[1] + 1, params)
        with pytest.raises(ValueError, match="not an algebraic integer"):
            _p_row(ed.theta[1] / 3, params)
        with pytest.raises(ValueError):
            _float_multiplicity(float(ed.theta[1]) + 0.5, params)
    # every division is exact and Biggs' formula gives 8, but 0 is no eigenvalue
    with pytest.raises(ValueError, match="not an eigenvalue"):
        _p_row(S(0), verify_drg(shrikhande()))


@pytest.mark.parametrize("build", [shrikhande, icosahedron, lambda: johnson(8, 4),
                                   lambda: hamming(3, 2), lambda: halved_cube(8)],
                         ids=["Shrikhande", "icosahedron", "J(8,4)", "H(3,2)", "halved-8-cube"])
def test_p_rows_match_sympy_cosines(build):
    # v_l(theta) = (alpha_l + beta_l sqrt(d))/2 = k_l u_l(theta), u from sympy
    params = verify_drg(build())
    ed = eigen_data(params)
    for t, (d, alpha, beta) in zip(ed.theta, ed.rows):
        u = sympy_cosines(_sym(t), params)
        for k, uh, a, b in zip(params.k_i, u, alpha, beta):
            assert sympy.expand(k * uh - (a + b * sympy.sqrt(d)) / 2) == 0


def _krein_oracle(ed, params):
    """Test oracle, the elimination route: E_i o E_j = sum_h c_h E_h solved
    exactly over Q or Q(sqrt d) on the idempotent profiles; q^h_ij = n c_h.
    Returns q[h, i, j] and the Q-polynomial orderings of its zero pattern."""
    D, n = params.D, params.n
    prof = idempotent_profiles(ed, params)
    P = sympy.Matrix(D + 1, D + 1, lambda h, i: prof[h][i])
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


def _tutte_12_cage():
    return lcf_graph(TUTTE_12_CAGE_LCF, "Tutte 12-cage")


@pytest.mark.parametrize("build", [shrikhande, icosahedron, lambda: johnson(8, 4),
                                   lambda: johnson(7, 3), lambda: halved_cube(8),
                                   lambda: hamming(3, 3), lambda: chang(3), _tutte_12_cage],
                         ids=["Shrikhande", "icosahedron", "J(8,4)", "J(7,3)", "halved-8-cube",
                              "H(3,3)", "Chang-3", "Tutte-12-cage"])
def test_krein_matches_elimination_oracle(build):
    g = build()
    params = verify_drg(g)
    ed = eigen_data(params)
    kd = krein(ed, params)
    q, orderings = _krein_oracle(ed, params)
    for (h, i, j), value in q.items():
        assert (value != 0) == kd.nonzero[h][i][j], (g.label, h, i, j)
        assert value >= 0, (g.label, h, i, j, value)
    assert kd.qpoly_orderings == orderings


def test_tutte_12_cage_multiplicities_match_sympy():
    # eigenvalues in Q, Q(sqrt 2) and Q(sqrt 6); sympy: the roots of the
    # intersection matrix and Biggs' formula n / sum_h k_h u_h^2 on them
    params = verify_drg(_tutte_12_cage())
    assert params.intersection_array == "{3,2,2,2,2,2;1,1,1,1,1,3}"
    ed = eigen_data(params)
    roots = sympy.Matrix(intersection_matrix(params).tolist()).eigenvals()
    assert set(roots.values()) == {1}
    expected = {}
    for r in roots:
        u = sympy_cosines(r, params)
        expected[r] = sympy.nsimplify(sympy.radsimp(
            params.n / sympy.expand(sum(k * x * x for k, x in zip(params.k_i, u)))))
    got = {_sym(t): m for t, m in zip(ed.theta, ed.mult)}
    assert got == expected
    assert ed.mult == (1, 21, 27, 28, 27, 21, 1)
    assert krein(ed, params).qpoly_orderings == ()


@pytest.mark.parametrize("params, mult, message", [
    # SRG(28,9,0,4): q^2_22 = -4/9
    (DrgParameters(n=28, D=2, k=9, b=(9, 8), c=(1, 4), a=(0, 0, 5), k_i=(1, 9, 18)),
     (1, 21, 6), "q^2_{22} = -4/9"),
    # {8,7,2;1,4,4}, eigenvalues -1 +- sqrt 21: q^1_11 = -4/5 - 3/35 sqrt 21, and
    # q^1_13 has a positive rational part but is negative
    (DrgParameters(n=30, D=3, k=8, b=(8, 7, 2), c=(1, 4, 4), a=(0, 0, 2, 4), k_i=(1, 8, 14, 7)),
     (1, 4, 21, 4), "q^1_{11} = -4/5 - 3/35√21"),
], ids=["SRG(28,9,0,4)", "{8,7,2;1,4,4}"])
def test_krein_condition_rejects_infeasible_arrays(params, mult, message):
    # integral multiplicities, but a negative Krein parameter
    ed = eigen_data(params)
    assert ed.mult == mult
    with pytest.raises(ValueError, match=re.escape(f"negative Krein parameter {message}")):
        krein(ed, params)


def test_krein_srg_natural_ordering():
    g = shrikhande()
    params = verify_drg(g)
    kd = krein(eigen_data(params), params)
    assert (0, 1, 2) in kd.qpoly_orderings


def test_krein_icosahedron_dual_bipartite():
    g = icosahedron()
    params = verify_drg(g)
    kd = krein(eigen_data(params), params)
    assert (0, 1, 2, 3) in kd.qpoly_orderings
    # q^i_{1,i} = 0 for all i in the natural ordering
    for i in range(4):
        assert not kd.nonzero[i][1][i]


def test_krein_j84_has_ordering():
    g = johnson(8, 4)
    params = verify_drg(g)
    kd = krein(eigen_data(params), params)
    assert len(kd.qpoly_orderings) >= 1
    assert (0, 1, 2, 3, 4) in kd.qpoly_orderings


def test_antipodality():
    g = icosahedron()
    dd = distances(g)
    amap = antipodality(dd)
    assert amap is not None
    assert all(amap[amap[x]] == x and dd.dist[x, amap[x]] == dd.D for x in range(12))
    j84 = johnson(8, 4)
    amap = antipodality(distances(j84))
    assert amap is not None and len(amap) == 70
    assert antipodality(distances(johnson(8, 2))) is None


def test_tightness_icosahedron():
    g = icosahedron()
    params = verify_drg(g)
    t = tightness(params, eigen_data(params))
    assert t.is_tight and not t.bipartite
    assert t.lhs == S(Fraction(-20, 9)) and t.rhs == S(Fraction(-20, 9))
    assert t.b_plus == S(Fraction(-1, 2), Fraction(1, 2), 5)
    assert t.b_minus == S(Fraction(-1, 2), Fraction(-1, 2), 5)


def test_tightness_j84():
    g = johnson(8, 4)
    params = verify_drg(g)
    t = tightness(params, eigen_data(params))
    assert t.is_tight
    assert t.lhs == S(Fraction(-864, 49)) and t.rhs == S(Fraction(-864, 49))
    assert t.b_plus == S(2) and t.b_minus == S(-2)


def test_tightness_names_both_fields_of_theta_1_and_theta_d():
    # hand-built: theta_1 in Q(sqrt 6), theta_D in Q(sqrt 2), not bipartite
    params = verify_drg(icosahedron())
    ed = dataclasses.replace(eigen_data(params), theta=(S(5), S(0, 1, 6), S(-1), S(0, -1, 2)))
    with pytest.raises(ValueError) as e:
        tightness(params, ed)
    text = str(e.value)
    assert "Q(√6)" in text and "Q(√2)" in text and "\n" not in text
    assert "cannot mix" not in text


def test_tightness_bipartite_undefined():
    g = hamming(3, 2)
    params = verify_drg(g)
    t = tightness(params, eigen_data(params))
    assert t.bipartite and not t.is_tight
    assert t.b_plus is None


def test_intersection_matrix_srg_shape():
    params = verify_drg(johnson(8, 2))
    M = intersection_matrix(params)
    assert M.tolist() == [[0, 12, 0], [1, 6, 5], [0, 4, 8]]


def test_tight_local_graph_characterization():
    # tight => local graphs are connected SRGs with eigenvalues a_1, b+, b-
    from drgkit.spectra import subconstituent_spectrum

    for g in (icosahedron(), johnson(8, 4)):
        params = verify_drg(g)
        ed = eigen_data(params)
        t = tightness(params, ed)
        assert t.is_tight
        dd = distances(g)
        local = induced_subgraph(g, classes_from(dd, 0, 1))
        assert local.connected
        spec = subconstituent_spectrum(g, 0, 1, dd)
        values = [v for v, _ in spec.pairs]
        assert values[0] == S(params.a[1])
        assert set(values[1:]) == {t.b_plus, t.b_minus}
