"""Module classification: SRG, Taylor, AT4 routes plus the Wedderburn bridge."""

from fractions import Fraction

import numpy as np
import pytest
import sympy

from drgkit import tmodules
from drgkit.context import GraphContext
from drgkit.exactla import AlgebraicScalar
from drgkit.families import hamming, halved_cube, icosahedron, johnson, shrikhande
from drgkit.spectra import Spectrum, SrgParams, subconstituent_spectrum
from drgkit.terwilliger import terwilliger_dimension
from drgkit.tmodules import (
    DimensionSequence,
    decompose,
    dimension_sequence,
    endpoint1_module_data,
    srg_dim_formula,
    wedderburn_dim,
)
from drgkit.graph_core import distances
from drgkit.scheme import (
    at4_intersection_array,
    at4_parameters,
    taylor_parameters,
    verify_drg,
)


def S(a, b=0, d=0):
    return AlgebraicScalar(Fraction(a), Fraction(b), d)


def by_class(md):
    return {(d.endpoint, d.dim, str(d.local_eigenvalue)): d for d in md.descriptors}


def test_decompose_srg_j82():
    g = johnson(8, 2)
    p = SrgParams(28, 12, 6, 4)
    md = decompose(g, 0)
    census = sorted((d.endpoint, d.dim, d.multiplicity) for d in md.descriptors)
    assert census == sorted([(0, 3, 1), (1, 2, 5), (1, 1, 1), (1, 1, 5), (2, 1, 9)])
    assert sum(d.multiplicity * d.dim for d in md.descriptors) == 28
    # dim-2 class for lambda = 0: action matrix [[0, 8], [1, 2]]
    c = by_class(md)[(1, 2, "0")]
    assert [str(a) for a in c.a_seq] == ["0", "2"]
    assert [str(x) for x in c.x_seq] == ["8"]
    assert wedderburn_dim(md) == 16


def test_decompose_srg_shrikhande_completeness():
    g = shrikhande()
    p = SrgParams(16, 6, 2, 2)
    md = decompose(g, 0)
    assert sum(d.multiplicity * d.dim for d in md.descriptors) == 16
    assert wedderburn_dim(md) == 20


def test_dimension_sequence_j82():
    g = johnson(8, 2)
    p = SrgParams(28, 12, 6, 4)
    md = decompose(g, 0)
    ds = dimension_sequence(md, p, subconstituent_spectrum(g, 0, 2))
    assert ds.tuple() == (2, 1, 1, 1)
    assert srg_dim_formula(ds) == 16


def test_dimension_sequence_mismatch_rejected():
    with pytest.raises(ValueError):
        DimensionSequence(1, 4, 1, 3)


def test_srg_dim_formula_cases():
    assert srg_dim_formula(DimensionSequence(1, 4, 1, 4)) == 27
    assert srg_dim_formula(DimensionSequence(0, 0, 0, 0)) == 9
    assert srg_dim_formula(DimensionSequence(2, 1, 1, 1)) == 16
    assert srg_dim_formula(DimensionSequence(1, 3, 1, 3)) == 23
    assert srg_dim_formula(DimensionSequence(1, 6, 1, 6)) == 35


def test_taylor_parameters_shape():
    assert taylor_parameters(verify_drg(icosahedron())) == (5, 2)
    assert taylor_parameters(verify_drg(johnson(6, 3))) == (9, 4)
    assert taylor_parameters(verify_drg(johnson(8, 2))) is None


def test_decompose_taylor_icosahedron():
    g = icosahedron()
    md = decompose(g, 0)
    sigma = S(Fraction(-1, 2), Fraction(1, 2), 5)
    tau = S(Fraction(-1, 2), Fraction(-1, 2), 5)
    c = by_class(md)
    s_class = c[(1, 2, str(sigma))]
    assert s_class.multiplicity == 2 and s_class.dual_endpoint == 1
    # x_1(W) = (sigma - theta_1)^2 = (3 + sqrt5)/2
    assert s_class.x_seq[0] == S(Fraction(3, 2), Fraction(1, 2), 5)
    t_class = c[(1, 2, str(tau))]
    assert t_class.multiplicity == 2 and t_class.dual_endpoint == 2
    assert sum(d.multiplicity * d.dim for d in md.descriptors) == 12
    assert wedderburn_dim(md) == 24
    assert any("taylor-local-eigenvalue-identity" in f for f in md.flags)


def test_decompose_taylor_j63():
    g = johnson(6, 3)
    md = decompose(g, 0)
    assert sum(d.multiplicity * d.dim for d in md.descriptors) == 20
    assert wedderburn_dim(md) == 24
    mults = sorted(d.multiplicity for d in md.descriptors if d.endpoint == 1)
    assert mults == [4, 4]


def test_taylor_explicit_module_matches_formula():
    # the explicit eigenvector route reproduces the published module data on
    # J(6,3), whose local eigenvalues are integers
    ctx = GraphContext.of(johnson(6, 3))
    md = decompose(ctx, 0)
    for d in md.descriptors:
        if d.endpoint != 1:
            continue
        lam = d.local_eigenvalue.as_fraction()
        assert lam.denominator == 1
        a_seq, x_seq = endpoint1_module_data(ctx, 0, int(lam))
        assert a_seq == d.a_seq
        assert x_seq == d.x_seq


def test_at4_array_and_recognition():
    assert at4_intersection_array(2, 2) == ((16, 9, 4, 1), (1, 4, 9, 16))
    assert at4_intersection_array(4, 2) == ((28, 15, 6, 1), (1, 6, 15, 28))
    assert at4_parameters(verify_drg(johnson(8, 4))) == (2, 2)
    assert at4_parameters(verify_drg(icosahedron())) is None
    with pytest.raises(ValueError):
        at4_intersection_array(2, 3)  # q(p+q)/2 = 15/2 not integral


def test_decompose_at4_j84():
    g = johnson(8, 4)
    md = decompose(g, 0)
    c = by_class(md)
    w_p = c[(1, 3, "2")]
    assert w_p.multiplicity == 6  # m_(b+)
    assert [str(a) for a in w_p.a_seq] == ["2", "4", "2"]
    w_q = c[(1, 3, "-2")]
    assert w_q.multiplicity == 9  # m_(b-)
    assert [str(a) for a in w_q.a_seq] == ["-2", "0", "-2"]
    assert sum(d.multiplicity * d.dim for d in md.descriptors) == 70
    ep2 = sorted((str(d.local_eigenvalue), d.multiplicity)
                 for d in md.descriptors if d.endpoint == 2)
    assert ep2 == [("-2", 12), ("-4", 4), ("2", 4)]
    assert wedderburn_dim(md) == 46


@pytest.mark.parametrize("pairs", [
    # no copy of a_2 = 8 (which is also theta_1) left for the primary module
    ((4, 6), (2, 5), (0, 9), (-2, 12), (-4, 4)),
    # one 4 too few for the m_b+ = 6 endpoint-1 images with a_1(W) = 4
    ((8, 1), (4, 5), (2, 5), (0, 9), (-2, 12), (-4, 4)),
    # an eigenvalue 3 left over, outside {theta_1..theta_4} = {8, 2, -2, -4}
    ((8, 1), (4, 6), (3, 1), (2, 3), (0, 9), (-2, 12), (-4, 4)),
])
def test_decompose_at4_rejects_inconsistent_second_subconstituent(pairs):
    ctx = GraphContext.of(johnson(8, 4))
    assert str(ctx.subconstituent_spectrum(0, 2)) == "{8^1, 4^6, 2^4, 0^9, -2^12, -4^4}"
    ctx._spectra[0, 2] = Spectrum.from_pairs(pairs)
    with pytest.raises(ValueError, match="not an AT4 input"):
        decompose(ctx, 0)


def test_at4_endpoint1_explicit_data_consistency():
    g = johnson(8, 4)
    md = decompose(g, 0)
    for d in md.descriptors:
        if d.endpoint == 1:
            # palindromic and summing to theta_t + theta_(t+1) + theta_(t+2)
            assert d.a_seq[0] == d.a_seq[2]
            total = d.a_seq[0] + d.a_seq[1] + d.a_seq[2]
            theta = [S(16), S(8), S(2), S(-2), S(-4)]
            t = d.dual_endpoint
            assert total == theta[t] + theta[t + 1] + theta[t + 2]


def _endpoint1_oracle(g, x, lam: int):
    """(a_seq, x_seq) from the first sympy nullspace vector of B_1 - lam*I,
    walked w_{i+1} = E*_{i+2} A w_i in Fractions until it vanishes."""
    dd = distances(g)
    cls1 = dd.classes_from(x, 1)
    B1 = sympy.Matrix(g.adjacency[np.ix_(cls1, cls1)].astype(int).tolist())
    v = (B1 - lam * sympy.eye(len(cls1))).nullspace()[0]
    w = np.array([Fraction(0)] * g.n, dtype=object)
    w[cls1] = [Fraction(int(c.p), int(c.q)) for c in v]
    A = g.adjacency.astype(int).astype(object)
    ws, a_seq, x_seq = [w], [], []
    while True:
        Aw = A.dot(ws[-1])
        a_seq.append(Fraction(Aw.dot(ws[-1])) / ws[-1].dot(ws[-1]))
        if len(ws) > 1:
            x_seq.append(Fraction(Aw.dot(ws[-2])) / ws[-2].dot(ws[-2]))
        nxt = np.where(dd.dist[x] == len(ws) + 1, Aw, Fraction(0))
        if not any(nxt):
            return tuple(a_seq), tuple(x_seq)
        ws.append(nxt)


@pytest.mark.parametrize("graph, lams, vertices", [
    (johnson(8, 4), (2, -2), (0, 9, 33, 69)),
    (halved_cube(8), (4, -2), (0, 101)),
], ids=["J(8,4)", "halved 8-cube"])
def test_endpoint1_module_data_matches_nullspace_oracle(graph, lams, vertices):
    ctx = GraphContext.of(graph)
    for x in vertices:
        for lam in lams:
            a_seq, x_seq = endpoint1_module_data(ctx, x, lam)
            oa, ox = _endpoint1_oracle(graph, x, lam)
            assert a_seq == tuple(S(a) for a in oa) and x_seq == tuple(S(v) for v in ox)


def test_endpoint1_module_data_rejects_non_eigenvalues():
    ctx = GraphContext.of(johnson(8, 4))  # local spectrum {6^1, 2^6, -2^9}
    for lam in (3, 0, 6):  # not local eigenvalues; 6 has only all-ones
        with pytest.raises(ValueError):
            endpoint1_module_data(ctx, 0, lam)


def test_endpoint1_module_data_rejects_a_module_that_is_not_thin(monkeypatch):
    # a vector orthogonal to all-ones that is not a B_1-eigenvector: B_1 v is
    # not a multiple of v, so A w_0 leaves span(w_0, w_1) on subconstituent 1
    ctx = GraphContext.of(johnson(8, 4))
    cls1 = ctx.dd.classes_from(0, 1)
    B1 = ctx.graph.adjacency[np.ix_(cls1, cls1)].astype(np.int64)
    v = np.zeros(len(cls1), dtype=np.int64)
    v[0], v[1] = 1, -1
    assert (B1 @ v).any() and np.linalg.matrix_rank(np.stack([B1 @ v, v])) == 2
    monkeypatch.setattr(tmodules, "_local_eigenvector", lambda ctx, x, lam: v)
    with pytest.raises(ValueError, match="not thin"):
        endpoint1_module_data(ctx, 0, 2)


def test_wedderburn_examples():
    g = icosahedron()
    assert wedderburn_dim(decompose(g, 0)) == 24
    g = johnson(8, 2)
    assert wedderburn_dim(decompose(g, 0)) == 16


def test_decompose_is_none_on_the_generic_route():
    ctx = GraphContext.of(hamming(3, 3))
    assert ctx.route is None
    assert decompose(ctx, 0) is None
    assert ctx._spectra == {} and ctx._dims == {}


def test_decompose_at4_halved_cube():
    g = halved_cube(8)
    md = decompose(g, 0)
    c = by_class(md)
    assert c[(1, 3, "4")].multiplicity == 7
    assert c[(1, 3, "-2")].multiplicity == 20
    assert [str(a) for a in c[(1, 3, "4")].a_seq] == ["4", "8", "4"]
    assert [str(a) for a in c[(1, 3, "-2")].a_seq] == ["-2", "2", "-2"]
    ep2 = sorted((str(d.local_eigenvalue), d.multiplicity)
                 for d in md.descriptors if d.endpoint == 2)
    assert ep2 == [("-2", 28), ("-4", 14)]
    assert wedderburn_dim(md) == 45
    assert terwilliger_dimension(g, 0) == 45


def test_cross_oracle_wedderburn_vs_closure_small():
    for g in (shrikhande(), icosahedron()):
        ctx = GraphContext.of(g)
        for x in (0, g.n // 2):
            assert wedderburn_dim(decompose(ctx, x)) == terwilliger_dimension(g, x, ctx.dd)


def test_srg_class_count_matches_dimension_sequence(srg_corpus=None):
    from drgkit.families import chang

    g = chang(2)
    p = SrgParams(28, 12, 6, 4)
    ctx = GraphContext.of(g)
    for x in (0, 5):
        md = decompose(ctx, x)
        ds = dimension_sequence(md, p, ctx.subconstituent_spectrum(x, 2))
        non_primary = sum(1 for d in md.descriptors if d.endpoint > 0)
        assert non_primary == ds.l1 + ds.l2 + ds.l1p


def test_cross_oracle_petersen():
    from drgkit.families import triangular_complement

    pet = triangular_complement(5)  # the Petersen graph
    ctx = GraphContext.of(pet)
    p = ctx.route[1]
    assert p.tuple() == (10, 3, 0, 1)
    for x in range(pet.n):
        md = decompose(ctx, x)
        assert wedderburn_dim(md) == terwilliger_dimension(pet, x, ctx.dd) == 15
