"""Spectra: SRG closed forms, subconstituents, the derived second
subconstituent, duality, equality by exact key."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LATIN_SQUARE_6, classes_from, latin_square_graph, paley_graph
from drgkit.context import GraphContext
from drgkit.exactla import (
    AlgebraicScalar,
    certified_factors,
    charpoly_int,
    eigenvalues_from_charpoly,
    factor_roots,
)
from drgkit.families import chang, icosahedron, johnson, rook_grid, shrikhande
from drgkit.graph_core import Graph, distances
from drgkit.spectra import (
    FLOAT_REFUSED,
    InfeasibleSrgError,
    Spectrum,
    SrgParams,
    second_subconstituent_derived,
    spectrum_of_int_matrix,
    srg_spectrum,
    subconstituent_spectra,
    subconstituent_spectrum,
)


def S(a, b=0, d=0):
    return AlgebraicScalar(Fraction(a), Fraction(b), d)


def spec(*pairs):
    return Spectrum.from_pairs([(v, m) for v, m in pairs])


def test_srg_spectrum_j82():
    assert str(srg_spectrum(SrgParams(28, 12, 6, 4))) == "{12^1, 4^7, -2^20}"


def test_srg_spectrum_shrikhande_cross_check():
    s = srg_spectrum(SrgParams(16, 6, 2, 2))
    assert s.pairs == spec((S(6), 1), (S(2), 6), (S(-2), 9)).pairs
    direct = spectrum_of_int_matrix(np.asarray(shrikhande().adjacency, dtype=np.int64))
    assert direct.pairs == s.pairs


def test_srg_spectrum_k33():
    assert str(srg_spectrum(SrgParams(6, 3, 0, 3))) == "{3^1, 0^4, -3^1}"


def test_srg_infeasible_multiplicity():
    with pytest.raises(InfeasibleSrgError):
        SrgParams(10, 4, 1, 2)


def test_spectrum_invariants():
    s = srg_spectrum(SrgParams(28, 12, 6, 4))
    assert s.size == 28
    assert sum((v * m for v, m in s.pairs), S(0)) == S(0)
    values = [v for v, _ in s.pairs]
    assert all(values[i].compare(values[i + 1]) > 0 for i in range(len(values) - 1))


def test_subconstituent_j82():
    g = johnson(8, 2)
    dd = distances(g)
    assert str(subconstituent_spectrum(g, 0, 1, dd)) == "{6^1, 4^1, 0^5, -2^5}"
    assert str(subconstituent_spectrum(g, 0, 2, dd)) == "{8^1, 2^5, -2^9}"


def test_subconstituent_icosahedron_pentagon():
    s = subconstituent_spectrum(icosahedron(), 0, 1)
    expect = spec((S(2), 1), (S(Fraction(-1, 2), Fraction(1, 2), 5), 2),
                  (S(Fraction(-1, 2), Fraction(-1, 2), 5), 2))
    assert s.pairs == expect.pairs


def test_subconstituent_out_of_range():
    with pytest.raises(ValueError):
        subconstituent_spectrum(icosahedron(), 0, 4)
    for x in (-1, 12):  # a negative vertex would otherwise wrap round
        with pytest.raises(ValueError, match=f"vertex {x} out of range 0..11"):
            subconstituent_spectrum(icosahedron(), x, 1)


@pytest.mark.parametrize("v", [2.7, "2", True, np.float64(2.0), np.bool_(True)])
def test_non_integer_vertex_is_refused_not_truncated(v):
    g = icosahedron()
    with pytest.raises(ValueError, match=re.escape(f"vertex {v!r} is not an integer")):
        subconstituent_spectra(g, 1, None, [0, v])
    assert subconstituent_spectra(g, 1, None, []) == []
    assert subconstituent_spectra(g, 1, None, [np.int64(2)]) == subconstituent_spectra(g, 1, None, [2])


def test_class_stack_needs_equal_class_sizes():
    """One vertex's class is always one block; a stack of several needs the
    classes of one size, as in a distance-regular graph."""
    path = np.eye(4, k=1, dtype=np.int64) + np.eye(4, k=-1, dtype=np.int64)
    g = Graph(path)
    assert subconstituent_spectrum(g, 0, 1) == spec((S(0), 1))
    assert subconstituent_spectra(g, 1, vertices=[0, 3]) == [spec((S(0), 1))] * 2
    with pytest.raises(ValueError, match="distance-1 classes of different sizes"):
        subconstituent_spectra(g, 1)
    with pytest.raises(ValueError, match="empty distance class 3 from vertex 1"):
        subconstituent_spectra(g, 3, vertices=[0, 1])
    ico = icosahedron()
    assert subconstituent_spectra(ico, 2) == [subconstituent_spectrum(ico, x, 2)
                                             for x in range(12)]


def test_empty_class_stack_is_an_empty_list():
    assert subconstituent_spectra(shrikhande(), 1, None, []) == []


def test_derived_second_subconstituent_j82():
    p = SrgParams(28, 12, 6, 4)
    local = spec((S(6), 1), (S(4), 1), (S(-2), 5), (S(0), 5))
    derived = second_subconstituent_derived(local, p)
    assert derived.pairs == spec((S(8), 1), (S(-2), 9), (S(2), 5)).pairs


def test_derived_infeasible_local():
    # a fake local spectrum {a^1, lambda^(k-1)} forcing a negative multiplicity
    p = SrgParams(28, 12, 6, 4)
    bad = spec((S(6), 1), (S(Fraction(-6, 11)), 11))
    with pytest.raises((InfeasibleSrgError, ValueError)):
        second_subconstituent_derived(bad, p)


def test_derived_matches_direct_on_shrikhande():
    g = shrikhande()
    p = SrgParams(16, 6, 2, 2)
    dd = distances(g)
    for x in range(g.n):
        local = subconstituent_spectrum(g, x, 1, dd)
        assert (second_subconstituent_derived(local, p).pairs
                == subconstituent_spectrum(g, x, 2, dd).pairs)


def test_duality_j82(local_duality_check):
    g = johnson(8, 2)
    dd = distances(g)
    p = SrgParams(28, 12, 6, 4)
    s1 = subconstituent_spectrum(g, 0, 1, dd)
    s2 = subconstituent_spectrum(g, 0, 2, dd)
    assert local_duality_check(s1, s2, p)
    # break one multiplicity: 2^5 -> 2^4 plus a stray value
    broken = spec((S(8), 1), (S(-2), 9), (S(2), 4), (S(1), 1))
    assert not local_duality_check(s1, broken, p)


def test_duality_vacuous(local_duality_check):
    # 3x3 grid local graphs have only sigma/tau eigenvalues: no local values
    g = rook_grid(3)
    dd = distances(g)
    p = SrgParams(9, 4, 1, 2)
    s1 = subconstituent_spectrum(g, 0, 1, dd)
    s2 = subconstituent_spectrum(g, 0, 2, dd)
    assert local_duality_check(s1, s2, p)


def test_cospectral():
    sh = subconstituent_spectrum(shrikhande(), 0, 1)
    gr = subconstituent_spectrum(rook_grid(4), 0, 1)
    assert sh != gr
    assert sh == subconstituent_spectrum(shrikhande(), 5, 1)


def test_cospectral_chang_cross_graph():
    # the 24-vertex orbit of the octagon switch and the 18-vertex group of the
    # triangle-plus-pentagon switch of the other graphs:
    c2, c3 = chang(2), chang(3)
    dd2, dd3 = distances(c2), distances(c3)
    # Chang-2 vertex outside the diameters orbit vs Chang-3 pentagon-side pair
    s_c2 = subconstituent_spectrum(c2, 1, 1, dd2)
    groups3 = {}
    for x in range(28):
        groups3.setdefault(subconstituent_spectrum(c3, x, 1, dd3), []).append(x)
    # exact computation: no Chang-3 vertex shares Chang-2's 24-orbit spectrum
    assert s_c2 not in groups3
    # within Chang-3, the triangle pair and a cross pair are cospectral
    s_tri = subconstituent_spectrum(c3, 0, 1, dd3)
    s_cross = subconstituent_spectrum(c3, 6, 1, dd3)  # pair {0,4} 0-based
    assert s_tri == s_cross


def test_spectrum_of_float_fallback():
    # path P4 has eigenvalues +-(1+-sqrt5)/2 : still quadratic, stays exact
    p4 = np.zeros((4, 4), dtype=np.int64)
    for i in range(3):
        p4[i, i + 1] = p4[i + 1, i] = 1
    s = spectrum_of_int_matrix(p4)
    assert s.exact and len(s.pairs) == 4
    # a 7-cycle has eigenvalues 2cos(2 pi k / 7): cubic minimal polynomial
    c7 = np.zeros((7, 7), dtype=np.int64)
    for i in range(7):
        c7[i, (i + 1) % 7] = c7[(i + 1) % 7, i] = 1
    s = spectrum_of_int_matrix(c7)
    assert not s.exact
    assert s.size == 7


def test_srg_multiplicity_identities():
    for params in ((28, 12, 6, 4), (16, 6, 2, 2), (15, 6, 1, 3), (9, 4, 1, 2)):
        p = SrgParams(*params)
        assert 1 + p.m_sigma + p.m_tau == p.n
        total = AlgebraicScalar(p.k) + p.sigma * p.m_sigma + p.tau * p.m_tau
        assert total == S(0)


def _oracle(block):
    """The spectrum by charpoly_int and factoring, or None for a cubic field,
    rebuilt by from_pairs from its decoded eigenvalues."""
    key = eigenvalues_from_charpoly(charpoly_int(block))
    return None if key is None else Spectrum.from_pairs(factor_roots(key))


def test_certified_spectra_match_charpoly_oracle_on_fixtures(srg_corpus, ico, j84):
    graphs = [rec.graph for rec in srg_corpus.values()] + [ico, j84]
    blocks = 0
    for g in graphs:
        dd = distances(g)
        for x in range(g.n):
            for i in range(1, dd.D + 1):
                cls = classes_from(dd, x, i)
                block = g.adjacency[np.ix_(cls, cls)].astype(np.int64)
                assert certified_factors(block) is not None, (g.label, x, i)
                assert spectrum_of_int_matrix(block) == _oracle(block), (g.label, x, i)
                blocks += 1
    assert blocks == 2 * sum(rec.graph.n for rec in srg_corpus.values()) + 3 * 12 + 4 * 70


@st.composite
def _symmetric_01(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    bits = draw(st.lists(st.booleans(), min_size=n * (n + 1) // 2,
                         max_size=n * (n + 1) // 2))
    m = np.zeros((n, n), dtype=np.int64)
    m[np.triu_indices(n)] = bits
    return m | np.triu(m, 1).T


@given(_symmetric_01())
@settings(max_examples=150, deadline=None)
def test_certified_spectrum_matches_charpoly_oracle_on_random_matrices(m):
    # loops allowed; most of these need a cubic field, so the fallback and
    # float spectra run as often as certification
    spec = spectrum_of_int_matrix(m)
    oracle = _oracle(m)
    if oracle is None:
        assert certified_factors(m) is None
        assert not spec.exact and spec.size == len(m)
        assert all(isinstance(v, float) for v, _ in spec.pairs)
        floats = sorted((v for v, k in spec.pairs for _ in range(k)), reverse=True)
        assert np.allclose(floats, sorted(np.linalg.eigvalsh(m.astype(float)), reverse=True))
    else:
        assert spec == oracle


def test_from_pairs_merges_repeats_and_pairs_conjugates():
    phi = S(Fraction(1, 2), Fraction(1, 2), 5)
    psi = S(Fraction(1, 2), Fraction(-1, 2), 5)
    s = spec((S(2), 1), (phi, 1), (S(2), 2), (psi, 1), (S(0), 0))
    assert s.key == ((2, 3), (1, -1, 1))
    assert s.pairs == ((S(2), 3), (phi, 1), (psi, 1))
    assert spec((S(2), 3)) == spectrum_of_int_matrix(np.diag([2, 2, 2])) != s
    with pytest.raises(ValueError, match="conjugate"):
        spec((phi, 2), (psi, 1))


def test_latin_square_local_spectra_compare_exact_against_float():
    # 16 exact local spectra and 20 with a cubic factor; comparing the two
    # kinds is a key comparison, not a float one
    ctx = GraphContext.of(latin_square_graph(LATIN_SQUARE_6))
    specs = ctx.subconstituent_spectra(1)
    exact = [s for s in specs if s.exact]
    assert len(exact) == 16 and specs[0].exact
    assert all(s != specs[0] for s in specs if not s.exact)
    assert all(isinstance(v, float) for s in specs if not s.exact for v, _ in s.pairs)
    # the exact accessor answers from the same memo entries and refuses the floats
    for x, s in enumerate(specs):
        if s.exact:
            assert ctx.subconstituent_spectrum(x, 1) is s
        else:
            with pytest.raises(ValueError, match=FLOAT_REFUSED):
                ctx.subconstituent_spectrum(x, 1)
    assert len(ctx._spectra) == 36


def test_float_spectra_are_equal_across_contexts_by_characteristic_polynomial():
    # Paley(29) local graphs need a cubic field; x -> 3x + 1 relabels the
    # graph without being an automorphism, so its blocks come out of another
    # eigvalsh run
    g = paley_graph(29)
    s1 = subconstituent_spectrum(g, 0, 1)
    s2 = subconstituent_spectrum(paley_graph(29, [(3 * x + 1) % 29 for x in range(29)]), 0, 1)
    assert not s1.exact and s1 == s2 and hash(s1) == hash(s2)
    local = np.flatnonzero(g.adjacency[0])
    assert s1.key == tuple(charpoly_int(g.adjacency[np.ix_(local, local)].astype(np.int64)))
