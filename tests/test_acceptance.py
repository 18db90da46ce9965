"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 2 carries a documented erratum: the published table for the
triangle-plus-pentagon Seidel switch of J(8,2) assigns its 15 'cross' pairs
the record of the octagon switch's 24-vertex orbit (a sqrt2/sqrt3 local
spectrum, dim 35).  Exact computation, confirmed by two independent
implementations and by the fact that all per-vertex Terwilliger data of a
strongly regular graph is a function of the local spectrum, shows those 15
vertices share the 3 triangle pairs' record (a (1 +- sqrt5)/2 spectrum,
dim 27).  The published-row assertion is kept verbatim as a strict xfail;
the verified corrected table is asserted as the passing test.
"""

import time
from fractions import Fraction

import pytest

from drgkit.context import GraphContext
from drgkit.exactla import AlgebraicScalar
from drgkit.families import icosahedron, johnson
from drgkit.scheme import eigen_data, tightness, verify_drg
from drgkit.spectra import (
    SrgParams,
    Spectrum,
    second_subconstituent_derived,
    subconstituent_spectrum,
)
from drgkit.tables import reproduce_table
from drgkit.terwilliger import terwilliger_dimension
from drgkit.tmodules import (
    decompose,
    srg_dim_formula,
    wedderburn_dim,
)


def S(a, b=0, d=0):
    return AlgebraicScalar(Fraction(a), Fraction(b), d)


def report(criterion, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status}{'  ' + extra if extra else ''}")
    assert ok, f"criterion {criterion} failed: {extra}"


# -- criterion 1 --------------------------------------------------------------


def test_criterion_1_shrikhande_grid_dims():
    t0 = time.time()
    ok, lines = reproduce_table("shrikhande")
    elapsed = time.time() - t0
    report("1 (Shrikhande 20 / grid 15, closure and Wedderburn)",
           ok and elapsed < 10, f"{elapsed:.1f}s")


# -- criterion 2 --------------------------------------------------------------


def _published_chang_dims(chang_corpus):
    """Record-group dims in published row order; groups inferred by identical
    records, smaller orbits first within each graph."""
    out = []
    for name in ("J(8,2)", "Chang-1", "Chang-2", "Chang-3"):
        rec = chang_corpus[name]
        groups = {}
        for v in rec.vertices:
            groups.setdefault((v.local.pairs, v.dim_t), 0)
            groups[(v.local.pairs, v.dim_t)] += 1
        rows = sorted(((size, dim) for (_, dim), size in groups.items()))
        out.extend(dim for _, dim in rows)
    return out


@pytest.mark.xfail(
    strict=True,
    reason="published table erratum: the triangle-plus-pentagon switch has two "
    "record groups (dims 27, 23), not three (27, 23, 35); its published "
    "15-vertex sqrt2/sqrt3 row duplicates the octagon switch's 24-vertex row "
    "and is refuted by exact computation",
)
def test_criterion_2_published_chang_dims_as_printed(chang_corpus):
    dims = _published_chang_dims(chang_corpus)
    assert dims == [16, 20, 27, 23, 35, 27, 23, 35]


def test_criterion_2_chang_table_verified(chang_corpus):
    t0 = time.time()
    ok, lines = reproduce_table("chang")
    harness_time = time.time() - t0
    dims = _published_chang_dims(chang_corpus)
    # verified values (groups ordered by size within each graph): all published
    # rows except the erratum row; the triangle-plus-pentagon switch has groups
    # (10 vertices, dim 23) and (18 vertices, dim 27)
    ok &= dims == [16, 20, 27, 23, 35, 23, 27]
    report("2 (Chang table, exact spectra and dims, erratum documented)",
           ok and harness_time < 120, f"harness {harness_time:.1f}s")


def test_criterion_2_chang_published_spectra_rows(chang_corpus):
    """Every published spectrum row except the erratum row appears verbatim."""
    half = Fraction(1, 2)
    rows = {
        "J(8,2)": [((28, 16), [(S(6), 1), (S(4), 1), (S(0), 5), (S(-2), 5)])],
        "Chang-1": [
            ((4, 20), [(S(6), 1), (S(2), 3), (S(0), 2), (S(-2), 6)]),
            ((24, 27), [(S(6), 1), (S(1, 1, 5), 1), (S(2), 1), (S(0), 3),
                        (S(1, -1, 5), 1), (S(-2), 5)]),
        ],
        "Chang-2": [
            ((4, 23), [(S(6), 1), (S(1, 1, 3), 2), (S(0), 2), (S(1, -1, 3), 2),
                       (S(-2), 5)]),
            ((24, 35), [(S(6), 1), (S(1, 1, 3), 1), (S(2), 1), (S(0, 1, 2), 1),
                        (S(0), 1), (S(1, -1, 3), 1), (S(0, -1, 2), 1), (S(-2), 5)]),
        ],
        "Chang-3": [
            ((18, 27), [(S(6), 1), (S(3), 1), (S(half, half, 5), 2),
                        (S(half, -half, 5), 2), (S(-1), 1), (S(-2), 5)]),
            ((10, 23), [(S(6), 1), (S(half, half, 13), 2), (S(1), 2),
                        (S(half, -half, 13), 2), (S(-2), 5)]),
        ],
    }
    ok = True
    for name, expected in rows.items():
        rec = chang_corpus[name]
        groups = {}
        for v in rec.vertices:
            groups.setdefault((v.local.pairs, v.dim_t), 0)
            groups[(v.local.pairs, v.dim_t)] += 1
        got = {(size, dim): pairs for (pairs, dim), size in groups.items()}
        for (size, dim), pairs in expected:
            spec = Spectrum.from_pairs(pairs)
            ok &= got.get((size, dim)) == spec.pairs
    report("2 (published per-orbit spectra, surds exact)", ok)


# -- criterion 3 --------------------------------------------------------------


def test_criterion_3_j82_derived_second_subconstituent():
    p = SrgParams(28, 12, 6, 4)
    local = Spectrum.from_pairs([(S(6), 1), (S(4), 1), (S(-2), 5), (S(0), 5)])
    derived = second_subconstituent_derived(local, p)
    expect = Spectrum.from_pairs([(S(8), 1), (S(-2), 9), (S(2), 5)])
    ok, lines = reproduce_table("j82")
    report("3 (J(8,2) derived second-subconstituent spectrum, j82 table)",
           ok and derived.pairs == expect.pairs)


# -- criteria 4 and 5: every vertex of every diameter-2 acceptance graph -------


def test_criterion_4_dimension_formula_everywhere(srg_corpus):
    ok = True
    for name, rec in srg_corpus.items():
        for v in rec.vertices:
            l1, l1p, l2, l2p = v.ds
            formula = srg_dim_formula(v.ds)
            ok &= v.dim_t == formula == l1 + l2 + 4 * l1p + 9 == l1 + l2 + 4 * l2p + 9
    report("4 (closure dim == l1+l2+4l1'+9 == l1+l2+4l2'+9 at every vertex)", ok)


def test_criterion_5_derived_vs_direct_and_duality(srg_corpus, local_duality_check):
    ok = True
    for name, rec in srg_corpus.items():
        p = rec.params
        for v in rec.vertices:
            derived = second_subconstituent_derived(v.local, p)
            ok &= derived.pairs == v.d2.pairs
            ok &= local_duality_check(v.local, v.d2, p)
    report("5 (derived == direct second subconstituent, duality with equal mults)", ok)


# -- criterion 6 --------------------------------------------------------------


def test_criterion_6_gq_dims():
    ok, lines = reproduce_table("gq")
    report("6 (GQ closure dims 10/11/15/16 match the formula)", ok)


# -- criterion 7 --------------------------------------------------------------


def test_criterion_7_taylor():
    ok, lines = reproduce_table("taylor")
    # sigma identity: sum form holds, the printed difference form does not
    theta = GraphContext.of(icosahedron()).eigen.theta
    sigma = S(Fraction(-1, 2), Fraction(1, 2), 5)
    half = S(Fraction(1, 2))
    sum_form = (theta[1] + theta[2]) * half
    diff_form = (theta[1] - theta[2]) * half
    ok &= sigma == sum_form and sigma != diff_form
    [md] = decompose(icosahedron(), [0])
    ok &= any("taylor-local-eigenvalue-identity" in f for f in md.flags)
    mults = sorted(d.multiplicity for d in md.descriptors if d.endpoint == 1)
    ok &= mults == [2, 2]
    report("7 (Taylor: dim 24, multiplicities, pvt, sigma identity flagged)", ok)


# -- criterion 8 --------------------------------------------------------------


@pytest.fixture(scope="module")
def at4_table():
    """The at4 table runs once; each cover's test reads its own nine rows."""
    t0 = time.time()
    ok, lines = reproduce_table("at4")
    return ok, lines, time.time() - t0


def _cover_rows(lines, label):
    rows = [line for line in lines if line[7:].startswith(label + ":")]
    return len(rows) == 9 and all(line.startswith("  ok   ") for line in rows)


def test_criterion_8_at4_j84(at4_table):
    ok, lines, elapsed = at4_table
    report("8 (AT4 J(8,4) suite: local SRG, m_b, a_1(W), ell+43, pvt)",
           ok and _cover_rows(lines, "J(8,4)") and elapsed < 300, f"{elapsed:.1f}s")


def test_criterion_8_at4_halved_cube_slow(at4_table):
    ok, lines, elapsed = at4_table
    report("8-slow (half-cube AT4 suite over all 128 vertices)",
           ok and _cover_rows(lines, "1/2 H(8,2)"), f"{elapsed:.0f}s")


# -- criterion 9 --------------------------------------------------------------


def test_criterion_9_cross_oracle(srg_corpus):
    ok = True
    count = 0
    for name, rec in srg_corpus.items():
        for v in rec.vertices:
            ok &= wedderburn_dim(v.decomposition) == v.dim_t
            count += 1
    # Taylor and AT4 instances
    # the full J(8,4) sweep already ran in criterion 8
    for g, vertices in ((icosahedron(), None), (johnson(6, 3), None),
                        (johnson(8, 4), range(0, 70, 7))):
        ctx = GraphContext.of(g)
        vertices = range(g.n) if vertices is None else vertices
        for x, md in zip(vertices, decompose(ctx, vertices)):
            ok &= wedderburn_dim(md) == terwilliger_dimension(g, x, ctx.dd)
            count += 1
    report("9 (Wedderburn dim == closure dim on every analyzed pair)", ok,
           f"{count} (graph, vertex) pairs")


# -- criterion 10 -------------------------------------------------------------


def test_criterion_10_tightness():
    ok = True
    g = icosahedron()
    params = verify_drg(g)
    t = tightness(params, eigen_data(params))
    ok &= t.is_tight and t.lhs == S(Fraction(-20, 9)) and t.rhs == S(Fraction(-20, 9))
    local = subconstituent_spectrum(g, 0, 1)
    sig = S(Fraction(-1, 2), Fraction(1, 2), 5)
    tau = S(Fraction(-1, 2), Fraction(-1, 2), 5)
    ok &= t.b_plus == sig and t.b_minus == tau
    ok &= {v for v, _ in local.pairs} == {S(2), sig, tau}

    g = johnson(8, 4)
    params = verify_drg(g)
    t = tightness(params, eigen_data(params))
    ok &= t.is_tight and t.lhs == S(Fraction(-864, 49)) and t.rhs == S(Fraction(-864, 49))
    srg_local = SrgParams(16, 6, 2, 2)
    ok &= t.b_plus == srg_local.sigma and t.b_minus == srg_local.tau
    report("10 (tightness equalities -20/9 and -864/49; b+- match local sigma/tau)", ok)
