"""Reproduction harness for the published numeric tables.

Each reproduce_* function recomputes a table from scratch and compares it
cell by cell against the expected values, returning (ok, lines).  Expected
values are the published ones except where an entry is a verified erratum;
those carry both the published and the corrected value, the comparison runs
against the corrected value, and the output says so explicitly.

Known erratum (chang table): for the Seidel switch of J(8,2) over a triangle
plus a pentagon, the published table assigns the 15 'cross' pairs the same
local spectrum as the 24-vertex orbit of the octagon switch (entries with
sqrt(2), sqrt(3); dim 35).  Exact computation shows those 15 vertices have
the same records as the 3 triangle pairs: local spectrum
{6, 3, ((1+sqrt5)/2)^2, ((1-sqrt5)/2)^2, -1, (-2)^5} and dim 27.  The
grouping by identical records therefore has two groups (18 + 10), not three.
"""

from __future__ import annotations

from fractions import Fraction

from .context import GraphContext
from .exactla import AlgebraicScalar
from .families import (
    chang,
    chang_switching_set,
    complete_bipartite,
    halved_cube,
    icosahedron,
    johnson,
    rook_grid,
    shrikhande,
    triangular_complement,
)
from .graph_core import Graph
from .pvt import check_pvt, gq_dim, t_isomorphic_srg
from .scheme import tightness
from .spectra import Spectrum, second_subconstituent_derived
from .tmodules import decompose, dimension_sequence, srg_dim_formula, wedderburn_dim

__all__ = ["TABLES", "reproduce_table"]


def _sc(a, b=0, d=0) -> AlgebraicScalar:
    return AlgebraicScalar(Fraction(a), Fraction(b), d)


def _spec(*pairs) -> Spectrum:
    return Spectrum.from_pairs([(v, m) for v, m in pairs])


def _row(lines, ok, text):
    lines.append(("  ok   " if ok else "  FAIL ") + text)
    return ok


def _record_groups(g: Graph) -> dict:
    """Group vertices by (local spectrum, dim T); returns {key: sorted verts}."""
    ctx = GraphContext.of(g)
    groups: dict = {}
    for x in range(g.n):
        spec = ctx.subconstituent_spectrum(x, 1, allow_float=False)
        groups.setdefault((spec, ctx.terwilliger_dimension(x)), []).append(x)
    return groups


# ---------------------------------------------------------------------------


def reproduce_shrikhande():
    """dim T(x) = 20 on the Shrikhande graph and 15 on the 4x4 grid, at every
    vertex, via both the algebra closure and the Wedderburn sum."""
    lines = ["table: cospectral SRG(16,6,2,2) pair"]
    ok = True
    expected = [
        (shrikhande(), _spec((_sc(2), 1), (_sc(1), 2), (_sc(-1), 2), (_sc(-2), 1)), 20),
        (rook_grid(4), _spec((_sc(2), 2), (_sc(-1), 4)), 15),
    ]
    ctxs = []
    for g, local_exp, dim_exp in expected:
        ctx = GraphContext.of(g)
        ctxs.append(ctx)
        dims = set()
        weds = set()
        locals_ok = True
        for x in range(g.n):
            spec = ctx.subconstituent_spectrum(x, 1)
            locals_ok &= spec == local_exp
            dims.add(ctx.terwilliger_dimension(x))
            weds.add(wedderburn_dim(decompose(ctx, x)))
        ok &= _row(lines, locals_ok, f"{g.label}: local spectrum {local_exp} at all vertices")
        ok &= _row(lines, dims == {dim_exp},
                   f"{g.label}: closure dim {sorted(dims)} == {dim_exp} at all vertices")
        ok &= _row(lines, weds == {dim_exp},
                   f"{g.label}: Wedderburn dim {sorted(weds)} == {dim_exp}")
    r = t_isomorphic_srg(*ctxs)
    ok &= _row(lines, not r.isomorphic, "pair is not T-isomorphic")
    return ok, lines


def _chang_expected():
    """(graph label, rows); each row: (orbit size, spectrum, dim, note)."""
    s5, s3, s2, s13 = 5, 3, 2, 13
    half = Fraction(1, 2)
    phi_row = _spec((_sc(6), 1), (_sc(3), 1), (_sc(half, half, s5), 2),
                    (_sc(half, -half, s5), 2), (_sc(-1), 1), (_sc(-2), 5))
    sqrt23_row = _spec((_sc(6), 1), (_sc(1, 1, s3), 1), (_sc(2), 1), (_sc(0, 1, s2), 1),
                       (_sc(0), 1), (_sc(1, -1, s3), 1), (_sc(0, -1, s2), 1), (_sc(-2), 5))
    return [
        ("J(8,2)", johnson(8, 2), [
            (28, _spec((_sc(6), 1), (_sc(4), 1), (_sc(0), 5), (_sc(-2), 5)), 16, ""),
        ]),
        ("Chang-1", chang(1), [
            (4, _spec((_sc(6), 1), (_sc(2), 3), (_sc(0), 2), (_sc(-2), 6)), 20, ""),
            (24, _spec((_sc(6), 1), (_sc(1, 1, s5), 1), (_sc(2), 1), (_sc(0), 3),
                       (_sc(1, -1, s5), 1), (_sc(-2), 5)), 27, ""),
        ]),
        ("Chang-2", chang(2), [
            (4, _spec((_sc(6), 1), (_sc(1, 1, s3), 2), (_sc(0), 2), (_sc(1, -1, s3), 2),
                      (_sc(-2), 5)), 23, ""),
            (24, sqrt23_row, 35, ""),
        ]),
        ("Chang-3", chang(3), [
            (18, phi_row, 27,
             "erratum: published as two orbits (3 + 15) with the 15-vertex row "
             "copied from the octagon switch (dim 35); exact computation gives "
             "all 18 vertices this record"),
            (10, _spec((_sc(6), 1), (_sc(half, half, s13), 2), (_sc(1), 2),
                       (_sc(half, -half, s13), 2), (_sc(-2), 5)), 23, ""),
        ]),
    ]


def reproduce_chang():
    """Per-orbit local spectra and Terwilliger dimensions for J(8,2) and the
    three switched graphs; orbits inferred by grouping identical records."""
    lines = ["table: SRG(28,12,6,4) family (J(8,2) and the three Seidel switches)"]
    ok = True
    groups_of = {}
    for label, g, rows in _chang_expected():
        groups = groups_of[label] = _record_groups(g)
        got = sorted(((len(v), spec, dim) for (spec, dim), v in groups.items()),
                     key=lambda t: t[0])
        want = sorted(((size, spec, dim) for size, spec, dim, _ in rows),
                      key=lambda t: t[0])
        match = got == want
        for size, spec, dim, note in rows:
            suffix = f"   [{note}]" if note else ""
            _row(lines, match, f"{label}: {size} vertices, Spec(local) = {spec}, "
                               f"dim T = {dim}{suffix}")
        if not match:
            for size, spec, dim in got:
                lines.append(f"        computed: {size} vertices, {spec}, dim {dim}")
            ok = False
    # the merged 18-vertex group of Chang-3 is the triangle plus the cross pairs
    big = next(sorted(v) for v in groups_of["Chang-3"].values() if len(v) == 18)
    triangle = sorted(chang_switching_set(3)[:3])
    within5 = [i for i in range(28) if i not in big]
    ok &= _row(lines, set(triangle) <= set(big),
               "Chang-3: the triangle pairs lie in the 18-vertex record group")
    ok &= _row(lines, len(within5) == 10,
               "Chang-3: complement of the 18-vertex group has the 10 pentagon-side pairs")
    return ok, lines


def reproduce_gq():
    """Closure dimensions of constructible generalized-quadrangle point graphs
    against the four-case dimension formula."""
    lines = ["table: generalized quadrangle point graphs"]
    ok = True
    cases = [
        (1, 1, complete_bipartite(2)),
        (1, 2, complete_bipartite(3)),
        (2, 1, rook_grid(3)),
        (2, 2, triangular_complement(6)),
    ]
    for s, t, g in cases:
        expect = gq_dim(s, t)
        ctx = GraphContext.of(g)
        dims = {ctx.terwilliger_dimension(x) for x in range(g.n)}
        weds = {wedderburn_dim(decompose(ctx, x)) for x in range(g.n)}
        ok &= _row(lines, dims == {expect} and weds == {expect},
                   f"GQ({s},{t}) via {g.label}: dim T = {sorted(dims)} "
                   f"(formula {expect}, Wedderburn {sorted(weds)})")
        verdict = check_pvt(ctx)
        ok &= _row(lines, verdict.verdict == "pvt",
                   f"GQ({s},{t}): pseudo-vertex-transitive ({verdict.verdict})")
    return ok, lines


def reproduce_taylor():
    """dim T(x) = 24 at every vertex of the two Taylor graphs in the corpus,
    with the predicted endpoint-1 multiplicities."""
    lines = ["table: Taylor graphs"]
    ok = True
    for g, msig in ((icosahedron(), 2), (johnson(6, 3), 4)):
        ctx = GraphContext.of(g)
        dims = set()
        mults = set()
        for x in range(g.n):
            md = decompose(ctx, x)
            dims.add(wedderburn_dim(md))
            dims.add(ctx.terwilliger_dimension(x))
            eps1 = tuple(sorted(d.multiplicity for d in md.descriptors if d.endpoint == 1))
            mults.add(eps1)
        ok &= _row(lines, dims == {24},
                   f"{g.label}: dim T = {sorted(dims)} == 24 at every vertex "
                   "(closure and Wedderburn)")
        ok &= _row(lines, mults == {(msig, msig)},
                   f"{g.label}: endpoint-1 multiplicities m_sigma = m_tau = {msig}")
        verdict = check_pvt(ctx)
        ok &= _row(lines, verdict.verdict == "pvt" and verdict.method == "taylor_theorem",
                   f"{g.label}: pvt by the Taylor route ({verdict.verdict})")
    return ok, lines


def _at4_suite(lines, g, p, q, expect):
    ok = True
    ctx = GraphContext.of(g)
    t = tightness(ctx.params, ctx.eigen)
    ok &= _row(lines, t.is_tight, f"{g.label}: tight (fundamental bound holds with equality)")
    local = ctx.subconstituent_spectrum(0, 1)
    ok &= _row(lines, local == expect["local"],
               f"{g.label}: local spectrum {expect['local']}")
    mb = tuple(local.multiplicity(v) for v in (AlgebraicScalar(p), AlgebraicScalar(-q)))
    ok &= _row(lines, mb == expect["m_b"],
               f"{g.label}: local multiplicities (m_b+, m_b-) = {mb} == {expect['m_b']}")
    d2 = ctx.subconstituent_spectrum(0, 2)
    ok &= _row(lines, len(d2.pairs) <= 7,
               f"{g.label}: second subconstituent has {len(d2.pairs)} <= 7 distinct eigenvalues")
    dims = set()
    a1s = set()
    ells = set()
    eta_ok = True
    thetas = set(ctx.eigen.theta[1:])
    for x in range(g.n):
        md = decompose(ctx, x)
        dims.add(wedderburn_dim(md))
        dims.add(ctx.terwilliger_dimension(x))
        a1 = tuple(str(d.a_seq[1]) for d in md.descriptors if d.endpoint == 1)
        a1s.add(a1)
        ep2 = [d for d in md.descriptors if d.endpoint == 2]
        ells.add(len(ep2))
        eta_ok &= all(d.local_eigenvalue in thetas for d in ep2)
    ell = expect["ell"]
    ok &= _row(lines, ells == {ell},
               f"{g.label}: number of endpoint-2 classes = {sorted(ells)} == {ell}")
    ok &= _row(lines, dims == {ell + 43},
               f"{g.label}: dim T = {sorted(dims)} == ell + 43 = {ell + 43} at every vertex "
               "(closure and Wedderburn)")
    ok &= _row(lines, a1s == {expect["a1"]},
               f"{g.label}: a_1(W) on endpoint-1 classes = {expect['a1']}")
    ok &= _row(lines, eta_ok,
               f"{g.label}: endpoint-2 eigenvalues lie in the nontrivial eigenvalue set")
    verdict = check_pvt(ctx)
    ok &= _row(lines, verdict.verdict == "pvt" and verdict.method == "at4_theorem",
               f"{g.label}: pvt by the tight-cover route ({verdict.verdict})")
    return ok


def reproduce_at4():
    """The diameter-4 tight cover suite on the 70-vertex J(8,4) and the
    128-vertex halved 8-cube."""
    lines = ["table: antipodal tight diameter-4 covers"]
    ok = _at4_suite(lines, johnson(8, 4), 2, 2, {
        "local": _spec((_sc(6), 1), (_sc(2), 6), (_sc(-2), 9)),
        "m_b": (6, 9),
        "a1": ("4", "0"),
        "ell": 3,
    })
    ok &= _at4_suite(lines, halved_cube(8), 4, 2, {
        "local": _spec((_sc(12), 1), (_sc(4), 7), (_sc(-2), 20)),
        "m_b": (7, 20),
        "a1": ("8", "2"),
        "ell": 2,
    })
    return ok, lines


def reproduce_j82():
    """J(8,2): local and second-subconstituent spectra, the derived spectrum,
    the module decomposition census, and dim T = 16."""
    lines = ["table: J(8,2) base case"]
    ok = True
    g = johnson(8, 2)
    ctx = GraphContext.of(g)
    _, p = ctx.route
    local = ctx.subconstituent_spectrum(0, 1)
    expect_local = _spec((_sc(6), 1), (_sc(4), 1), (_sc(0), 5), (_sc(-2), 5))
    ok &= _row(lines, local == expect_local, f"local spectrum {expect_local}")
    derived = second_subconstituent_derived(local, p)
    expect_d2 = _spec((_sc(8), 1), (_sc(2), 5), (_sc(-2), 9))
    ok &= _row(lines, derived == expect_d2,
               f"derived second-subconstituent spectrum {expect_d2}")
    direct = ctx.subconstituent_spectrum(0, 2)
    ok &= _row(lines, direct == derived, "derived == directly computed")
    md = decompose(ctx, 0)
    census = sorted((d.endpoint, d.dim, d.multiplicity) for d in md.descriptors)
    expect_census = sorted([(0, 3, 1), (1, 2, 5), (1, 1, 1), (1, 1, 5), (2, 1, 9)])
    ok &= _row(lines, census == expect_census,
               f"module census (endpoint, dim, multiplicity): {census}")
    ds = dimension_sequence(md, p, direct)
    ok &= _row(lines, ds.tuple() == (2, 1, 1, 1) and srg_dim_formula(ds) == 16,
               f"dimension sequence {ds.tuple()}, formula dim {srg_dim_formula(ds)}")
    dims = {ctx.terwilliger_dimension(x) for x in range(g.n)}
    ok &= _row(lines, dims == {16}, f"closure dim {sorted(dims)} == 16 at every vertex")
    return ok, lines


TABLES = {
    "shrikhande": reproduce_shrikhande,
    "chang": reproduce_chang,
    "gq": reproduce_gq,
    "taylor": reproduce_taylor,
    "at4": reproduce_at4,
    "j82": reproduce_j82,
}


def reproduce_table(name: str):
    if name not in TABLES:
        raise KeyError(f"unknown table {name!r}; choose from {sorted(TABLES)}")
    return TABLES[name]()
