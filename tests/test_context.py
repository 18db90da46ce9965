"""GraphContext: each per-graph result is computed once per command, and
nothing is remembered between commands."""

import sys

import pytest

import drgkit.exactla
import drgkit.graph_core
import drgkit.scheme
import drgkit.spectra
import drgkit.terwilliger
import drgkit.tmodules
from drgkit.analysis import analyze_graph
from drgkit.cli import main
from drgkit.context import GraphContext
from drgkit.families import chang, hamming, icosahedron, johnson, rook_grid, shrikhande
from drgkit.graph_core import save_graph
from drgkit.pvt import check_pvt, t_isomorphic_srg
from drgkit.spectra import FLOAT_REFUSED, SrgParams
from drgkit.tables import reproduce_chang
from drgkit.tmodules import decompose


def _spy(monkeypatch, module, name):
    """Record the arguments of every call of module.name, through whichever
    drgkit module binds it."""
    original = getattr(module, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "drgkit" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, spy)
    return calls


def _vertices(args) -> list:
    """The vertices of a recorded subconstituent_spectra(g, i, dd, vertices)
    call: all of g's when none are given."""
    return list(range(args[0].n)) if len(args) < 4 or args[3] is None else list(args[3])


def test_analyze_computes_each_result_once(monkeypatch):
    g = shrikhande()
    charpolys = _spy(monkeypatch, drgkit.exactla, "charpoly_int")
    factored = _spy(monkeypatch, drgkit.exactla, "eigenvalues_from_charpoly")
    decoded = _spy(monkeypatch, drgkit.exactla, "factor_roots")
    # every block is built in subconstituent_spectra, so its calls count each (x, i)
    spectra = _spy(monkeypatch, drgkit.spectra, "subconstituent_spectra")
    closures = _spy(monkeypatch, drgkit.terwilliger, "terwilliger_dimension")
    dists = _spy(monkeypatch, drgkit.graph_core, "distances")
    report = analyze_graph(g, list(range(g.n)))
    assert [v["dim_T"] for v in report["vertices"]] == [20] * g.n
    assert charpolys == factored == []  # every spectrum, the graph's too, is certified
    factor_keys = [args[0] for args in decoded]
    assert len(factor_keys) == len(set(factor_keys)) >= 2  # the local graphs
    keys = [(x, args[1]) for args in spectra for x in _vertices(args)]
    assert sorted(keys) == [(x, i) for x in range(g.n) for i in (1, 2)]
    assert len(spectra) == 2  # one stack per distance class
    assert sorted(args[1] for args in closures) == list(range(g.n))
    assert len(dists) == 1


def test_class_stack_fills_only_missing_vertices(monkeypatch):
    """A stack after a per-vertex spectrum builds the other vertices only,
    and both routes give the same spectra."""
    spectra = _spy(monkeypatch, drgkit.spectra, "subconstituent_spectra")
    ctx = GraphContext.of(chang(1))
    first = ctx.subconstituent_spectrum(3, 1)
    specs = ctx.subconstituent_spectra(1)
    assert specs[3] is first and len(specs) == 28
    assert [_vertices(args) for args in spectra] == [[3], [x for x in range(28) if x != 3]]
    assert ctx.subconstituent_spectra(1) == specs and len(spectra) == 2
    one_by_one = GraphContext.of(chang(1))
    assert specs == tuple(one_by_one.subconstituent_spectrum(x, 1) for x in range(28))
    assert len(set(specs)) == 2
    spectra.clear()  # a repeated vertex is stacked once and answered in place
    twice = ctx.subconstituent_spectra(2, [4, 1, 4])
    assert [_vertices(args) for args in spectra] == [[4, 1]] and twice[0] is twice[2]


def test_vertex_outside_the_graph_is_refused_and_not_memoized():
    g = chang(1)
    ctx = GraphContext.of(g)
    with pytest.raises(ValueError, match="vertex -1 out of range 0..27"):
        ctx.subconstituent_spectra(1, [-1])
    with pytest.raises(ValueError, match="vertex 28 out of range 0..27"):
        ctx.subconstituent_spectrum(g.n, 1)
    with pytest.raises(ValueError, match="vertex -28 out of range"):
        ctx.subconstituent_spectra(1, [0, -28])
    assert ctx._spectra == {}


def test_lone_missing_vertex_takes_the_one_vertex_helper(monkeypatch):
    one = _spy(monkeypatch, drgkit.spectra, "subconstituent_spectrum")
    ctx = GraphContext.of(chang(1))
    ctx.subconstituent_spectrum(3, 1)
    ctx.subconstituent_spectra(1, [3, 4])
    ctx.subconstituent_spectra(1, [5, 6])
    assert [args[1:3] for args in one] == [(3, 1), (4, 1)]


def test_report_on_some_vertices_stacks_each_class_once(monkeypatch):
    """A report on three vertices of Chang-1 asks for each distance class
    once: class 1 comes from the verdict's stack of every vertex, class 2 is
    one stack of exactly the three; the records are those of three
    one-vertex reports."""
    g = chang(1)
    spectra = _spy(monkeypatch, drgkit.spectra, "subconstituent_spectra")
    report = analyze_graph(g, [0, 5, 9])
    assert [(args[1], _vertices(args)) for args in spectra] == [
        (1, list(range(28))), (2, [0, 5, 9])]
    assert report["vertices"] == [analyze_graph(g, [x])["vertices"][0] for x in (0, 5, 9)]


def test_reproduce_chang_stacks_class_1_once_per_graph(monkeypatch):
    spectra = _spy(monkeypatch, drgkit.spectra, "subconstituent_spectra")
    ok, _ = reproduce_chang()
    assert ok
    assert [(args[0].n, args[1], _vertices(args)) for args in spectra] == [
        (28, 1, list(range(28)))] * 4


def test_srg_decomposition_is_built_once_per_local_spectrum(monkeypatch):
    built = _spy(monkeypatch, drgkit.tmodules, "decompose_srg")
    for g, distinct in ((shrikhande(), 1), (chang(1), 2), (chang(3), 2)):
        built.clear()
        ctx = GraphContext.of(g)
        mds = [decompose(ctx, x) for x in range(g.n)]
        assert len(built) == distinct == len(ctx.srg_modules), g.label
        for x in range(g.n):
            assert mds[x] is ctx.srg_modules[ctx.subconstituent_spectrum(x, 1)]
            # the memo answers what decompose_srg answers for x itself
            assert mds[x] == drgkit.tmodules.decompose_srg(ctx, x)


def test_consecutive_commands_share_no_memo(monkeypatch, tmp_path, capsys):
    path = tmp_path / "chang1.json"
    save_graph(chang(1), path)
    decoded = _spy(monkeypatch, drgkit.exactla, "factor_roots")
    counts = []
    for _ in range(2):
        assert main(["pvt", str(path)]) == 0
        counts.append(len(decoded))
        decoded.clear()
    assert counts[0] == counts[1] >= 2
    assert capsys.readouterr().out.count("verdict: not_pvt") == 2


def test_check_pvt_same_on_graph_and_context(srg_corpus):
    for name, rec in srg_corpus.items():
        assert check_pvt(rec.graph) == check_pvt(GraphContext.of(rec.graph)), name


def test_check_pvt_same_on_graph_and_context_beyond_diameter_2():
    for g in (icosahedron(), johnson(8, 4), hamming(3, 2)):
        assert check_pvt(g) == check_pvt(GraphContext.of(g)), g.label


def test_of_returns_the_given_context():
    ctx = GraphContext.of(icosahedron())
    assert GraphContext.of(ctx) is ctx


def test_float_spectrum_is_computed_once_and_refused_without_fallback(
        monkeypatch, float_local_spectra):
    spectra = _spy(monkeypatch, drgkit.spectra, "subconstituent_spectra")
    ctx = GraphContext.of(shrikhande())
    spec = ctx.subconstituent_spectrum(0, 1)
    assert not spec.exact and spec.size == 6
    with pytest.raises(ValueError, match=FLOAT_REFUSED):
        ctx.subconstituent_spectrum(0, 1, allow_float=False)
    assert ctx.subconstituent_spectrum(0, 1) is spec
    assert len(spectra) == 1


def test_route_is_decided_once_and_verdicts_never_compute_eigen(monkeypatch):
    eigen = _spy(monkeypatch, drgkit.scheme, "eigen_data")
    routes = []
    for g in (shrikhande(), icosahedron(), johnson(8, 4), hamming(3, 2)):
        ctx = GraphContext.of(g)
        check_pvt(ctx)
        assert ctx.route is ctx.route
        routes.append(ctx.route)
    t_isomorphic_srg(shrikhande(), rook_grid(4))
    assert eigen == []
    srg, *others = routes
    assert srg[0] == "srg" and srg[1].tuple() == (16, 6, 2, 2)
    assert others == [("taylor", (5, 2)), ("at4", (2, 2)), None]
    analyze_graph(icosahedron(), [0, 1])
    assert len(eigen) == 1
    ctx = GraphContext.of(icosahedron())
    assert ctx.eigen is ctx.eigen and len(eigen) == 2


def _spy_srg_params(monkeypatch):
    """Record every SrgParams construction: the one place that splits an SRG
    discriminant into its square root, sigma, tau and their multiplicities."""
    original = SrgParams.__post_init__
    calls = []

    def spy(self):
        calls.append(self.tuple())
        return original(self)

    monkeypatch.setattr(SrgParams, "__post_init__", spy)
    return calls


def test_srg_surds_are_evaluated_once_per_report(monkeypatch):
    surds = _spy_srg_params(monkeypatch)
    p = SrgParams(28, 12, 6, 4)
    assert len(surds) == 1
    for _ in range(3):
        assert (p.sigma, p.tau, p.m_sigma, p.m_tau) == (4, -2, 7, 20)
    assert len(surds) == 1
    counts = []
    for vertices in ([0], list(range(28))):
        surds.clear()
        analyze_graph(chang(2), vertices)
        counts.append(len(surds))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("g, vertices, count", [
    (icosahedron(), list(range(12)), 1),
    (johnson(6, 3), list(range(20)), 1),
    (johnson(8, 4), [0, 1, 2], None),
])
def test_taylor_and_at4_local_data_are_built_once_per_report(monkeypatch, g, vertices, count):
    """The local SrgParams and the 2*lambda check are graph-level: the whole
    sweep takes as many square roots as vertex 0.  The Taylor eigenvalues
    come from GraphContext.eigen, whose factor key is decoded without an
    SrgParams, so the one square root is the local SrgParams'."""
    surds = _spy_srg_params(monkeypatch)
    counts = []
    for vs in ([0], vertices):
        surds.clear()
        analyze_graph(g, vs)
        counts.append(len(surds))
    assert counts[0] == counts[1]
    if count is not None:
        assert counts[0] == count
