"""GraphContext: each per-graph result is computed once per command, and
nothing is remembered between commands."""

import sys

import pytest

import drgkit.exactla
import drgkit.graph_core
import drgkit.scheme
import drgkit.spectra
import drgkit.terwilliger
from drgkit.analysis import analyze_graph
from drgkit.cli import main
from drgkit.context import GraphContext
from drgkit.families import chang, hamming, icosahedron, johnson, rook_grid, shrikhande
from drgkit.graph_core import save_graph
from drgkit.pvt import check_pvt, t_isomorphic_srg
from drgkit.spectra import FLOAT_REFUSED, SrgParams


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


def test_analyze_computes_each_result_once(monkeypatch):
    g = shrikhande()
    charpolys = _spy(monkeypatch, drgkit.exactla, "charpoly_int")
    factored = _spy(monkeypatch, drgkit.exactla, "eigenvalues_from_charpoly")
    decoded = _spy(monkeypatch, drgkit.exactla, "factor_roots")
    spectra = _spy(monkeypatch, drgkit.spectra, "subconstituent_spectrum")
    closures = _spy(monkeypatch, drgkit.terwilliger, "terwilliger_dimension")
    dists = _spy(monkeypatch, drgkit.graph_core, "distances")
    report = analyze_graph(g, list(range(g.n)))
    assert [v["dim_T"] for v in report["vertices"]] == [20] * g.n
    assert charpolys == factored == []  # every spectrum, the graph's too, is certified
    factor_keys = [args[0] for args in decoded]
    assert len(factor_keys) == len(set(factor_keys)) >= 2  # the local graphs
    keys = [(args[1], args[2]) for args in spectra]
    assert sorted(keys) == [(x, i) for x in range(g.n) for i in (1, 2)]
    assert sorted(args[1] for args in closures) == list(range(g.n))
    assert len(dists) == 1


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
    spectra = _spy(monkeypatch, drgkit.spectra, "subconstituent_spectrum")
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


def test_srg_surds_are_evaluated_once_per_report(monkeypatch):
    surds = _spy(monkeypatch, drgkit.exactla, "sqrt_of_fraction")
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
    (icosahedron(), list(range(12)), 2),
    (johnson(6, 3), list(range(20)), 2),
    (johnson(8, 4), [0, 1, 2], None),
])
def test_taylor_and_at4_local_data_are_built_once_per_report(monkeypatch, g, vertices, count):
    """The Taylor eigenvalues, the local SrgParams and the 2*lambda check are
    graph-level: the whole sweep takes as many square roots as vertex 0."""
    surds = _spy(monkeypatch, drgkit.exactla, "sqrt_of_fraction")
    counts = []
    for vs in ([0], vertices):
        surds.clear()
        analyze_graph(g, vs)
        counts.append(len(surds))
    assert counts[0] == counts[1]
    if count is not None:
        assert counts[0] == count
