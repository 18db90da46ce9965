"""CLI commands, exit codes, report determinism."""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import drgkit
from conftest import (
    LATIN_SQUARE_6,
    TUTTE_12_CAGE_LCF,
    graph_from_edges,
    latin_square_graph,
    lcf_graph,
    paley_graph,
)
from drgkit.analysis import AnalysisError, analyze_graph
from drgkit.cli import main
from drgkit.exactla import AlgebraicScalar
from drgkit.families import (
    chang,
    complete_bipartite,
    icosahedron,
    shrikhande,
    triangular_complement,
)
from drgkit.graph_core import save_graph
from drgkit.spectra import Spectrum, subconstituent_spectrum


def run(argv):
    return main(argv)


def test_construct_chang(tmp_path):
    out = tmp_path / "c1.json"
    assert run(["construct", "--family", "chang", "--params", "1",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["n"] == 28


def test_construct_icosahedron(tmp_path):
    out = tmp_path / "ico.json"
    assert run(["construct", "--family", "icosahedron", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["n"] == 12


def test_construct_j84(tmp_path):
    out = tmp_path / "j84.json"
    assert run(["construct", "--family", "johnson", "--params", "8,4",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["n"] == 70


def test_construct_bad_params(tmp_path):
    out = tmp_path / "x.json"
    assert run(["construct", "--family", "johnson", "--params", "2",
                "--out", str(out)]) == 1


def test_construct_oversized_family_exits_quickly(tmp_path):
    import time

    t0 = time.perf_counter()
    code = run(["construct", "--family", "halved_cube", "--params", "40",
                "--out", str(tmp_path / "x.json")])
    assert code in (1, 2)
    assert time.perf_counter() - t0 < 5
    assert not (tmp_path / "x.json").exists()


def test_disconnected_file_is_one_analysis_error_line(tmp_path):
    # a fresh interpreter, so that Python's default warning filter applies
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"n": 4, "edges": [[0, 1], [2, 3]]}))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(drgkit.__file__).resolve().parents[1])
    for argv in (["analyze", str(path)], ["pvt", str(path)], ["tiso", str(path), str(path)]):
        proc = subprocess.run([sys.executable, "-m", "drgkit.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, argv
        assert proc.stdout == ""
        assert proc.stderr == "analysis error: disconnected: graph on 4 vertices\n", argv


def test_usage_error_exit_code():
    assert run(["analyze"]) == 1
    assert run(["nonsense"]) == 1


def test_analyze_shrikhande_all(tmp_path):
    g_path = tmp_path / "s.json"
    run(["construct", "--family", "shrikhande", "--out", str(g_path)])
    out = tmp_path / "report.json"
    assert run(["analyze", str(g_path), "--all-vertices", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert len(report["vertices"]) == 16
    assert all(rec["dim_T"] == 20 for rec in report["vertices"])
    assert all(rec["decomposition"]["wedderburn_dim"] == 20
               for rec in report["vertices"])
    assert report["graph"]["pvt"]["verdict"] == "pvt"


@pytest.mark.parametrize("build, dim_t", [
    # irrational sigma, tau, and neither in the local graph {0^2}
    (lambda: graph_from_edges(5, [(i, (i + 1) % 5) for i in range(5)]), 13),
    (lambda: complete_bipartite(3), 11),  # sigma = 0
    (lambda: triangular_complement(5), 15),  # Petersen: f_sigma = f_tau = 0
    (lambda: graph_from_edges(6, [(u, v) for u, v in itertools.combinations(range(6), 2)
                                  if v != u + 3]), 11),  # K_{2,2,2}
], ids=["C5", "K3,3", "Petersen", "K2,2,2"])
def test_analyze_all_vertices_of_small_srgs(tmp_path, build, dim_t):
    g_path, out = tmp_path / "g.json", tmp_path / "report.json"
    save_graph(build(), str(g_path))
    assert run(["analyze", str(g_path), "--all-vertices", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["graph"]["classification"]["type"] == "srg"
    assert [(rec["dim_T"], rec["decomposition"]["wedderburn_dim"])
            for rec in report["vertices"]] == [(dim_t, dim_t)] * len(report["vertices"])


def _analysis_error(tmp_path, capsys, g) -> str:
    """The message of analyze_graph's AnalysisError on g, after checking that
    the analyze command prints it as its one error line with exit 2."""
    with pytest.raises(AnalysisError) as err:
        analyze_graph(g)
    g_path = tmp_path / "g.json"
    save_graph(g, str(g_path))
    assert run(["analyze", str(g_path)]) == 2
    assert capsys.readouterr().err == f"analysis error: {err.value}\n"
    return str(err.value)


def test_wedderburn_closure_mismatch_is_an_analysis_error(tmp_path, capsys, monkeypatch):
    # acceptance criterion 9: the Wedderburn sum must equal the closure dimension
    import drgkit.context

    closure = drgkit.context.terwilliger_dimension
    monkeypatch.setattr(drgkit.context, "terwilliger_dimension",
                        lambda g, x, dd=None: closure(g, x, dd) + 1)
    assert _analysis_error(tmp_path, capsys, shrikhande()) == \
        "Wedderburn dimension 20 != closure dimension 21 at vertex 0"


def test_derived_second_subconstituent_mismatch_is_an_analysis_error(tmp_path, capsys,
                                                                     monkeypatch):
    import drgkit.analysis

    monkeypatch.setattr(drgkit.analysis, "second_subconstituent_derived",
                        lambda local, p: Spectrum.from_pairs([(4, 1), (0, 8)]))
    assert _analysis_error(tmp_path, capsys, shrikhande()) == (
        "derived second-subconstituent spectrum {4^1, 0^8} differs from the computed "
        "one {4^1, 2^1, 1^2, -1^2, -2^3} at vertex 0")


def test_analyze_chang_orbit_partition(tmp_path):
    g_path = tmp_path / "c1.json"
    run(["construct", "--family", "chang", "--params", "1", "--out", str(g_path)])
    out = tmp_path / "report.json"
    assert run(["analyze", str(g_path), "--all-vertices", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    dims = {}
    for rec in report["vertices"]:
        dims.setdefault(rec["dim_T"], 0)
        dims[rec["dim_T"]] += 1
    assert dims == {20: 4, 27: 24}


def test_analyze_deterministic(tmp_path):
    g_path = tmp_path / "g.json"
    run(["construct", "--family", "johnson", "--params", "8,2", "--out", str(g_path)])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["analyze", str(g_path), "--out", str(a)]) == 0
    assert run(["analyze", str(g_path), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_analyze_j84_single_vertex(tmp_path):
    g_path = tmp_path / "j84.json"
    run(["construct", "--family", "johnson", "--params", "8,4", "--out", str(g_path)])
    out = tmp_path / "report.json"
    assert run(["analyze", str(g_path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    rec = report["vertices"][0]
    ell = sum(1 for c in rec["decomposition"]["classes"] if c["endpoint"] == 2)
    assert rec["dim_T"] == ell + 43 == 46
    assert report["graph"]["tightness"]["is_tight"]


def test_analyze_tutte_12_cage(tmp_path):
    # eigenvalues 3, +-sqrt 6, +-sqrt 2, 0, -3 lie in three fields at once
    g_path = tmp_path / "tutte.json"
    save_graph(lcf_graph(TUTTE_12_CAGE_LCF), str(g_path))
    out = tmp_path / "report.json"
    assert run(["analyze", str(g_path), "--base-vertex", "0", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["graph"]["spectrum"] == [["3", 1], ["√6", 21], ["√2", 27], ["0", 28],
                                           ["-√2", 27], ["-√6", 21], ["-3", 1]]
    assert report["graph"]["qpoly_orderings"] == []
    assert report["graph"]["tightness"]["bipartite"]
    assert report["vertices"][0]["dim_T"] == 168
    assert report["graph"]["pvt"]["verdict"] == "not_pvt"


def test_tightness_in_two_fields_is_one_analysis_error_line(tmp_path, capsys, monkeypatch):
    # hand-built eigen data: theta_1 in Q(sqrt 6), theta_D in Q(sqrt 2)
    import drgkit.context

    eigen_data = drgkit.context.eigen_data

    def two_fields(params):
        theta = (AlgebraicScalar(5), AlgebraicScalar(0, 1, 6), AlgebraicScalar(-1),
                 AlgebraicScalar(0, -1, 2))
        return dataclasses.replace(eigen_data(params), theta=theta)

    monkeypatch.setattr(drgkit.context, "eigen_data", two_fields)
    g_path = tmp_path / "ico.json"
    save_graph(icosahedron(), str(g_path))
    assert run(["analyze", str(g_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("analysis error: tightness") and err.count("\n") == 1
    assert "Q(√6)" in err and "Q(√2)" in err and "cannot mix" not in err


def test_analyze_non_drg_fails(tmp_path):
    g_path = tmp_path / "p3.json"
    g_path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    assert run(["analyze", str(g_path)]) == 2


def test_one_vertex_graph_is_an_analysis_error(tmp_path, capsys):
    g_path = tmp_path / "k1.json"
    g_path.write_text(json.dumps({"n": 1, "edges": []}))
    for argv in (["analyze", str(g_path)], ["pvt", str(g_path)]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("analysis error:") and err.count("\n") == 1


def test_empty_vertex_set_is_a_usage_error(tmp_path, capsys):
    g_path = tmp_path / "empty.json"
    g_path.write_text(json.dumps({"n": 0, "edges": []}))
    for argv in (["analyze", str(g_path)], ["pvt", str(g_path)]):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: parse:") and err.count("\n") == 1


def test_unloadable_file_is_a_usage_error_under_every_command(tmp_path, capsys):
    bad = tmp_path / "loop.txt"
    bad.write_text("0 0\n")
    good = tmp_path / "s.json"
    run(["construct", "--family", "shrikhande", "--out", str(good)])
    capsys.readouterr()
    for argv in (["analyze", str(bad)], ["pvt", str(bad)],
                 ["tiso", str(bad), str(good)], ["tiso", str(good), str(bad)]):
        assert run(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: loop") and err.count("\n") == 1, (argv, err)


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    g_path = tmp_path / "s.json"
    run(["construct", "--family", "shrikhande", "--out", str(g_path)])
    capsys.readouterr()
    missing = str(tmp_path / "missing" / "x.json")
    for argv in (["analyze", str(g_path), "--out", missing],
                 ["construct", "--family", "shrikhande", "--out", missing]):
        assert run(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "internal error" not in err
    assert not (tmp_path / "missing").exists()


def test_unexpected_exception_is_one_line_internal_error(tmp_path, capsys, monkeypatch):
    import drgkit.cli

    def boom(g):
        raise RuntimeError("closure\nexploded")

    monkeypatch.setattr(drgkit.cli, "check_pvt", boom)
    g_path = tmp_path / "s.json"
    run(["construct", "--family", "shrikhande", "--out", str(g_path)])
    capsys.readouterr()
    assert run(["pvt", str(g_path)]) == 2
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: closure exploded\n"
    assert "Traceback" not in err


def test_analyze_float_fallback_flag(tmp_path):
    # 7-cycle: distance-regular, but eigenvalues need a cubic field
    g_path = tmp_path / "c7.json"
    g_path.write_text(json.dumps(
        {"n": 7, "edges": [[i, (i + 1) % 7] for i in range(6)] + [[0, 6]]}))
    assert run(["analyze", str(g_path)]) == 2
    out = tmp_path / "c7_report.json"
    assert run(["analyze", str(g_path), "--float-fallback", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert not report["graph"]["exact_spectrum"]
    assert any("float" in f for f in report["flags"])


def test_analyze_renders_float_subconstituent_spectra(tmp_path, float_local_spectra):
    g = shrikhande()
    g_path = tmp_path / "s.json"
    save_graph(g, g_path)
    out = tmp_path / "report.json"
    assert run(["analyze", str(g_path), "--float-fallback", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["graph"]["exact_spectrum"]
    specs = [subconstituent_spectrum(g, 0, i) for i in (1, 2)]
    assert all(isinstance(v, float) for s in specs for v, _ in s.pairs)
    assert report["vertices"][0]["subconstituent_spectra"] == [
        [[format(v, ".17g"), m] for v, m in s.pairs] for s in specs]
    assert "subconstituent-spectrum-float:vertex0:class1" in report["flags"]


def test_pvt_command(tmp_path, capsys):
    g_path = tmp_path / "s.json"
    run(["construct", "--family", "shrikhande", "--out", str(g_path)])
    assert run(["pvt", str(g_path)]) == 0
    assert "verdict: pvt" in capsys.readouterr().out


def test_tiso_command(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["construct", "--family", "shrikhande", "--out", str(a)])
    run(["construct", "--family", "rook_grid", "--params", "4", "--out", str(b)])
    assert run(["tiso", str(a), str(b)]) == 0
    assert "T-isomorphic: False" in capsys.readouterr().out


@pytest.mark.parametrize("first, second, witness", [
    (1, 3, "{'graph': 1, 'x': 0, 'y': 6, "
           "'local_spectrum_x': '{6^1, {1 + √5}^1, 2^1, 0^3, {1 - √5}^1, -2^5}', "
           "'local_spectrum_y': '{6^1, 2^3, 0^2, -2^6}'}"),
    (3, 1, "{'graph': 1, 'x': 0, 'y': 9, "
           "'local_spectrum_x': '{6^1, 3^1, {1/2 + 1/2√5}^2, {1/2 - 1/2√5}^2, -1^1, -2^5}', "
           "'local_spectrum_y': '{6^1, {1/2 + 1/2√13}^2, 1^2, {1/2 - 1/2√13}^2, -2^5}'}"),
])
def test_tiso_names_the_first_non_pvt_vertex(tmp_path, capsys, first, second, witness):
    paths = []
    for i in (first, second):
        paths.append(tmp_path / f"chang{i}.json")
        save_graph(chang(i), paths[-1])
    assert run(["tiso", *map(str, paths)]) == 0
    assert capsys.readouterr().out == (
        "T-isomorphic: False\n"
        "note: a graph in the pair is not pseudo-vertex-transitive, so some pair "
        "of base vertices has differing local spectra\n"
        f"witness: {witness}\n")


def test_latin_square_graph_with_float_local_spectra(tmp_path, capsys):
    # vertex 0's local spectrum is exact, others need a cubic field
    g_path = tmp_path / "latin.json"
    save_graph(latin_square_graph(LATIN_SQUARE_6), g_path)
    assert run(["pvt", str(g_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("verdict: not_pvt (method: srg_theorem)\n") and "witness: " in out
    assert run(["analyze", str(g_path), "--float-fallback"]) == 0
    capsys.readouterr()
    rc = run(["analyze", str(g_path)])
    err = capsys.readouterr().err
    assert rc == 0 or (rc == 2 and err.startswith("analysis error: ")), err
    assert "internal error" not in err
    # vertex 1's local spectrum needs a cubic field: the refusal names it
    assert run(["analyze", str(g_path), "--all-vertices"]) == 2
    assert capsys.readouterr().err == (
        "analysis error: spectrum requires an irreducible factor of degree >= 3 "
        "at vertex 1, distance class 1; rerun with float fallback enabled to "
        "accept approximate spectra\n")


def test_tiso_relabelled_paley29(tmp_path, capsys):
    # x -> 3x + 1 is no automorphism (x -> x + 1 is one), so the float local
    # spectra of the copy come from other eigvalsh runs
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_graph(paley_graph(29), a)
    save_graph(paley_graph(29, [(3 * x + 1) % 29 for x in range(29)]), b)
    assert run(["tiso", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "T-isomorphic: True\n"


def test_reproduce_exit_codes(capsys):
    assert run(["reproduce", "--table", "gq"]) == 0
    out = capsys.readouterr().out
    assert "all rows match" in out
    # every table prints in full; reproduce has no --slow
    assert run(["reproduce", "--table", "gq", "--slow"]) == 1


def test_base_vertex_out_of_range_is_a_usage_error(tmp_path, capsys):
    g_path = tmp_path / "c10.json"
    g_path.write_text(json.dumps({"n": 10, "edges": [sorted((v, (v + 1) % 10))
                                                    for v in range(10)]}))
    for v in (-1, 10):
        assert run(["analyze", str(g_path), "--base-vertex", str(v)]) == 1
        assert capsys.readouterr().err == f"error: base vertex {v} out of range\n"
    assert run(["analyze", str(g_path), "--base-vertex", "9"]) == 0
    assert json.loads(capsys.readouterr().out)["vertices"][0]["vertex"] == 9


def test_all_vertices_gate(tmp_path):
    g_path = tmp_path / "hc.json"
    run(["construct", "--family", "halved_cube", "--params", "8", "--out", str(g_path)])
    assert run(["analyze", str(g_path), "--all-vertices"]) == 1  # needs --slow


# ---------------------------------------------------------------------------
# exit-code contract on generated and malformed graph files
# ---------------------------------------------------------------------------


def _named_graphs():
    """Small distance-regular graphs, so that generated files reach the analysis."""
    out = []
    for n in range(2, 9):
        out.append((n, list(itertools.combinations(range(n), 2))))  # K_n
    for n in range(3, 9):
        out.append((n, [(i, (i + 1) % n) for i in range(n)]))  # C_n (C7: cubic field)
    for m in (3, 4):
        out.append((2 * m, [(i, m + j) for i in range(m) for j in range(m)]))  # K_{m,m}
    out.append((8, [(u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < u ^ (1 << b)]))
    for n in (6, 8):  # cocktail party graphs
        out.append((n, [(u, v) for u, v in itertools.combinations(range(n), 2) if v != u + n // 2]))
    return out


_ids = st.integers(min_value=-2, max_value=9)
_random_graph = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=16)))
_graph = st.one_of(st.sampled_from(_named_graphs()), _random_graph)


def _json_text(g):
    n, edges = g
    return json.dumps({"n": n, "edges": [list(e) for e in edges]})


def _edge_list_text(g):
    return "".join(f"{u} {v}\n" for u, v in g[1])


_bad_scalar = st.sampled_from([1.5, "3", True, None, [], -1])
_malformed_json = st.fixed_dictionaries({}, optional={
    "n": st.one_of(_ids, _bad_scalar),
    "edges": st.one_of(
        st.lists(st.lists(st.one_of(_ids, _bad_scalar), max_size=3), max_size=10),
        _bad_scalar),
    "label": st.one_of(st.text(max_size=4), _bad_scalar),
}).map(json.dumps)
_token = st.one_of(_ids.map(str), st.sampled_from(["1.5", "x", "1_0", "٣", "#", "-", "0x1"]))
_malformed_edge_list = st.lists(
    st.lists(_token, max_size=3).map(" ".join), max_size=10).map("\n".join)
_graph_file = st.one_of(
    _graph.map(_json_text),
    _graph.map(_edge_list_text),
    _malformed_json,
    _malformed_edge_list,
    st.sampled_from(["", "{", "[0, 1]", '{"n": 3}', '{"edges": []}', "0 1\n1 1\n"]),
)


@given(_graph_file, _graph_file)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
def test_cli_exit_contract_on_generated_files(text1, text2):
    with tempfile.TemporaryDirectory() as tmp:
        f1, f2 = Path(tmp) / "g1.txt", Path(tmp) / "g2.txt"
        f1.write_text(text1)
        f2.write_text(text2)
        argvs = [
            ["analyze", str(f1)],
            ["analyze", str(f1), "--float-fallback"],
            ["analyze", str(f1), "--base-vertex", "99"],
            ["pvt", str(f1)],
            ["tiso", str(f1), str(f2)],
        ]
        for argv in argvs:
            assert run(argv) in (0, 1, 2, 3), argv


def test_one_parser_serves_every_command(tmp_path, capsys):
    """main builds the parser once per process; a rejected command line
    leaves nothing behind for the next one, so each answer is the same as
    from a fresh parser."""
    from drgkit.cli import build_parser

    assert build_parser() is build_parser()
    g_path = tmp_path / "s.json"
    save_graph(shrikhande(), g_path)
    argvs = [["pvt"], ["analyze", str(g_path), "--base-vertex", "x"], ["pvt", str(g_path)],
             ["construct", "--family", "nope", "--out", "x.json"], ["pvt", str(g_path)]]
    first = []
    for argv in argvs:
        code = run(argv)
        first.append((code, *capsys.readouterr()))
    for argv, expected in zip(argvs * 2, first * 2):
        code = run(argv)
        assert (code, *capsys.readouterr()) == expected, argv
    assert [code for code, _, _ in first] == [1, 1, 0, 1, 0]
