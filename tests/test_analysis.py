"""analysis: the report writer gives json.dumps(indent=2) bytes, the report
shares each distinct per-vertex fragment, and base vertices must be ints."""

import copy
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import LATIN_SQUARE_6, latin_square_graph
from drgkit.analysis import AnalysisError, analyze_graph, report_to_json
from drgkit.context import GraphContext
from drgkit.families import chang, johnson, shrikhande

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**80),
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(-0.0),
    st.text(),  # non-ASCII and control characters included
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
        # one object reached twice, at two depths
        children.map(lambda c: [c, {"again": c, "deeper": [[c]]}]),
    )


_TREES = st.recursive(_SCALARS, _containers, max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_TREES)
@example([True, 1, False, 0, None, 2**64, -0.0, 1e300, "é\n\x00\"\\", (), [[{}], {"": []}]])
@example({"a": [], "b": {}, "c": ({"d": [{}]},)})
def test_writer_gives_the_bytes_of_json_dumps_indent_2(tree):
    assert report_to_json(tree) == json.dumps(tree, indent=2) + "\n"


@pytest.mark.parametrize("tree", [{1: "a"}, {"a": [{None: 1}]}, [{("a", "b"): 0}]])
def test_writer_refuses_keys_that_are_not_str(tree):
    with pytest.raises(TypeError):
        report_to_json(tree)


def test_j82_records_share_one_decomposition():
    g = johnson(8, 2)
    records = analyze_graph(g, range(g.n))["vertices"]
    assert len(records) == 28
    assert len({id(r["decomposition"]) for r in records}) == 1
    assert len({id(r["dimension_sequence"]) for r in records}) == 1


def test_j63_records_share_one_taylor_decomposition():
    g = johnson(6, 3)
    records = analyze_graph(g, range(g.n))["vertices"]
    assert len(records) == 20
    assert len({id(r["decomposition"]) for r in records}) == 1


def test_chang1_shares_one_spectra_list_per_distinct_local_spectra():
    g = chang(1)
    records = analyze_graph(g, range(g.n))["vertices"]
    ctx = GraphContext.of(g)
    distinct = set(zip(*(ctx.subconstituent_spectra(i) for i in (1, 2))))
    assert 1 < len(distinct) < g.n
    assert len({id(r["subconstituent_spectra"]) for r in records}) == len(distinct)


def test_float_fallback_report_writes_the_bytes_of_json_dumps():
    g = latin_square_graph(LATIN_SQUARE_6)
    report = analyze_graph(g, range(g.n), allow_float=True)
    assert any(f.startswith("subconstituent-spectrum-float") for f in report["flags"])
    assert report_to_json(report) == json.dumps(copy.deepcopy(report), indent=2) + "\n"


@pytest.mark.parametrize("v", [1.5, 2.0, "3", True, np.float64(1.0), None])
def test_base_vertex_must_be_an_int(v):
    with pytest.raises(AnalysisError, match=re.escape(f"base vertex {v!r} is not an integer")):
        analyze_graph(shrikhande(), [0, v])


@pytest.mark.parametrize("v", [-1, 16])
def test_base_vertex_outside_the_graph_is_refused(v):
    with pytest.raises(AnalysisError, match=re.escape(f"base vertex {v} out of range 0..15")):
        analyze_graph(shrikhande(), [0, v])


def test_numpy_int_base_vertex_is_accepted():
    g = shrikhande()
    report = analyze_graph(g, [np.int64(3)])
    assert report == analyze_graph(g, [3])
    assert type(report["vertices"][0]["vertex"]) is int
