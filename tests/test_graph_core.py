"""Graph loading, validation, distances, induced subgraphs."""

import json

import numpy as np
import pytest

from drgkit.families import icosahedron, johnson, shrikhande
from drgkit.graph_core import (
    Graph,
    GraphError,
    distances,
    induced_subgraph,
    load_graph,
    save_graph,
)


def test_load_four_cycle(tmp_path):
    path = tmp_path / "c4.json"
    path.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}))
    g = load_graph(path)
    assert g.n == 4
    assert g.is_regular() == 2
    assert g.connected


def test_load_text_edge_list(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text("# a square\n0 1\n1 2\n2 3\n3 0\n")
    g = load_graph(path)
    assert g.n == 4 and g.is_regular() == 2


def test_loop_rejected(tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"n": 2, "edges": [[0, 0]]}))
    with pytest.raises(GraphError) as e:
        load_graph(path)
    assert e.value.reason == "loop"


def test_asymmetric_rejected():
    adj = np.zeros((3, 3), dtype=int)
    adj[0, 1] = 1
    with pytest.raises(GraphError) as e:
        Graph(adj)
    assert e.value.reason == "asymmetric"


def test_duplicate_edge_rejected(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 0]]}))
    with pytest.raises(GraphError) as e:
        load_graph(path)
    assert e.value.reason == "duplicate"


@pytest.mark.parametrize("name, text", [
    ("float.json", json.dumps({"n": 2, "edges": [[0, 1.5]]})),
    ("bool.json", json.dumps({"n": 2, "edges": [[0, True]]})),
    ("string.json", json.dumps({"n": 2, "edges": [["0", 1]]})),
    ("float_n.json", json.dumps({"n": 2.0, "edges": [[0, 1]]})),
    ("float.txt", "0 1.5\n"),
    ("underscore.txt", "0 1_0\n"),
])
def test_non_integer_vertex_id_rejected(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(GraphError) as e:
        load_graph(path)
    assert e.value.reason == "parse"


def test_oversized_file_rejected_before_allocation(tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("0 1000000000\n")
    with pytest.raises(GraphError) as e:
        load_graph(path)
    assert e.value.reason == "size"


def test_disconnected_warns(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"n": 4, "edges": [[0, 1], [2, 3]]}))
    with pytest.warns(UserWarning):
        g = load_graph(path)
    assert not g.connected
    with pytest.raises(GraphError) as e:
        distances(g)
    assert e.value.reason == "disconnected"


def test_shrikhande_round_trip(tmp_path):
    g = shrikhande()
    path = tmp_path / "shrikhande.json"
    save_graph(g, path)
    g2 = load_graph(path)
    assert g2.n == 16 and g2.is_regular() == 6
    assert (g2.adjacency == g.adjacency).all()


def test_distances_complete_graph():
    k4 = Graph(np.ones((4, 4), dtype=int) - np.eye(4, dtype=int))
    assert distances(k4).D == 1


def test_distances_icosahedron():
    dd = distances(icosahedron())
    assert dd.D == 3
    assert all(len(dd.classes_from(x, 3)) == 1 for x in range(12))


def test_johnson84_unique_antipode():
    dd = distances(johnson(8, 4))
    assert dd.D == 4
    assert all(len(dd.classes_from(x, 4)) == 1 for x in range(70))


def test_distance_matrices_partition():
    dd = distances(johnson(8, 2))
    assert (sum(dd.A) == 1).all()
    assert (dd.A[0] == np.eye(28, dtype=int)).all()


def test_induced_identity():
    g = shrikhande()
    h = induced_subgraph(g, range(16))
    assert (h.adjacency == g.adjacency).all()


def test_induced_local_j82():
    g = johnson(8, 2)
    dd = distances(g)
    local = induced_subgraph(g, dd.classes_from(0, 1))
    assert local.n == 12 and local.is_regular() == 6


def test_induced_local_icosahedron_is_pentagon():
    g = icosahedron()
    dd = distances(g)
    local = induced_subgraph(g, dd.classes_from(0, 1))
    assert local.n == 5 and local.is_regular() == 2 and local.connected


def test_induced_errors():
    g = icosahedron()
    with pytest.raises(GraphError):
        induced_subgraph(g, [])
    with pytest.raises(GraphError):
        induced_subgraph(g, [0, 99])
