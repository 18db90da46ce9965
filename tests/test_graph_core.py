"""Graph loading, validation, distances, induced subgraphs."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import distance_matrices, induced_subgraph, neighbors
from drgkit.families import (
    chang,
    complete_bipartite,
    halved_cube,
    hamming,
    icosahedron,
    johnson,
    rook_grid,
    shrikhande,
    triangular_complement,
)
from drgkit.graph_core import (
    Graph,
    GraphError,
    distances,
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


@pytest.mark.parametrize("pairs, first", [
    ([(200, 3)], (3, 200)),
    ([(299, 150), (5, 140)], (5, 140)),
    ([(130, 2), (2, 131)], (2, 130)),
])
def test_asymmetric_pair_named_across_tiles(pairs, first):
    """Symmetry is checked tile by tile; the message still names the first
    asymmetric pair in row-major order."""
    adj = np.zeros((300, 300), dtype=np.int64)
    for u, v in pairs:
        adj[u, v] = 1
    with pytest.raises(GraphError) as e:
        Graph(adj)
    assert str(e.value) == f"asymmetric: pair {first}"


@pytest.mark.parametrize("entry", [256, 0.5, -255, 1.7])
def test_out_of_range_entries_rejected_not_cast(entry):
    # an int8 cast would turn 256 and 0.5 into 0, and -255 and 1.7 into 1
    adj = np.array([[0, entry, 1], [entry, 0, 1], [1, 1, 0]])
    with pytest.raises(GraphError) as e:
        Graph(adj)
    assert e.value.reason == "entries"


def test_negative_n_rejected(tmp_path):
    path = tmp_path / "neg.json"
    path.write_text(json.dumps({"n": -3, "edges": [[0, 1]]}))
    with pytest.raises(GraphError) as e:
        load_graph(path)
    assert str(e.value) == 'parse: "n" -3 is negative'


def test_zero_n_rejected(tmp_path):
    # an empty vertex set is malformed input, not a disconnected graph
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n": 0, "edges": []}))
    with pytest.raises(GraphError) as e:
        load_graph(path)
    assert str(e.value) == 'parse: "n" is 0: a graph needs at least one vertex'


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


_GOOD = [[0, 1], [1, 2], [2, 3]]


@pytest.mark.parametrize("bad, reason, message", [
    ([0, 1, 2], "parse", "parse: edge [0, 1, 2] is not a pair"),
    (7, "parse", "parse: edge 7 is not a pair"),
    ([0, 1.5], "parse", "parse: vertex id 1.5 is not an integer"),
    ([True, 1], "parse", "parse: vertex id True is not an integer"),
    (["0", 1], "parse", "parse: vertex id '0' is not an integer"),
    ([2, 2], "loop", "loop: edge (2, 2)"),
    ([0, 4], "out-of-range", "out-of-range: edge (0, 4) with n=4"),
    ([-1, 3], "out-of-range", "out-of-range: edge (-1, 3) with n=4"),
    ([0, 10**30], "out-of-range", f"out-of-range: edge (0, {10**30}) with n=4"),
    ([10**30, 10**30], "loop", f"loop: edge ({10**30}, {10**30})"),
    ([2, 1], "duplicate", "duplicate: edge (1, 2)"),
])
def test_each_edge_fault_kind_has_its_message(tmp_path, bad, reason, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 4, "edges": _GOOD + [bad, [3, 0]]}))
    with pytest.raises(GraphError) as e:
        load_graph(path)
    assert (e.value.reason, str(e.value)) == (reason, message)


@pytest.mark.parametrize("first, second, message", [
    ([1, 1], [0, 1.5], "loop: edge (1, 1)"),
    ([0, 1.5], [1, 1], "parse: vertex id 1.5 is not an integer"),
    ([3, 2], [0, 9], "duplicate: edge (2, 3)"),
    ([0, 9], [3, 2], "out-of-range: edge (0, 9) with n=4"),
    ([0, 9], [1, 1], "out-of-range: edge (0, 9) with n=4"),
    ([1, 1], [0, 9], "loop: edge (1, 1)"),
    ([2, 1], [3, 3], "duplicate: edge (1, 2)"),
    (["x", 0], [1, 0], "parse: vertex id 'x' is not an integer"),
    ([1, 0], ["x", 0], "duplicate: edge (0, 1)"),
])
def test_first_of_two_faulty_edges_is_reported(tmp_path, first, second, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 4, "edges": _GOOD + [first, [3, 0], second]}))
    with pytest.raises(GraphError) as e:
        load_graph(path)
    assert str(e.value) == message


def test_text_edge_list_faults_keep_their_messages(tmp_path):
    for text, message in (("0 1\n1 1\n", "loop: edge (1, 1)"),
                          ("0 1\n-1 1\n", "out-of-range: edge (-1, 1) with n=2"),
                          ("0 1\n1 0\n", "duplicate: edge (0, 1)")):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(GraphError) as e:
            load_graph(path)
        assert str(e.value) == message


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


def _bfs_distances(g):
    """Test oracle: one breadth-first search per source vertex; dist is -1
    between components."""
    n = g.n
    dist = np.full((n, n), -1, dtype=np.int64)
    nbrs = [neighbors(g, u) for u in range(n)]
    for s in range(n):
        dist[s, s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in nbrs[u]:
                    if dist[s, v] < 0:
                        dist[s, v] = d
                        nxt.append(int(v))
            frontier = nxt
    return int(dist.max()), dist


def _assert_distances_match_bfs(g):
    D, dist = _bfs_distances(g)
    dd = distances(g)
    assert dd.D == D, g
    assert dd.dist.dtype == np.int64 and (dd.dist == dist).all(), g


def _path(n):
    adj = np.zeros((n, n), dtype=int)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = 1
    return Graph(adj)


def _cycle(n):
    adj = _path(n).adjacency.astype(int)
    adj[0, n - 1] = adj[n - 1, 0] = 1
    return Graph(adj)


def test_distances_match_bfs_on_family_corpus():
    corpus = [shrikhande(), icosahedron(), johnson(8, 2), johnson(6, 3), johnson(8, 4),
              johnson(7, 3), halved_cube(8), hamming(3, 3), hamming(4, 2), rook_grid(4),
              triangular_complement(6), complete_bipartite(3), chang(1), chang(2), chang(3)]
    for g in corpus:
        _assert_distances_match_bfs(g)


def test_distances_long_diameter():
    # the level loop must run far past the diameters of the corpus (D <= 4)
    for g, D in ((_path(40), 39), (_cycle(41), 20), (_cycle(40), 20), (_path(1), 0)):
        _assert_distances_match_bfs(g)
        assert distances(g).D == D


def _random_graph(n, edges, tree):
    adj = np.zeros((n, n), dtype=int)
    for u, v in edges:
        adj[u, v] = adj[v, u] = int(u != v)
    for v, parent in enumerate(tree, 1):  # a spanning tree: v joins an earlier vertex
        adj[parent % v, v] = adj[v, parent % v] = 1
    return Graph(adj)


# a vertex count with up to 3n random edges: sparse enough for long diameters
_random_graphs = st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n),
))


@given(_random_graphs, st.lists(st.integers(0, 10 ** 6), min_size=29, max_size=29))
@settings(max_examples=60, deadline=None)
def test_distances_match_bfs_on_random_connected_graphs(graph, parents):
    n, edges = graph
    g = _random_graph(n, edges, parents[: n - 1])
    assert g.connected
    _assert_distances_match_bfs(g)


@given(_random_graphs)
@settings(max_examples=60, deadline=None)
def test_connected_matches_bfs(graph):
    n, edges = graph
    g = _random_graph(n, edges, ())
    assert g.connected == bool((_bfs_distances(g)[1][0] >= 0).all())


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
    A = distance_matrices(distances(johnson(8, 2)))
    assert (sum(A) == 1).all()
    assert (A[0] == np.eye(28, dtype=int)).all()


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
