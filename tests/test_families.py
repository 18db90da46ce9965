"""Family constructors, labelings, Seidel switching."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drgkit.families import (
    FamilySpec,
    chang,
    chang_switching_set,
    complete_bipartite,
    construct,
    halved_cube,
    hamming,
    icosahedron,
    johnson,
    johnson_vertex_index,
    rook_grid,
    seidel_switch,
    shrikhande,
    triangular_complement,
)
from drgkit.graph_core import GraphError, distances
from drgkit.scheme import verify_drg
from drgkit.spectra import subconstituent_spectrum


def srg_of(g):
    p = verify_drg(g)
    assert p.D == 2
    return (p.n, p.k, p.a[1], p.c[1])


def test_arity_errors():
    with pytest.raises(GraphError):
        FamilySpec("johnson", (8,))
    with pytest.raises(GraphError):
        FamilySpec("shrikhande", (1,))
    with pytest.raises(GraphError):
        FamilySpec("nosuch", ())


@pytest.mark.parametrize("family, params", [
    ("halved_cube", (40,)),
    ("hamming", (10**9, 2)),
    ("johnson", (10**6, 5 * 10**5)),
    ("rook_grid", (65,)),
    ("triangular_complement", (100,)),
    ("complete_bipartite", (3000,)),
])
def test_family_size_cap(family, params):
    with pytest.raises(GraphError) as e:
        construct(FamilySpec(family, params))
    assert e.value.reason == "size"


def test_johnson82():
    g = construct(FamilySpec("johnson", (8, 2)))
    assert g.n == 28 and g.is_regular() == 12
    assert srg_of(g) == (28, 12, 6, 4)


def test_johnson_colex_labeling():
    # colex on 2-subsets: {0,1}, {0,2}, {1,2}, {0,3}, ...
    assert johnson_vertex_index(8, 2, (0, 1)) == 0
    assert johnson_vertex_index(8, 2, (0, 2)) == 1
    assert johnson_vertex_index(8, 2, (1, 2)) == 2
    assert johnson_vertex_index(8, 2, (0, 3)) == 3


def _colex(n, k):
    # colex order: compare the subsets as their descending tuples
    return sorted(itertools.combinations(range(n), k), key=lambda s: s[::-1])


def _digits(w, q, d):
    return [w // q**i % q for i in range(d)]


# each family's labelling and adjacency as the module docstring defines them,
# pair by pair: (vertices in label order, adjacency predicate)
_PAIRWISE = {
    "johnson(6,3)": (johnson(6, 3), _colex(6, 3), lambda u, v: len(set(u) & set(v)) == 2),
    "johnson(7,2)": (johnson(7, 2), _colex(7, 2), lambda u, v: len(set(u) & set(v)) == 1),
    "halved_cube(6)": (halved_cube(6), [w for w in range(64) if bin(w).count("1") % 2 == 0],
                       lambda u, v: bin(u ^ v).count("1") == 2),
    "hamming(3,3)": (hamming(3, 3), [_digits(w, 3, 3) for w in range(27)],
                     lambda u, v: sum(a != b for a, b in zip(u, v)) == 1),
    "hamming(2,4)": (hamming(2, 4), [_digits(w, 4, 2) for w in range(16)],
                     lambda u, v: sum(a != b for a, b in zip(u, v)) == 1),
    "rook_grid(4)": (rook_grid(4), [divmod(i, 4) for i in range(16)],
                     lambda u, v: u != v and (u[0] == v[0] or u[1] == v[1])),
    "triangular_complement(6)": (triangular_complement(6), _colex(6, 2),
                                 lambda u, v: not set(u) & set(v)),
}


@pytest.mark.parametrize("name", sorted(_PAIRWISE))
def test_family_labelling_matches_pairwise_definition(name):
    g, verts, adjacent = _PAIRWISE[name]
    expected = np.array([[int(i != j and adjacent(u, v)) for j, v in enumerate(verts)]
                         for i, u in enumerate(verts)])
    assert g.n == len(verts)
    assert (g.adjacency == expected).all()


def test_johnson_diameter():
    assert distances(johnson(6, 3)).D == 3
    assert distances(johnson(8, 4)).D == 4
    assert distances(johnson(5, 2)).D == 2


def test_shrikhande_parameters():
    g = shrikhande()
    assert g.n == 16 and g.is_regular() == 6
    assert srg_of(g) == (16, 6, 2, 2)


def test_rook_grid():
    assert srg_of(rook_grid(4)) == (16, 6, 2, 2)
    assert srg_of(rook_grid(3)) == (9, 4, 1, 2)


def test_complete_bipartite():
    assert srg_of(complete_bipartite(2)) == (4, 2, 0, 2)
    assert srg_of(complete_bipartite(3)) == (6, 3, 0, 3)


def test_triangular_complement_gq22():
    assert srg_of(triangular_complement(6)) == (15, 6, 1, 3)


def test_icosahedron_array():
    params = verify_drg(icosahedron())
    assert params.intersection_array == "{5,2,1;1,2,5}"


def test_halved_cube_array():
    params = verify_drg(halved_cube(8))
    assert params.intersection_array == "{28,15,6,1;1,6,15,28}"
    assert params.n == 128


def test_hamming_cube():
    params = verify_drg(hamming(3, 2))
    assert params.intersection_array == "{3,2,1;1,2,3}"


def test_seidel_switch_empty_set_is_identity():
    g = johnson(8, 2)
    assert (seidel_switch(g, []).adjacency == g.adjacency).all()


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25)
def test_seidel_switch_involution(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    adj = rng.integers(0, 2, size=(n, n))
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    from drgkit.graph_core import Graph

    g = Graph(adj)
    s = [int(v) for v in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)]
    assert (seidel_switch(seidel_switch(g, s), s).adjacency == g.adjacency).all()


def test_chang_graphs_are_srg():
    for v in (1, 2, 3):
        assert srg_of(chang(v)) == (28, 12, 6, 4)


def test_chang_switching_sets():
    # variant 1 switches over the perfect matching {1,5},{2,6},{3,7},{4,8}
    assert chang_switching_set(1) == [
        johnson_vertex_index(8, 2, p) for p in ((0, 4), (1, 5), (2, 6), (3, 7))
    ]


def test_chang_pairwise_non_isomorphic_by_local_spectra():
    graphs = {"J": johnson(8, 2), "c1": chang(1), "c2": chang(2), "c3": chang(3)}
    profiles = {}
    for name, g in graphs.items():
        dd = distances(g)
        profile = sorted(
            str(subconstituent_spectrum(g, x, 1, dd)) for x in range(g.n)
        )
        profiles[name] = tuple(profile)
    assert len(set(profiles.values())) == 4


def test_construct_dispatch():
    g = construct(FamilySpec("icosahedron", ()))
    assert g.n == 12
    g = construct(FamilySpec("chang", (2,)))
    assert g.n == 28
