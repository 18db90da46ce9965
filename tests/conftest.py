"""Shared fixtures: the acceptance graph corpus with cached per-vertex records."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

import drgkit.spectra
from drgkit.families import (
    chang,
    complete_bipartite,
    icosahedron,
    johnson,
    rook_grid,
    shrikhande,
    triangular_complement,
)
from drgkit.context import GraphContext
from drgkit.exactla import AlgebraicScalar, _max_abs
from drgkit.graph_core import Graph, GraphError
from drgkit.spectra import SrgParams, effective_multiplicities
from drgkit.tmodules import decompose, dimension_sequence


# a fixed set of draws per run: `pytest --hypothesis-profile=ci`
settings.register_profile("ci", derandomize=True)


def induced_subgraph(g, vertices) -> Graph:
    """Subgraph on the given vertices, relabelled 0..m-1 preserving order."""
    verts = [int(v) for v in vertices]
    if not verts:
        raise GraphError("empty", "induced subgraph needs a nonempty vertex set")
    if len(set(verts)) != len(verts):
        raise GraphError("duplicate", "vertex set has repeats")
    for v in verts:
        if not 0 <= v < g.n:
            raise GraphError("out-of-range", f"vertex {v}")
    sub = g.adjacency[np.ix_(verts, verts)]
    return Graph(sub, label=f"{g.label}[{len(verts)}]" if g.label else "")


# an SRG(36,15,6,6) Latin square whose graph has 16 exact local spectra
# (vertex 0's among them) and 20 that need a cubic field
LATIN_SQUARE_6 = [[2, 0, 5, 1, 3, 4], [4, 5, 1, 3, 0, 2], [1, 4, 2, 0, 5, 3],
                  [5, 2, 3, 4, 1, 0], [0, 3, 4, 5, 2, 1], [3, 1, 0, 2, 4, 5]]


def latin_square_graph(square) -> Graph:
    """The Latin-square graph of an m x m square: vertex m*r + c, adjacent iff
    the two cells share a row, a column or a symbol."""
    square = np.asarray(square)
    m = len(square)
    r, c = np.divmod(np.arange(m * m), m)
    s = square[r, c]
    adj = (r[:, None] == r) | (c[:, None] == c) | (s[:, None] == s)
    np.fill_diagonal(adj, False)
    return Graph(adj.astype(np.int64), label=f"LatinSquare({m})")


def paley_graph(q: int, perm=None) -> Graph:
    """The Paley graph on Z_q, q a prime = 1 mod 4 (x ~ y iff x - y is a
    nonzero square), relabelled to A[perm][:, perm] when perm is given."""
    diff = np.subtract.outer(np.arange(q), np.arange(q)) % q
    adj = np.isin(diff, [x * x % q for x in range(1, q)]).astype(np.int64)
    if perm is not None:
        adj = adj[perm][:, perm]
    return Graph(adj, label=f"Paley({q})")


# the Tutte 12-cage: 126 vertices, {3,2,2,2,2,2;1,1,1,1,1,3}, eigenvalues in
# Q, Q(sqrt 2) and Q(sqrt 6) at once
TUTTE_12_CAGE_LCF = [17, 27, -13, -59, -35, 35, -11, 13, -53, 53, -27, 21,
                     57, 11, -21, -57, 59, -17] * 7


def lcf_graph(code, label: str = "") -> Graph:
    """The cubic graph of an LCF code: the cycle 0..n-1 plus the chords
    v ~ v + code[v] (mod n)."""
    n = len(code)
    adj = np.zeros((n, n), dtype=np.int64)
    v = np.arange(n)
    for w in ((v + 1) % n, (v + np.asarray(code)) % n):
        adj[v, w] = adj[w, v] = 1
    return Graph(adj, label=label)


def graph_from_edges(n: int, edges) -> Graph:
    """The graph on 0..n-1 with the given edges."""
    adj = np.zeros((n, n), dtype=np.int8)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1
    return Graph(adj)


def neighbors(g, v: int) -> np.ndarray:
    """The neighbours of v in increasing label order."""
    return np.nonzero(g.adjacency[v])[0]


def span_contains(span, mat) -> bool:
    """Whether the integer matrix mat lies in the row space of an ExactSpan:
    its residue against the span's echelon rows is zero."""
    v = span._flatten(mat)
    return not span._residue(v, _max_abs(v)).any()


def distance_matrices(dd) -> list[np.ndarray]:
    """The distance matrices A_0..A_D as int64 0/1 arrays."""
    return [(dd.dist == i).astype(np.int64) for i in range(dd.D + 1)]


@dataclass
class SrgVertexRecord:
    local: object
    d2: object
    dim_t: int
    decomposition: object
    ds: object


@dataclass
class SrgGraphRecord:
    graph: object
    params: SrgParams
    vertices: list
    elapsed: float


def _srg_record(g) -> SrgGraphRecord:
    t0 = time.time()
    ctx = GraphContext.of(g)
    p = ctx.route[1]
    verts = []
    for x in range(g.n):
        local = ctx.subconstituent_spectrum(x, 1, allow_float=False)
        d2 = ctx.subconstituent_spectrum(x, 2, allow_float=False)
        dim_t = ctx.terwilliger_dimension(x)
        md = decompose(ctx, x)
        ds = dimension_sequence(md, p, d2)
        verts.append(SrgVertexRecord(local=local, d2=d2, dim_t=dim_t,
                                     decomposition=md, ds=ds))
    return SrgGraphRecord(graph=g, params=p, vertices=verts,
                          elapsed=time.time() - t0)


_SRG_BUILDERS = {
    "J(8,2)": lambda: johnson(8, 2),
    "Chang-1": lambda: chang(1),
    "Chang-2": lambda: chang(2),
    "Chang-3": lambda: chang(3),
    "Shrikhande": shrikhande,
    "4x4 grid": lambda: rook_grid(4),
    "K(2,2)": lambda: complete_bipartite(2),
    "K(3,3)": lambda: complete_bipartite(3),
    "3x3 grid": lambda: rook_grid(3),
    "T(6) complement": lambda: triangular_complement(6),
}


def _local_duality_check(s1, s2, p: SrgParams) -> bool:
    """lambda local in Delta_1 with mult m  <=>  a-c-lambda local in Delta_2 with mult m.

    'Local' means: not an eigenvalue of the ambient graph and carried by an
    eigenvector orthogonal to all-ones.
    """
    gamma_eigs = {AlgebraicScalar(p.k), p.sigma, p.tau}

    def locals_of(s, valency: int) -> dict:
        eff = effective_multiplicities(s, valency)
        return {v: m for v, m in eff.items() if v not in gamma_eigs}

    loc1 = locals_of(s1, p.a)
    loc2 = locals_of(s2, p.k - p.c)
    shift = AlgebraicScalar(p.a - p.c)
    mapped = {shift - v: m for v, m in loc1.items()}
    return mapped == loc2


def sympy_scalar(x: AlgebraicScalar):
    """An exact scalar as a sympy number."""
    import sympy

    return sympy.Rational(x.a.numerator, x.a.denominator) + \
        sympy.Rational(x.b.numerator, x.b.denominator) * sympy.sqrt(x.d)


def sympy_cosines(theta, params) -> list:
    """u_0(theta) .. u_D(theta) for a sympy number theta, from u_0 = 1,
    u_1 = theta / k and b_h u_(h+1) = (theta - a_h) u_h - c_h u_(h-1).  A test
    oracle, computed apart from scheme's integer P-matrix rows."""
    import sympy

    u = [sympy.Integer(1), theta / params.k]
    for h in range(1, params.D):
        u.append(sympy.expand(((theta - params.a[h]) * u[h] - params.c_at(h) * u[h - 1])
                              / params.b[h]))
    return u


def idempotent_profiles(ed, params) -> list[list]:
    """prof[h][i] = the constant value of E_i on the distance-h class, as a
    sympy number.

    E_i = (m_i / n) * sum_h u_h(theta_i) A_h with the cosine sequence u of
    sympy_cosines.  A test oracle: the idempotents written out entrywise.
    """
    import sympy

    D, n = params.D, params.n
    prof = [[None] * (D + 1) for _ in range(D + 1)]
    for i in range(D + 1):
        u = sympy_cosines(sympy_scalar(ed.theta[i]), params)
        for h in range(D + 1):
            prof[h][i] = sympy.expand(sympy.Rational(ed.mult[i], n) * u[h])
    return prof


@pytest.fixture(scope="session")
def local_duality_check():
    """The local-eigenvalue duality of a strongly regular graph, as a test oracle."""
    return _local_duality_check


@pytest.fixture(scope="session")
def srg_corpus():
    """Every diameter-2 acceptance graph with full per-vertex records."""
    return {name: _srg_record(build()) for name, build in _SRG_BUILDERS.items()}


@pytest.fixture(scope="session")
def chang_corpus(srg_corpus):
    return {name: srg_corpus[name]
            for name in ("J(8,2)", "Chang-1", "Chang-2", "Chang-3")}


@pytest.fixture
def float_local_spectra(monkeypatch):
    """Pretend every subconstituent fails certification and has a cubic
    factor, so each one takes the float fallback.  Both certificate bindings
    of spectra are forced, the one-matrix certified_factors and the stacked
    certified_stack of the subconstituent blocks.  Only symmetric matrices
    are: the intersection matrix, which scheme.eigen_data sends through the
    same spectra bindings, is not symmetric, so the graph spectrum stays
    exact."""
    certify, certify_stack = drgkit.spectra.certified_factors, drgkit.spectra.certified_stack
    monkeypatch.setattr(drgkit.spectra, "certified_factors",
                        lambda arr: None if (arr == arr.T).all() else certify(arr))
    monkeypatch.setattr(drgkit.spectra, "certified_stack",
                        lambda S: [None if (B == B.T).all() else key
                                   for B, key in zip(S, certify_stack(S))])
    monkeypatch.setattr(drgkit.spectra, "eigenvalues_from_charpoly", lambda coeffs: None)


@pytest.fixture(scope="session")
def ico():
    return icosahedron()


@pytest.fixture(scope="session")
def j84():
    return johnson(8, 4)
