"""Constructors for the named graphs, with documented canonical labelings.

Labelings are part of the contract so that per-vertex witnesses are
reproducible:

* johnson(n, k): vertices are the k-subsets of {0..n-1} in colexicographic
  order (sort each subset descending, compare lexicographically the reversed
  tuples); two subsets are adjacent iff they share k-1 elements.
* shrikhande: Cayley graph of Z4 x Z4 with connection set
  {+-(1,0), +-(0,1), +-(1,1)}; vertex (i, j) has index 4*i + j.
* rook_grid(m): line graph of K_{m,m}; vertex (r, c) has index m*r + c,
  adjacency iff same row or same column.
* halved_cube(n): even-weight binary words of length n (bit i of the integer
  is coordinate i), listed in increasing integer order; adjacent iff Hamming
  distance 2.
* hamming(d, q): words of length d over {0..q-1}, base-q integer order;
  adjacent iff Hamming distance 1.
* triangular_complement(m): complement of johnson(m, 2).
* complete_bipartite(t): K_{t,t}, left part 0..t-1, right part t..2t-1.
* icosahedron: fixed 12-vertex edge list (two antipodal 5-wheels).
* chang(v): Seidel switch of johnson(8, 2) by the classical switching sets,
  given as 1-based 2-subsets and translated to the colex labels.

johnson, halved_cube, hamming and rook_grid are built from these words (as
incidence vectors, bits and digits) by one _word_graph, which counts the
agreements of all pairs of words with one float32 product of one-hot codes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph_core import MAX_VERTICES, Graph, GraphError, require_size

__all__ = [
    "FamilySpec",
    "FAMILY_ARITY",
    "construct",
    "seidel_switch",
    "johnson",
    "johnson_vertex_index",
    "halved_cube",
    "hamming",
    "shrikhande",
    "rook_grid",
    "triangular_complement",
    "complete_bipartite",
    "icosahedron",
    "chang",
]

FAMILY_ARITY = {
    "johnson": 2,
    "halved_cube": 1,
    "hamming": 2,
    "shrikhande": 0,
    "rook_grid": 1,
    "triangular_complement": 1,
    "complete_bipartite": 1,
    "icosahedron": 0,
    "chang": 1,
}


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        if self.family not in FAMILY_ARITY:
            raise GraphError("family", f"unknown family {self.family!r}")
        object.__setattr__(self, "params", tuple(int(p) for p in self.params))
        if len(self.params) != FAMILY_ARITY[self.family]:
            raise GraphError(
                "arity",
                f"{self.family} takes {FAMILY_ARITY[self.family]} parameter(s), "
                f"got {len(self.params)}",
            )


def construct(spec: FamilySpec) -> Graph:
    """Build the named family member."""
    fn = {
        "johnson": johnson,
        "halved_cube": halved_cube,
        "hamming": hamming,
        "shrikhande": shrikhande,
        "rook_grid": rook_grid,
        "triangular_complement": triangular_complement,
        "complete_bipartite": complete_bipartite,
        "icosahedron": icosahedron,
        "chang": chang,
    }[spec.family]
    return fn(*spec.params)


def _capped_power(q: int, d: int) -> int:
    """q**d for q >= 2, stopping early once it exceeds MAX_VERTICES."""
    size = 1
    for _ in range(d):
        size *= q
        if size > MAX_VERTICES:
            break
    return size


def _digits(q: int, d: int) -> np.ndarray:
    """Row w holds the d base-q digits of w, least significant first, for
    w = 0 .. q**d - 1 (a size the caller has checked)."""
    return np.arange(q**d)[:, None] // q ** np.arange(d) % q


def _word_graph(words: np.ndarray, t: int, label: str) -> Graph:
    """The rows of a small-integer array, adjacent iff they differ in exactly
    t coordinates.

    Agreements are counted by one float32 product of one-hot codes, exact
    because every entry is at most the word length, far below 2**24.
    """
    n, d = words.shape
    onehot = (words[:, :, None] == np.arange(int(words.max()) + 1)).reshape(n, -1)
    agree = onehot.astype(np.float32) @ onehot.T.astype(np.float32)
    return Graph((agree == d - t).astype(np.int8), label=label)


def _colex_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    return sorted(itertools.combinations(range(n), k), key=lambda s: s[::-1])


def johnson_vertex_index(n: int, k: int, subset: Sequence[int]) -> int:
    """Colex position of a k-subset of {0..n-1}."""
    target = tuple(sorted(int(v) for v in subset))
    return _colex_subsets(n, k).index(target)


def johnson(n: int, k: int) -> Graph:
    if not (0 < k < n):
        raise GraphError("params", f"johnson needs 0 < k < n, got ({n}, {k})")
    # C(n, k) >= n: testing n first keeps math.comb off huge arguments
    require_size(f"J({n},{k})", n if n > MAX_VERTICES else math.comb(n, k))
    verts = np.array(_colex_subsets(n, k))
    incidence = np.zeros((len(verts), n), dtype=np.int8)
    incidence[np.arange(len(verts))[:, None], verts] = 1
    return _word_graph(incidence, 2, f"J({n},{k})")


def halved_cube(n: int) -> Graph:
    if n < 2:
        raise GraphError("params", "halved_cube needs n >= 2")
    require_size(f"1/2 H({n},2)", _capped_power(2, n - 1))
    bits = _digits(2, n)
    return _word_graph(bits[bits.sum(axis=1) % 2 == 0], 2, f"1/2 H({n},2)")


def hamming(d: int, q: int) -> Graph:
    if d < 1 or q < 2:
        raise GraphError("params", "hamming needs d >= 1 and q >= 2")
    require_size(f"H({d},{q})", _capped_power(q, d))
    return _word_graph(_digits(q, d), 1, f"H({d},{q})")


def shrikhande() -> Graph:
    conn = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
    adj = np.zeros((16, 16), dtype=np.int8)
    for i in range(4):
        for j in range(4):
            for di, dj in conn:
                adj[4 * i + j, 4 * ((i + di) % 4) + ((j + dj) % 4)] = 1
    return Graph(adj, label="Shrikhande")


def rook_grid(m: int) -> Graph:
    if m < 2:
        raise GraphError("params", "rook_grid needs m >= 2")
    require_size(f"{m}x{m} grid", m * m)
    return _word_graph(_digits(m, 2), 1, f"{m}x{m} grid")


def triangular_complement(m: int) -> Graph:
    if m < 4:
        raise GraphError("params", "triangular_complement needs m >= 4")
    base = johnson(m, 2)
    comp = 1 - base.adjacency - np.eye(base.n, dtype=np.int8)
    return Graph(comp, label=f"T({m}) complement")


def complete_bipartite(t: int) -> Graph:
    if t < 1:
        raise GraphError("params", "complete_bipartite needs t >= 1")
    require_size(f"K({t},{t})", 2 * t)
    adj = np.zeros((2 * t, 2 * t), dtype=np.int8)
    adj[:t, t:] = 1
    adj[t:, :t] = 1
    return Graph(adj, label=f"K({t},{t})")


_ICOSAHEDRON_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
    (1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
    (6, 7), (6, 8), (6, 9), (6, 10), (6, 11),
    (7, 8), (8, 9), (9, 10), (10, 11), (11, 7),
    (1, 9), (1, 10), (2, 10), (2, 11), (3, 11),
    (3, 7), (4, 7), (4, 8), (5, 8), (5, 9),
]


def icosahedron() -> Graph:
    adj = np.zeros((12, 12), dtype=np.int8)
    for u, v in _ICOSAHEDRON_EDGES:
        adj[u, v] = adj[v, u] = 1
    return Graph(adj, label="icosahedron")


def seidel_switch(g: Graph, s: Sequence[int]) -> Graph:
    """Complement adjacency between s and its complement; an involution."""
    sset = set(int(v) for v in s)
    for v in sset:
        if not 0 <= v < g.n:
            raise GraphError("out-of-range", f"vertex {v}")
    adj = np.array(g.adjacency, dtype=np.int8)
    inside = np.zeros(g.n, dtype=bool)
    inside[list(sset)] = True
    cross = np.outer(inside, ~inside)
    cross = cross | cross.T
    adj[cross] = 1 - adj[cross]
    return Graph(adj, label=f"{g.label}/switched" if g.label else "switched")


# classical switching sets yielding the three Chang graphs from J(8,2),
# written as 1-based 2-subsets of {1..8}: a perfect matching, an 8-cycle,
# and a triangle plus a pentagon
_CHANG_SETS = {
    1: [(1, 5), (2, 6), (3, 7), (4, 8)],
    2: [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 1)],
    3: [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 7), (7, 8), (8, 4)],
}


def chang_switching_set(variant: int) -> list[int]:
    """The 0-based colex vertex labels of the switching set for chang(variant)."""
    if variant not in _CHANG_SETS:
        raise GraphError("params", "chang variant must be 1, 2 or 3")
    return [johnson_vertex_index(8, 2, (a - 1, b - 1)) for a, b in _CHANG_SETS[variant]]


def chang(variant: int) -> Graph:
    g = seidel_switch(johnson(8, 2), chang_switching_set(variant))
    return Graph(g.adjacency, label=f"Chang-{variant}")
