"""Dual idempotents and exact generation of T(x).

The algebra is generated from {A, E*_0, ..., E*_D} rather than {A, A*}: the
two generating sets give the same algebra, but integer generators keep the
whole closure over Z, so no surd ever enters the span arithmetic.

Closure strategy: "spinning", the MeatAxe step (Parker 1984; Holt-Rees 1994).
Start from span{I} and close it under left multiplication by the generators
only.  The closed span contains every word G_1 G_2 ... G_r in the generators
(G_1 times the shorter word G_2 ... G_r, which is already inside), and it lies
inside the algebra, so it is the algebra.  That takes dim * (#generators)
products instead of the dim^2 of a pairwise closure.  Basis elements are the
reduced echelon residues of exactla.ExactSpan; their stripped content keeps
products comfortably inside int64.  A diagonal generator (every E*_i) acts by
scaling rows instead of a matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exactla import ExactSpan, _as_int_array, _imatmul, _scale_rows
from .graph_core import DistanceData, Graph, distances

__all__ = [
    "DualIdempotents",
    "AlgebraBasis",
    "dual_idempotents",
    "algebra_closure",
    "terwilliger_dimension",
]


@dataclass(frozen=True)
class DualIdempotents:
    """E*_0 .. E*_D at the base vertex: E*_i is the diagonal 0/1 projection
    onto the distance-i class, stored as its diagonal."""

    base: int
    indicators: tuple  # int64 0/1 vectors of length n, indices 0..D


def dual_idempotents(g: Graph, x: int, dd: Optional[DistanceData] = None) -> DualIdempotents:
    dd = dd or distances(g)
    return DualIdempotents(
        base=int(x),
        indicators=tuple((dd.dist[x] == i).astype(np.int64) for i in range(dd.D + 1)),
    )


@dataclass(frozen=True)
class AlgebraBasis:
    """A generated unital matrix algebra: generators, reduced basis, dimension."""

    generators: tuple
    basis: tuple  # integer arrays, reduced echelon representatives; basis[0] == I
    dim: int


def _left_multiplier(G: np.ndarray):
    """M -> G @ M for an integer matrix G; a diagonal G scales rows instead."""
    diag = G.diagonal()
    if np.count_nonzero(G) == np.count_nonzero(diag):
        return lambda M: _scale_rows(diag, M)
    return lambda M: _imatmul(G, M)


def algebra_closure(generators: Sequence[np.ndarray]) -> AlgebraBasis:
    """Unital algebra generated by the given integer matrices.

    Spins span{I} under left multiplication: every stored basis element M is
    visited once, and G @ M is inserted for each generator G.  When all
    elements are visited the span is closed under left multiplication by the
    generators and contains I, hence every word in them, so it is the whole
    algebra.  Terminates because the dimension is bounded by n^2.  Products
    run on int64 arrays, or on Python ints when a bound check fails (object
    arrays are accepted as generators too).
    """
    gens = [_as_int_array(G) for G in generators]
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].shape[0]
    if any(G.shape != (n, n) for G in gens):
        raise ValueError("generators must be square and equally sized")
    left = [_left_multiplier(G) for G in gens]
    span = ExactSpan(n * n)
    span.insert(np.eye(n, dtype=np.int64))
    basis = [span.last_row.v.reshape(n, n)]
    pos = 0
    while pos < len(basis):
        M = basis[pos]
        pos += 1
        for mul in left:
            if span.insert(mul(M)):
                basis.append(span.last_row.v.reshape(n, n))
    return AlgebraBasis(generators=tuple(gens), basis=tuple(basis), dim=span.dim)


def terwilliger_dimension(g: Graph, x: int, dd: Optional[DistanceData] = None) -> int:
    """dim T(x) via brute-force closure of {A, E*_0..E*_D}."""
    dd = dd or distances(g)
    gens = [np.asarray(g.adjacency, dtype=np.int64)]
    gens += [np.diag(e) for e in dual_idempotents(g, x, dd).indicators]
    return algebra_closure(gens).dim
