"""Dual idempotents, dual adjacency, and exact generation of T(x).

The algebra is generated from {A, E*_0, ..., E*_D} rather than {A, A*}: the
two generating sets give the same algebra, but integer generators keep the
whole closure over Q, so no surd ever enters the span arithmetic.

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

from .exactla import ExactMatrix, ExactSpan, _imatmul, _scale_rows
from .graph_core import DistanceData, Graph, distances
from .scheme import DrgParameters, EigenData, intersection_matrix

__all__ = [
    "DualIdempotents",
    "DualAdjacency",
    "AlgebraBasis",
    "dual_idempotents",
    "dual_adjacency",
    "algebra_closure",
    "terwilliger_dimension",
    "tridiagonal_primary",
]


@dataclass(frozen=True)
class DualIdempotents:
    """Diagonal 0/1 projections onto the distance classes from the base vertex."""

    base: int
    E_star: tuple  # ExactMatrix, indices 0..D

    def indicator(self, i: int) -> np.ndarray:
        return self.E_star[i].int_array().diagonal().copy()


def dual_idempotents(g: Graph, x: int, dd: Optional[DistanceData] = None) -> DualIdempotents:
    dd = dd or distances(g)
    mats = []
    for i in range(dd.D + 1):
        diag = (dd.dist[x] == i).astype(np.int64)
        mats.append(ExactMatrix.from_int(np.diag(diag)))
    return DualIdempotents(base=int(x), E_star=tuple(mats))


@dataclass(frozen=True)
class DualAdjacency:
    """Dual adjacency matrix A* = A*_1(x) for a chosen Q-polynomial ordering."""

    base: int
    ordering: tuple[int, ...]
    A_star: ExactMatrix
    theta_star: tuple  # dual eigenvalues, one per distance class 0..D


def dual_adjacency(g: Graph, x: int, ed: EigenData, ordering: Sequence[int],
                   dd: Optional[DistanceData] = None) -> DualAdjacency:
    """A* built from E_1 of the ordering: (A*)_yy = |X| * (E_1)_{x,y}.

    The diagonal must be constant on each distance class from x (these
    constants are the dual eigenvalues, mutually distinct); a non-constant
    diagonal means the ordering was not Q-polynomial or upstream data is bad.
    """
    if not ed.exact:
        raise ValueError("dual adjacency needs exact eigen data")
    dd = dd or distances(g)
    order = tuple(int(i) for i in ordering)
    if sorted(order) != list(range(dd.D + 1)) or order[0] != 0:
        raise ValueError(f"not a valid ordering: {order}")
    E1 = ed.E[order[1]]
    n = g.n
    diag = [E1.entry(x, y) * n for y in range(n)]
    theta_star = []
    for i in range(dd.D + 1):
        cls = dd.classes_from(x, i)
        val = diag[cls[0]]
        for y in cls[1:]:
            if diag[y] != val:
                raise ValueError(
                    f"A* diagonal not constant on distance class {i} of vertex {x}"
                )
        theta_star.append(val)
    for i in range(len(theta_star)):
        for j in range(i + 1, len(theta_star)):
            if theta_star[i] == theta_star[j]:
                raise ValueError("dual eigenvalues are not mutually distinct")
    return DualAdjacency(
        base=int(x),
        ordering=order,
        A_star=ExactMatrix.diagonal(diag),
        theta_star=tuple(theta_star),
    )


@dataclass(frozen=True)
class AlgebraBasis:
    """A generated unital matrix algebra: generators, reduced basis, dimension."""

    generators: tuple
    basis: tuple  # ExactMatrix, reduced echelon representatives; basis[0] == I
    dim: int


def _left_multiplier(G: np.ndarray):
    """M -> G @ M for an integer matrix G; a diagonal G scales rows instead."""
    diag = G.diagonal()
    if np.count_nonzero(G) == np.count_nonzero(diag):
        return lambda M: _scale_rows(diag, M)
    return lambda M: _imatmul(G, M)


def algebra_closure(generators: Sequence[ExactMatrix]) -> AlgebraBasis:
    """Unital algebra generated by the given exact matrices.

    Spins span{I} under left multiplication: every stored basis element M is
    visited once, and G @ M is inserted for each generator G.  When all
    elements are visited the span is closed under left multiplication by the
    generators and contains I, hence every word in them, so it is the whole
    algebra.  Terminates because the dimension is bounded by n^2.  Integer
    generators run on int64 arrays (Python ints when a bound check fails);
    surd or fractional generators run the same loop on ExactMatrix products.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].rows
    for m in gens:
        if m.shape != (n, n):
            raise ValueError("generators must be square and equally sized")
    d = 0
    for m in gens:
        if m.d:
            if d and m.d != d:
                raise ValueError("generators do not share one quadratic field")
            d = m.d
    integral = all(m.is_integer_matrix() for m in gens)
    if integral:
        left = [_left_multiplier(m.int_array()) for m in gens]
    else:
        left = [m.__matmul__ for m in gens]
    span = ExactSpan(n * n, d)

    def residue():
        row = span.last_row
        if integral:
            return row.va.reshape(n, n)
        return ExactMatrix(row.va.reshape(n, n),
                           None if row.vb is None else row.vb.reshape(n, n), d=d)

    span.insert(ExactMatrix.identity(n))
    basis = [residue()]
    pos = 0
    while pos < len(basis):
        M = basis[pos]
        pos += 1
        for mul in left:
            if span.insert(mul(M)):
                basis.append(residue())
    if integral:
        basis = [ExactMatrix.from_int(b) for b in basis]
    return AlgebraBasis(generators=tuple(gens), basis=tuple(basis), dim=span.dim)


def terwilliger_dimension(g: Graph, x: int, dd: Optional[DistanceData] = None) -> int:
    """dim T(x) via brute-force closure of {A, E*_0..E*_D}."""
    dd = dd or distances(g)
    gens = [ExactMatrix.from_int(np.asarray(g.adjacency, dtype=np.int64))]
    gens += list(dual_idempotents(g, x, dd).E_star)
    return algebra_closure(gens).dim


def tridiagonal_primary(params: DrgParameters) -> ExactMatrix:
    """Matrix of A on the standard basis of the primary module: row i carries
    (c_i, a_i, b_i) in columns i-1, i, i+1."""
    return ExactMatrix.from_int(intersection_matrix(params))
