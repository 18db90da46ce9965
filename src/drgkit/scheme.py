"""Distance-regularity, intersection numbers, Bose-Mesner idempotents, Krein
parameters, Q-polynomial orderings, antipodality, and the tightness bound.

Eigenvalues are taken from the (D+1) x (D+1) tridiagonal intersection matrix,
so exactness is a root-finding problem on a quintic at worst; roots must lie
in Q or a single quadratic field, otherwise the whole eigen-structure is
flagged as float fallback.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .exactla import (
    AlgebraicScalar,
    ExactMatrix,
    charpoly_int,
    eigenprojection,
    eigenvalues_from_charpoly,
)
from .graph_core import DistanceData, Graph, GraphError, distances

__all__ = [
    "DrgParameters",
    "EigenData",
    "KreinData",
    "TightnessResult",
    "NotDistanceRegularError",
    "verify_drg",
    "intersection_matrix",
    "eigen_data",
    "krein",
    "antipodality",
    "tightness",
]


class NotDistanceRegularError(ValueError):
    """Raised with a witness (h, i, j, x, y) where p^h_ij fails to be constant."""

    def __init__(self, h, i, j, x, y):
        self.witness = (h, i, j, x, y)
        super().__init__(
            f"not distance-regular: |G_{i}(x) n G_{j}(y)| differs within "
            f"distance class {h}; witness x={x}, y={y}"
        )


@dataclass(frozen=True)
class DrgParameters:
    """Full intersection-number data of a distance-regular graph."""

    n: int
    D: int
    k: int
    b: tuple[int, ...]  # b_0 .. b_{D-1}
    c: tuple[int, ...]  # c_1 .. c_D
    a: tuple[int, ...]  # a_0 .. a_D
    p: tuple  # p[h][i][j]
    k_i: tuple[int, ...]  # class sizes

    @property
    def intersection_array(self) -> str:
        bs = ",".join(str(x) for x in self.b)
        cs = ",".join(str(x) for x in self.c)
        return "{" + bs + ";" + cs + "}"

    def b_at(self, i: int) -> int:
        return self.b[i] if i < self.D else 0

    def c_at(self, i: int) -> int:
        return self.c[i - 1] if 1 <= i <= self.D else 0


def verify_drg(g: Graph, dd: Optional[DistanceData] = None) -> DrgParameters:
    """Check constancy of every p^h_ij over all vertex pairs; return the data.

    Uses the algebraic identity A_i A_j = sum_h p^h_ij A_h: the (x, y) entry of
    A_i A_j counts |G_i(x) n G_j(y)|, so constancy on each distance class is
    exactly distance-regularity.
    """
    g.require_connected()
    dd = dd or distances(g)
    D, n = dd.D, g.n
    if D == 0:
        raise GraphError("diameter", "a single vertex has diameter 0; "
                         "distance-regular analysis needs diameter >= 1")
    masks = [dd.A[h] == 1 for h in range(D + 1)]
    p = [[[0] * (D + 1) for _ in range(D + 1)] for _ in range(D + 1)]
    for i in range(D + 1):
        for j in range(i, D + 1):
            prod = dd.A[i] @ dd.A[j]
            for h in range(D + 1):
                vals = prod[masks[h]]
                v0 = int(vals[0])
                if (vals != v0).any():
                    flat = np.nonzero(masks[h] & (prod != v0))
                    x, y = int(flat[0][0]), int(flat[1][0])
                    raise NotDistanceRegularError(h, i, j, x, y)
                p[h][i][j] = p[h][j][i] = v0
    k = p[0][1][1]
    b = tuple(p[i][1][i + 1] for i in range(D))
    c = tuple(p[i][1][i - 1] for i in range(1, D + 1))
    a = tuple(p[i][1][i] for i in range(D + 1))
    k_i = tuple(p[0][i][i] for i in range(D + 1))
    params = DrgParameters(
        n=n, D=D, k=k, b=b, c=c, a=a,
        p=tuple(tuple(tuple(r) for r in m) for m in p), k_i=k_i,
    )
    assert all(params.c_at(i) + params.a[i] + params.b_at(i) == k for i in range(D + 1))
    return params


def intersection_matrix(params: DrgParameters) -> np.ndarray:
    """(D+1) x (D+1) tridiagonal matrix of A acting on the distance partition:
    entry (i-1, i) = b_{i-1}, (i, i) = a_i, (i+1, i) = c_{i+1}."""
    D = params.D
    M = np.zeros((D + 1, D + 1), dtype=np.int64)
    for i in range(D + 1):
        M[i, i] = params.a[i]
        if i < D:
            M[i, i + 1] = params.b[i]
            M[i + 1, i] = params.c[i]
    return M


@dataclass(frozen=True)
class EigenData:
    """Eigenvalues theta_0 > ... > theta_D, multiplicities, and idempotents."""

    theta: tuple  # AlgebraicScalar, descending (floats in fallback mode)
    mult: tuple[int, ...]
    E: tuple  # ExactMatrix idempotents (float ndarray projectors in fallback)
    exact: bool = True


def eigen_data(g: Graph, params: DrgParameters,
               dd: Optional[DistanceData] = None) -> EigenData:
    """Exact spectrum and primitive idempotents of a distance-regular graph.

    Falls back to floats (flagged) when the intersection-matrix charpoly has
    an irreducible factor of degree >= 3.
    """
    B = intersection_matrix(params)
    pairs = eigenvalues_from_charpoly(charpoly_int(B))
    A = ExactMatrix.from_int(np.asarray(g.adjacency, dtype=np.int64))
    if pairs is None:
        evals = np.linalg.eigvals(B.astype(float))
        theta = tuple(sorted((float(v.real) for v in evals), reverse=True))
        fev, fvec = np.linalg.eigh(g.adjacency.astype(float))
        E, mult = [], []
        for t in theta:
            idx = [i for i, v in enumerate(fev) if abs(v - t) < 1e-8]
            P = fvec[:, idx] @ fvec[:, idx].T
            E.append(P)
            mult.append(len(idx))
        return EigenData(theta=theta, mult=tuple(mult), E=tuple(E), exact=False)
    theta = [v for v, m in pairs]  # intersection matrix has simple spectrum
    if any(m != 1 for _, m in pairs) or len(theta) != params.D + 1:
        raise ValueError("intersection matrix spectrum is not simple")
    E = eigenprojection(A, theta)
    mult = []
    for Ei in E:
        tr = Ei.trace()
        if not tr.is_integer:
            raise ValueError("idempotent trace is not an integer")
        mult.append(tr.as_int())
    if sum(mult) != g.n or mult[0] != 1:
        raise ValueError("multiplicities do not sum to n with m_0 = 1")
    return EigenData(theta=tuple(theta), mult=tuple(mult), E=tuple(E), exact=True)


@dataclass(frozen=True)
class KreinData:
    """Krein parameters q^h_ij and all Q-polynomial orderings fixing E_0."""

    q: tuple  # q[h][i][j] as AlgebraicScalar
    qpoly_orderings: tuple[tuple[int, ...], ...]


def _solve_linear(mat, rhs):
    """Solve a small dense system over AlgebraicScalar by Gaussian elimination."""
    n = len(rhs)
    M = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c].sign() != 0), None)
        if piv is None:
            raise ValueError("singular system")
        M[c], M[piv] = M[piv], M[c]
        inv = M[c][c].inverse()
        M[c] = [v * inv for v in M[c]]
        for r in range(n):
            if r != c and M[r][c].sign() != 0:
                f = M[r][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return [M[i][n] for i in range(n)]


def idempotent_profiles(ed: EigenData, params: DrgParameters) -> list[list[AlgebraicScalar]]:
    """prof[h][i] = the constant value of E_i on the distance-h class.

    Computed from the standard three-term recurrence for the cosine sequence
    u_h(theta): u_0 = 1, b_h u_{h+1} = (theta - a_h) u_h - c_h u_{h-1}, with
    E_i = (m_i / n) * sum_h u_h(theta_i) A_h.
    """
    D, n = params.D, params.n
    prof = [[None] * (D + 1) for _ in range(D + 1)]
    for i in range(D + 1):
        u = [AlgebraicScalar(1)]
        for h in range(D):
            prev = u[h - 1] if h >= 1 else AlgebraicScalar(0)
            u.append(((ed.theta[i] - params.a[h]) * u[h] - params.c_at(h) * prev)
                     / params.b[h])
        scale = AlgebraicScalar(Fraction(ed.mult[i], n))
        for h in range(D + 1):
            prof[h][i] = u[h] * scale
    return prof


def krein(ed: EigenData, params: DrgParameters) -> KreinData:
    """Krein parameters from the entrywise products of the idempotents.

    Each E_i is constant on the distance classes, so it is determined by its
    profile vector over h = 0..D; the q^h_ij are read off by solving one
    (D+1)-dimensional linear system per pair (i, j), exactly.
    """
    if not ed.exact:
        raise ValueError("Krein parameters need exact eigen data")
    D, n = params.D, params.n
    prof = idempotent_profiles(ed, params)
    zero = AlgebraicScalar(0)
    q = [[[zero] * (D + 1) for _ in range(D + 1)] for _ in range(D + 1)]
    nn = AlgebraicScalar(n)
    for i in range(D + 1):
        for j in range(i, D + 1):
            rhs = [prof[h][i] * prof[h][j] for h in range(D + 1)]
            coef = _solve_linear([row[:] for row in prof], rhs)
            for h in range(D + 1):
                val = coef[h] * nn
                if val.sign() < 0:
                    raise ValueError(f"negative Krein parameter q^{h}_{{{i}{j}}} = {val}")
                q[h][i][j] = q[h][j][i] = val
    orderings = []
    for perm in itertools.permutations(range(1, D + 1)):
        order = (0,) + perm
        ok = True
        for h in range(D + 1):
            for i in range(D + 1):
                for j in range(D + 1):
                    val = q[order[h]][order[i]][order[j]]
                    hi, lo = max(h, i, j), h + i + j - max(h, i, j)
                    if hi > lo and val.sign() != 0:
                        ok = False
                    elif hi == lo and val.sign() == 0:
                        ok = False
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            orderings.append(order)
    return KreinData(
        q=tuple(tuple(tuple(r) for r in m) for m in q),
        qpoly_orderings=tuple(orderings),
    )


def antipodality(g: Graph, dd: Optional[DistanceData] = None) -> Optional[dict[int, int]]:
    """The antipode map x -> x^ when g is an antipodal double cover, else None.

    A distance-regular graph is an antipodal double cover exactly when every
    vertex has a unique vertex at maximal distance.
    """
    dd = dd or distances(g)
    if dd.D < 2:
        return None
    antipode = {}
    for x in range(g.n):
        far = dd.classes_from(x, dd.D)
        if len(far) != 1:
            return None
        antipode[x] = int(far[0])
    for x, y in antipode.items():
        if antipode[y] != x:
            return None
    return antipode


@dataclass(frozen=True)
class TightnessResult:
    is_tight: bool
    bipartite: bool
    lhs: Optional[AlgebraicScalar]  # (theta_1 + k/(a_1+1)) (theta_D + k/(a_1+1))
    rhs: Optional[AlgebraicScalar]  # -k a_1 b_1 / (a_1+1)^2
    b_plus: Optional[AlgebraicScalar]
    b_minus: Optional[AlgebraicScalar]


def tightness(params: DrgParameters, ed: EigenData) -> TightnessResult:
    """Evaluate the fundamental bound exactly and the local eigenvalues b+-.

    Bipartite graphs (theta_D = -k) have 1 + theta_D = 0 and are reported as
    'tightness undefined' rather than by division.
    """
    if params.D < 3:
        raise ValueError("tightness needs diameter >= 3")
    if not ed.exact:
        raise ValueError("tightness needs exact eigen data")
    k = AlgebraicScalar(params.k)
    a1 = AlgebraicScalar(params.a[1])
    b1 = AlgebraicScalar(params.b[1])
    th1, thD = ed.theta[1], ed.theta[params.D]
    if thD == -k:
        return TightnessResult(is_tight=False, bipartite=True, lhs=None, rhs=None,
                               b_plus=None, b_minus=None)
    shift = k / (a1 + 1)
    lhs = (th1 + shift) * (thD + shift)
    rhs = AlgebraicScalar(-1) * k * a1 * b1 / ((a1 + 1) * (a1 + 1))
    b_plus = AlgebraicScalar(-1) - b1 / (AlgebraicScalar(1) + thD)
    b_minus = AlgebraicScalar(-1) - b1 / (AlgebraicScalar(1) + th1)
    return TightnessResult(
        is_tight=(lhs == rhs),
        bipartite=False,
        lhs=lhs,
        rhs=rhs,
        b_plus=b_plus,
        b_minus=b_minus,
    )
