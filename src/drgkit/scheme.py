"""Distance-regularity, intersection numbers, eigenvalues and multiplicities,
Krein parameters, Q-polynomial orderings, antipodality, the tightness bound, and
recognition of the Taylor and AT4(p, q, 2) intersection arrays.

Only verify_drg (and antipodality) looks at the n x n graph.  verify_drg
multiplies 0/1 class indicators in float32, which is exact because every entry
counts at most n <= MAX_VERTICES < 2**24 vertices.  Everything else is computed
from the intersection array: the eigenvalues are those of the (D+1) x (D+1)
tridiagonal intersection matrix, certified by exactla.certified_factors like
any other integer matrix (the matrix is not symmetric, but its eigenvalues
are real and simple); the multiplicities (Biggs' formula) and the Krein
parameters (a closed form, BCN Sect. 2.3) follow from the cosine sequences.
Roots must lie in Q or a single quadratic field, otherwise the spectrum is
flagged as float fallback.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exactla import (
    AlgebraicScalar,
    certified_factors,
    charpoly_int,
    eigenvalues_from_charpoly,
    factor_roots,
)
from .graph_core import DistanceData, Graph, GraphError, distances, require_size

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
    "taylor_parameters",
    "at4_intersection_array",
    "at4_parameters",
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
    exactly distance-regularity.  The class indicators are built from dist as
    they are needed and multiplied in float32, exactly (see the module
    docstring).  Every pair is compared with the first pair of its class in
    row-major order; the first pair that differs is the witness.
    """
    g.require_connected()
    require_size("graph", g.n)
    dd = dd or distances(g)
    D, n, dist = dd.D, g.n, dd.dist
    if D == 0:
        raise GraphError("diameter", "a single vertex has diameter 0; "
                         "distance-regular analysis needs diameter >= 1")
    first = [int(np.argmax(dist.ravel() == h)) for h in range(D + 1)]
    p = [[[0] * (D + 1) for _ in range(D + 1)] for _ in range(D + 1)]
    for i in range(D + 1):
        Ai = (dist == i).astype(np.float32)
        for j in range(i, D + 1):
            prod = Ai @ (dist == j).astype(np.float32)
            v = prod.ravel()[first]
            bad = prod != v[dist]
            if bad.any():
                h = int(dist[bad].min())
                x, y = (int(t) for t in np.argwhere(bad & (dist == h))[0])
                raise NotDistanceRegularError(h, i, j, x, y)
            for h in range(D + 1):
                p[h][i][j] = p[h][j][i] = int(v[h])
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
    """Eigenvalues theta_0 > ... > theta_D and their multiplicities."""

    theta: tuple  # AlgebraicScalar, descending (floats in fallback mode)
    mult: tuple[int, ...]
    exact: bool = True


def cosine_sequence(theta, params: DrgParameters) -> list:
    """u_0(theta) .. u_D(theta) from the three-term recurrence u_0 = 1,
    b_h u_{h+1} = (theta - a_h) u_h - c_h u_{h-1}; theta is an AlgebraicScalar,
    or a float in fallback mode."""
    u = [1, theta / params.k]
    for h in range(1, params.D):
        u.append(((theta - params.a[h]) * u[h] - params.c_at(h) * u[h - 1]) / params.b[h])
    return u


def multiplicity(theta, params: DrgParameters) -> int:
    """Multiplicity of the eigenvalue theta by Biggs' formula
    m = n / sum_h k_h u_h(theta)^2 (BCN Thm 4.1.4).

    An exact theta must give a positive integer; a float theta must land within
    1e-6 of one.  Anything else means theta is not an eigenvalue: ValueError.
    """
    u = cosine_sequence(theta, params)
    m = params.n / sum(k * v * v for k, v in zip(params.k_i, u))
    if isinstance(m, AlgebraicScalar):
        if not m.is_integer or m.as_int() < 1:
            raise ValueError(f"multiplicity of {theta} is {m}, not a positive integer")
        return m.as_int()
    r = round(m)
    if abs(m - r) > 1e-6 or r < 1:
        raise ValueError(f"multiplicity of {theta} is {m!r}, not near a positive integer")
    return r


def eigen_data(g: Graph, params: DrgParameters,
               dd: Optional[DistanceData] = None) -> EigenData:
    """Spectrum of a distance-regular graph from its intersection array.

    The eigenvalues are those of the (D+1) x (D+1) intersection matrix,
    certified by certified_factors (charpoly_int and eigenvalues_from_charpoly
    when it declines), and the multiplicities come from Biggs' formula, so no
    n x n matrix is built.  The exact result must satisfy m_0 = 1,
    sum m_i = n, sum m_i theta_i = tr A = 0 and sum m_i theta_i^2 = tr A^2
    = n k.  Falls back to floats (flagged) when the intersection-matrix
    charpoly has an irreducible factor of degree >= 3; the rounded float
    multiplicities must still sum to n.  Only params is read; g and dd keep
    the signature of the other per-graph layers.
    """
    B = intersection_matrix(params)
    n, k = params.n, params.k
    key = certified_factors(B)
    if key is None:
        key = eigenvalues_from_charpoly(charpoly_int(B))
    if key is None:
        evals = np.linalg.eigvals(B.astype(float))
        theta = tuple(sorted((float(v.real) for v in evals), reverse=True))
        mult = tuple(multiplicity(t, params) for t in theta)
        if sum(mult) != n:
            raise ValueError(f"float multiplicities {mult} do not sum to n = {n}")
        return EigenData(theta=theta, mult=mult, exact=False)
    pairs = factor_roots(key)
    theta = tuple(v for v, _ in pairs)
    if any(m != 1 for _, m in pairs) or len(theta) != params.D + 1:
        raise ValueError("intersection matrix spectrum is not simple")
    mult = tuple(multiplicity(t, params) for t in theta)
    if mult[0] != 1 or sum(mult) != n:
        raise ValueError("multiplicities do not sum to n with m_0 = 1")
    if sum(m * t for m, t in zip(mult, theta)) != 0:
        raise ValueError("multiplicities contradict tr A = 0")
    if sum(m * t * t for m, t in zip(mult, theta)) != n * k:
        raise ValueError("multiplicities contradict tr A^2 = n k")
    return EigenData(theta=theta, mult=mult, exact=True)


@dataclass(frozen=True)
class KreinData:
    """Krein parameters q^h_ij and all Q-polynomial orderings fixing E_0."""

    q: tuple  # q[h][i][j] as AlgebraicScalar
    qpoly_orderings: tuple[tuple[int, ...], ...]


def _qpoly_pattern_holds(nonzero: bool, h: int, i: int, j: int) -> bool:
    """Q-polynomial shape of q^h_ij: zero when the largest of h, i, j exceeds
    the sum of the other two, nonzero when it equals that sum."""
    hi = max(h, i, j)
    rest = h + i + j - hi
    if hi > rest:
        return not nonzero
    return hi < rest or nonzero


def krein(ed: EigenData, params: DrgParameters) -> KreinData:
    """Krein parameters in closed form on the cosine sequences.

    E_i o E_j = (1/n) sum_h q^h_ij E_h with q^h_ij = (m_i m_j / n) sum_l k_l
    u_l(theta_i) u_l(theta_j) u_l(theta_h) (Brouwer-Cohen-Neumaier,
    Distance-Regular Graphs, Sect. 2.3), with u the cosine sequences that
    multiplicity uses too.  The sum is symmetric in i, j, h, so it is
    computed once per multiset {i, j, h}.  A Q-polynomial ordering needs only
    which q^h_ij vanish, so the orderings are read off that pattern.
    """
    if not ed.exact:
        raise ValueError("Krein parameters need exact eigen data")
    D, n = params.D, params.n
    u = [cosine_sequence(t, params) for t in ed.theta]
    q = [[[None] * (D + 1) for _ in range(D + 1)] for _ in range(D + 1)]
    for i, j in itertools.combinations_with_replacement(range(D + 1), 2):
        w = [k * x * y for k, x, y in zip(params.k_i, u[i], u[j])]
        for h in range(j, D + 1):
            total = sum(x * y for x, y in zip(w, u[h])) / n
            for a, b, c in set(itertools.permutations((i, j, h))):
                q[c][a][b] = total * (ed.mult[a] * ed.mult[b])
    for i in range(D + 1):
        for j in range(i, D + 1):
            for h in range(D + 1):
                if q[h][i][j].sign() < 0:
                    raise ValueError(f"negative Krein parameter q^{h}_{{{i}{j}}} = {q[h][i][j]}")
    nonzero = [[[v.sign() != 0 for v in r] for r in m] for m in q]
    orderings = []
    for perm in itertools.permutations(range(1, D + 1)):
        order = (0,) + perm
        if all(_qpoly_pattern_holds(nonzero[order[h]][order[i]][order[j]], h, i, j)
               for h, i, j in itertools.product(range(D + 1), repeat=3)):
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


def taylor_parameters(params: DrgParameters) -> Optional[tuple[int, int]]:
    """(k, b) when the intersection array has the shape {k,b,1; 1,b,k} with
    b < k - 1, else None."""
    if params.D != 3:
        return None
    k = params.k
    b = params.b[1]
    if params.b != (k, b, 1) or params.c != (1, b, k) or not 0 < b < k - 1:
        return None
    return k, b


def at4_intersection_array(p: int, q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(b_0..b_3, c_1..c_4) of AT4(p, q, 2); entries must come out integral."""
    if p < 1 or q < 2:
        raise ValueError("AT4 parameters need p >= 1, q >= 2")
    if (q * (p + q)) % 2:
        raise ValueError(f"AT4({p},{q},2) has non-integral c_2")
    k = q * (p * q + p + q)
    b1 = (q * q - 1) * (p + 1)
    c2 = q * (p + q) // 2
    return (k, b1, c2, 1), (1, c2, b1, k)


def at4_parameters(params: DrgParameters) -> Optional[tuple[int, int]]:
    """(p, q) when the array matches the AT4(p, q, 2) family, else None."""
    if params.D != 4 or params.k_i[4] != 1:
        return None
    for q in range(2, params.k + 1):
        for p in range(1, params.k + 1):
            if (q * (p + q)) % 2:
                continue
            if q * (p * q + p + q) > params.k:
                break
            b, c = at4_intersection_array(p, q)
            if params.b == b and params.c == c:
                return p, q
    return None
