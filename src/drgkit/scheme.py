"""Distance-regularity, intersection numbers, eigenvalues and multiplicities,
Krein parameters, Q-polynomial orderings, antipodality, the tightness bound,
and recognition of the Taylor and AT4(p, q, 2) intersection arrays (the local
graph each of them predicts is tmodules' to build and check).

Only verify_drg and antipodality look at the n x n graph (antipodality only
at its distance table).  verify_drg forms the D products A A_j of 0/1 class
indicators in float32, which is exact because every entry counts at most
n <= MAX_VERTICES < 2**24 vertices; a graph that is not distance-regular is
rejected with a witness (h, 1, j, x, y).  Everything else is computed from the
intersection array: the eigenvalues are the spectrum of the (D+1) x (D+1)
tridiagonal intersection matrix, taken by spectra.spectrum_of_int_matrix like
any other integer matrix (the matrix is not symmetric, but its eigenvalues
are real and simple).  Each eigenvalue in Q or a quadratic field Q(sqrt(d))
gets its P-matrix row v_l = k_l u_l on integers, (alpha_l + beta_l
sqrt(d))/2, and the multiplicities (Biggs' formula) and the signs of the
Krein parameters (a closed form, BCN Sect. 2.3) are read off those rows as
integer coefficients of square-free radicals, so the eigenvalues may lie in
several quadratic fields at once.  An eigenvalue of higher degree makes the
spectrum a flagged float fallback.  GraphContext.eigen keeps the result, and
every other layer reads the graph's eigenvalues theta_0 > ... > theta_D there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .exactla import AlgebraicScalar, radical_sign
from .graph_core import DistanceData, Graph, GraphError, distances, require_size
from .spectra import spectrum_of_int_matrix

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
    """Raised with a witness (h, 1, j, x, y) where p^h_1j fails to be constant:
    |G_1(x) n G_j(y)| differs from its value at the first pair of class h."""

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
    k_i: tuple[int, ...]  # class sizes

    @property
    def intersection_array(self) -> str:
        bs = ",".join(str(x) for x in self.b)
        cs = ",".join(str(x) for x in self.c)
        return "{" + bs + ";" + cs + "}"

    def c_at(self, i: int) -> int:
        return self.c[i - 1] if 1 <= i <= self.D else 0


def verify_drg(g: Graph, dd: Optional[DistanceData] = None) -> DrgParameters:
    """Check constancy of every p^h_1j over all vertex pairs; return the data.

    The (x, y) entry of A A_j counts |G_1(x) n G_j(y)|, so it must be constant,
    p^h_1j, on each distance class h.  These numbers are c_h, a_h and b_h for
    j = h - 1, h, h + 1, and their constancy is exactly distance-regularity,
    so D products A A_1 .. A A_D decide it (A A_0 = A gives c_1 = 1).  The
    class indicators are built from dist as they are needed and multiplied in
    float32, exactly (see the module docstring).  Every pair is compared with
    the first pair of its class in row-major order; the first pair that
    differs is the witness (h, 1, j, x, y).  The class sizes follow from
    k_i c_i = k_{i-1} b_{i-1}: double counting the edges between G_{i-1}(x)
    and G_i(x) shows k_i = |G_i(x)|, so the k_i sum to n, and
    c_h + a_h + b_h = p^0_11 = k, the valency.
    """
    g.require_connected()
    require_size("graph", g.n)
    dd = dd or distances(g)
    D, n, dist = dd.D, g.n, dd.dist
    if D == 0:
        raise GraphError("diameter", "a single vertex has diameter 0; "
                         "distance-regular analysis needs diameter >= 1")
    first = [int(np.argmax(dist.ravel() == h)) for h in range(D + 1)]
    A = (dist == 1).astype(np.float32)
    p1 = [None]  # p1[j][h] = p^h_1j
    for j in range(1, D + 1):
        prod = A @ (dist == j).astype(np.float32)
        v = prod.ravel()[first]
        bad = prod != v[dist]
        if bad.any():
            h = int(dist[bad].min())
            x, y = (int(t) for t in np.argwhere(bad & (dist == h))[0])
            raise NotDistanceRegularError(h, 1, j, x, y)
        p1.append([int(t) for t in v])
    b = tuple(p1[i + 1][i] for i in range(D))
    c = (1,) + tuple(p1[i - 1][i] for i in range(2, D + 1))
    a = (0,) + tuple(p1[i][i] for i in range(1, D + 1))
    k_i = [1]
    for i in range(1, D + 1):
        k_i.append(k_i[-1] * b[i - 1] // c[i - 1])
    return DrgParameters(n=n, D=D, k=b[0], b=b, c=c, a=a, k_i=tuple(k_i))


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
    """Eigenvalues theta_0 > ... > theta_D, their multiplicities and, when
    exact, the integer P-matrix rows: rows[i] = (d, alpha, beta) with
    v_l(theta_i) = (alpha_l + beta_l sqrt(d))/2 for l = 0..D."""

    theta: tuple  # AlgebraicScalar, descending (floats in fallback mode)
    mult: tuple[int, ...]
    exact: bool = True
    rows: tuple = field(default=(), repr=False, compare=False)


def _p_row(theta: AlgebraicScalar, params: DrgParameters) -> tuple[tuple, int]:
    """The P-matrix row of an exact eigenvalue and its multiplicity.

    theta = (s + f sqrt(d))/2 with integers s, f, like every eigenvalue of an
    integer matrix in a quadratic field.  The algebraic integers
    v_l = k_l u_l(theta) = (alpha_l + beta_l sqrt(d))/2 follow from v_0 = 1
    and c_(l+1) v_(l+1) = (theta - a_l) v_l - b_(l-1) v_(l-1), whose value at
    l = D must be 0, and Biggs' formula (BCN Thm 4.1.4) m = n / sum_l
    v_l^2 / k_l must have no sqrt(d) part and be a positive integer.  Any
    failure, an inexact division included, means theta is not an eigenvalue
    of the array: ValueError.
    """
    s, f, d = 2 * theta.a, 2 * theta.b, theta.d or 1
    if s.denominator != 1 or f.denominator != 1:
        raise ValueError(f"{theta} is not an algebraic integer")
    s, f = int(s), int(f)
    alpha, beta = [2], [0]
    x0 = y0 = 0  # 2 b_(l-1) v_(l-1) in half units
    for l in range(params.D + 1):
        x = s * alpha[l] + f * beta[l] * d - 2 * params.a[l] * alpha[l] - x0
        y = s * beta[l] + f * alpha[l] - 2 * params.a[l] * beta[l] - y0
        c2 = 2 * params.c_at(l + 1)  # 0 at l = D, where x and y themselves must be 0
        if (x % c2 or y % c2) if c2 else (x or y):
            raise ValueError(f"{theta} is not an eigenvalue of {params.intersection_array}")
        if c2:
            alpha.append(x // c2)
            beta.append(y // c2)
            x0, y0 = 2 * params.b[l] * alpha[l], 2 * params.b[l] * beta[l]
    L = math.lcm(*params.k_i)
    w = [L // k for k in params.k_i]  # 4 L sum v^2/k = sum w (alpha + beta √d)^2
    m = Fraction(4 * params.n * L, sum(t * (p * p + q * q * d) for t, p, q in zip(w, alpha, beta)))
    if sum(t * p * q for t, p, q in zip(w, alpha, beta)) or m.denominator != 1 or m < 1:
        raise ValueError(f"multiplicity of {theta} is not a positive integer")
    return (d, tuple(alpha), tuple(beta)), int(m)


def _float_multiplicity(theta: float, params: DrgParameters) -> int:
    """Biggs' formula m = n / sum_l v_l^2 / k_l in floats, for an eigenvalue
    outside every quadratic field; m must land within 1e-6 of a positive
    integer, or theta is not an eigenvalue: ValueError."""
    v = [1.0, theta]
    for l in range(1, params.D):
        v.append(((theta - params.a[l]) * v[l] - params.b[l - 1] * v[l - 1]) / params.c[l])
    m = params.n / sum(x * x / k for x, k in zip(v, params.k_i))
    r = round(m)
    if abs(m - r) > 1e-6 or r < 1:
        raise ValueError(f"multiplicity of {theta} is {m!r}, not near a positive integer")
    return r


def eigen_data(params: DrgParameters) -> EigenData:
    """Spectrum of a distance-regular graph from its intersection array.

    The eigenvalues are those of the (D+1) x (D+1) intersection matrix, from
    spectra.spectrum_of_int_matrix like any other integer matrix, and must be
    simple.  Each exact one gets its integer P-matrix row and multiplicity
    from _p_row, so no n x n matrix is built and no scalar of one quadratic
    field meets one of another.  m_0 = 1, sum m_i = n, tr A = 0 and
    tr A^2 = n k need no check: the eigenvalues of L are D + 1 simple ones
    and K L = L^T K, K = diag(k_l), so v_l(theta_i) sqrt(m_i / (n k_l)) is an
    orthogonal matrix, sum_i m_i v_l(theta_i) v_h(theta_i) = n k_l delta_lh
    (BCN Thm 4.1.4), and l, h in {0, 1} give all four.  When the charpoly of
    L has an irreducible factor of degree >= 3 the eigenvalues are floats
    (flagged), with rounded multiplicities from _float_multiplicity, which
    must still sum to n.
    """
    spec = spectrum_of_int_matrix(intersection_matrix(params))
    n = params.n
    theta = tuple(v for v, _ in spec.pairs)
    if any(m != 1 for _, m in spec.pairs) or len(theta) != params.D + 1:
        raise ValueError("intersection matrix spectrum is not simple")
    if not spec.exact:
        mult = tuple(_float_multiplicity(t, params) for t in theta)
        if sum(mult) != n:
            raise ValueError(f"float multiplicities {mult} do not sum to n = {n}")
        return EigenData(theta=theta, mult=mult, exact=False)
    rows, mult = zip(*(_p_row(t, params) for t in theta))
    return EigenData(theta=theta, mult=mult, exact=True, rows=rows)


@dataclass(frozen=True)
class KreinData:
    """Which Krein parameters q^h_ij vanish, and all Q-polynomial orderings
    fixing E_0."""

    nonzero: tuple  # nonzero[h][i][j]: q^h_ij != 0
    qpoly_orderings: tuple[tuple[int, ...], ...]


def _times_row(terms: dict, row: tuple) -> dict:
    """terms, a map sqrt(r) -> integer vector over l, times the P-matrix row
    (d, alpha, beta) entrywise: alpha_l keeps sqrt(r), and beta_l sqrt(d)
    turns it into g sqrt(r d / g^2), g = gcd(r, d), square-free again."""
    d, alpha, beta = row
    out: dict = {}
    for r, vec in terms.items():
        g = math.gcd(r, d)
        for key, coef, x in ((r, 1, alpha), (r * d // (g * g), g, beta)):
            if any(x):
                prod = [coef * p * q for p, q in zip(vec, x)]
                old = out.get(key)
                out[key] = prod if old is None else [p + q for p, q in zip(old, prod)]
    return out


def krein(ed: EigenData, params: DrgParameters) -> KreinData:
    """The zero pattern of the Krein parameters and the Q-polynomial
    orderings read off it.

    q^h_ij = (m_i m_j / n) sum_l k_l u_l(theta_i) u_l(theta_j) u_l(theta_h)
    (Brouwer-Cohen-Neumaier, Distance-Regular Graphs, Sect. 2.3) has the sign
    of S = sum_l v_l(theta_i) v_l(theta_j) v_l(theta_h) K / k_l^2 on the
    P-matrix rows v_l = k_l u_l of eigen_data, K = lcm k_l^2.  Each v is
    (alpha + beta sqrt(d))/2, so 8 S collects integer coefficients on
    distinct square-free radicals sqrt(r), whatever fields the three
    eigenvalues lie in, and exactla.radical_sign decides it.  S is symmetric
    in i, j, h, so it is computed once per multiset.  A negative q^h_ij means
    the eigen data are wrong: ValueError.
    """
    if not ed.exact:
        raise ValueError("Krein parameters need exact eigen data")
    D = params.D
    K = math.lcm(*(k * k for k in params.k_i))
    weight = {1: [K // (k * k) for k in params.k_i]}
    sums = {}
    for i, j in itertools.combinations_with_replacement(range(D + 1), 2):
        pair = _times_row(_times_row(weight, ed.rows[i]), ed.rows[j])
        for h in range(j, D + 1):
            sums[i, j, h] = {r: sum(vec) for r, vec in _times_row(pair, ed.rows[h]).items()}
    sign = {key: radical_sign(terms) for key, terms in sums.items()}
    triples = list(itertools.product(range(D + 1), repeat=3))
    for i, j, h in triples:
        if i <= j and sign[tuple(sorted((i, j, h)))] < 0:
            terms = sums[tuple(sorted((i, j, h)))]  # q = m_i m_j 8S / (8 n K)
            scale = Fraction(ed.mult[i] * ed.mult[j], 8 * params.n * K)
            surds = [(r, c) for r, c in sorted(terms.items()) if r != 1 and c] or [(0, 0)]
            value = " + ".join(
                str(AlgebraicScalar(scale * terms.get(1, 0) * (not t), scale * c, r))
                for t, (r, c) in enumerate(surds))
            raise ValueError(f"negative Krein parameter q^{h}_{{{i}{j}}} = {value}")
    nonzero = tuple(tuple(tuple(sign[tuple(sorted((h, i, j)))] != 0 for j in range(D + 1))
                          for i in range(D + 1)) for h in range(D + 1))
    # Q-polynomial: q^h_ij = 0 when the largest of h, i, j exceeds the sum of
    # the other two, and != 0 when it equals that sum.  So E_1' fixes the
    # order: E_(i+1)' is the one E_h left with q^h_(1'i') != 0.
    shape = [(h, i, j, 2 * max(h, i, j) == h + i + j)
             for h, i, j in triples if 2 * max(h, i, j) >= h + i + j]
    orderings = []
    for first in range(1, D + 1):
        order = [0, first]
        while len(order) <= D and len(nxt := [h for h in range(1, D + 1) if h not in order
                                              and nonzero[h][first][order[-1]]]) == 1:
            order += nxt
        if len(order) == D + 1 and all(nonzero[order[h]][order[i]][order[j]] == want
                                       for h, i, j, want in shape):
            orderings.append(tuple(order))
    return KreinData(nonzero=nonzero, qpoly_orderings=tuple(orderings))


def antipodality(dd: DistanceData) -> Optional[dict[int, int]]:
    """The antipode map x -> x^ when the graph of dd is an antipodal double
    cover, else None.

    A distance-regular graph is an antipodal double cover exactly when every
    vertex has a unique vertex at maximal distance; distances are symmetric,
    so the map is then an involution.
    """
    if dd.D < 2:
        return None
    far = dd.dist == dd.D
    if not (far.sum(axis=1) == 1).all():
        return None
    return dict(enumerate(far.argmax(axis=1).tolist()))


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
    'tightness undefined' rather than by division.  The bound multiplies
    theta_1 by theta_D, so the two must lie in one quadratic field (or Q);
    otherwise ValueError names both fields.
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
    if th1.d and thD.d and th1.d != thD.d:
        raise ValueError(f"tightness needs theta_1 = {th1} and theta_D = {thD} in one "
                         f"quadratic field, not Q(√{th1.d}) and Q(√{thD.d})")
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
