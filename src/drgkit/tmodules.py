"""Classification of irreducible T(x)-modules for diameters 2, 3, and 4.

Every decomposition built here is self-certifying:

* each class carries a_0(W)..a_d(W) whose sum is checked exactly against
  theta_t + ... + theta_{t+d} (t the dual endpoint), and against the
  palindromic identity a_i(W) = a_{d-i}(W) for antipodal covers;
* multiplicities times dimensions must sum to n;
* the diameter-4 endpoint-1 classes are computed from an explicit local
  eigenvector (an integer column of the product of the other factors of the
  exact local spectrum), walked on integer vectors, with the three-term
  action coefficients read off by exact inner products, so thinness is
  witnessed rather than assumed.

wedderburn_dim (sum of squared class dimensions) is the bridge to the
brute-force algebra closure: the two must agree exactly, which ties the
classification to an independent computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .context import GraphContext
from .exactla import (
    AlgebraicScalar,
    _factor_product,
    _gcd_all,
    _imatmul,
    _to_object,
    sqrt_of_fraction,
)
from .graph_core import Graph
from .spectra import (
    Spectrum,
    SrgParams,
    effective_multiplicities,
    srg_local_split,
    srg_spectrum,
)

__all__ = [
    "ModuleDescriptor",
    "ModuleDecomposition",
    "DimensionSequence",
    "decompose_srg",
    "dimension_sequence",
    "srg_dim_formula",
    "decompose_taylor",
    "decompose_at4",
    "wedderburn_dim",
    "at4_eigenvalues",
]

_ZERO = AlgebraicScalar(0)


@dataclass(frozen=True)
class ModuleDescriptor:
    """One isomorphism class of irreducible T(x)-modules."""

    endpoint: int
    dual_endpoint: int
    diameter: int
    dim: int
    multiplicity: int
    local_eigenvalue: Optional[AlgebraicScalar]
    a_seq: tuple  # a_0(W) .. a_d(W)
    x_seq: tuple  # x_1(W) .. x_d(W)

    def sort_key(self):
        lam = self.local_eigenvalue
        return (self.endpoint, -self.dim,
                -(float(lam) if lam is not None else float("inf")),
                self.dual_endpoint)


@dataclass(frozen=True)
class ModuleDecomposition:
    """Pairwise non-isomorphic classes whose multiplicities fill the standard module."""

    n: int
    descriptors: tuple
    flags: tuple = ()

    def __post_init__(self):
        total = sum(d.multiplicity * d.dim for d in self.descriptors)
        if total != self.n:
            raise ValueError(f"decomposition covers {total} of {self.n} dimensions")
        primaries = [d for d in self.descriptors if d.endpoint == 0]
        if len(primaries) != 1 or primaries[0].multiplicity != 1:
            raise ValueError("need exactly one primary class with multiplicity 1")
        object.__setattr__(
            self, "descriptors", tuple(sorted(self.descriptors, key=lambda d: d.sort_key()))
        )


def wedderburn_dim(md: ModuleDecomposition) -> int:
    """dim T(x) = sum of (class dimension)^2 over non-isomorphic classes."""
    return sum(d.dim * d.dim for d in md.descriptors)


def _check_a_sum(a_seq, theta, t: int):
    """sum_i a_i(W) == sum_i theta_{t+i}, exactly."""
    lhs = _ZERO
    for a in a_seq:
        lhs = lhs + a
    rhs = _ZERO
    for i in range(len(a_seq)):
        rhs = rhs + theta[t + i]
    if lhs != rhs:
        raise ValueError(f"sum a_i(W) = {lhs} != {rhs} = sum theta_(t+i) (t={t})")


def _check_palindrome(a_seq):
    d = len(a_seq) - 1
    for i in range(len(a_seq)):
        if a_seq[i] != a_seq[d - i]:
            raise ValueError(f"a_i(W) != a_(d-i)(W) in {tuple(str(a) for a in a_seq)}")


# ---------------------------------------------------------------------------
# diameter 2: strongly regular graphs
# ---------------------------------------------------------------------------


def decompose_srg(g: Union[Graph, GraphContext], x: int, p: SrgParams) -> ModuleDecomposition:
    """Thin irreducible T(x)-module classes of a strongly regular graph.

    Classes and multiplicities: the primary module (dim 3); one dim-2
    endpoint-1 class per local eigenvalue lambda outside {sigma, tau}, with
    action matrix [[lambda, -(lambda-sigma)(lambda-tau)], [1, sigma+tau-lambda]];
    dim-1 endpoint-1 classes for sigma/tau appearing in the local graph
    (eigenvector orthogonal to all-ones); dim-1 endpoint-2 classes for
    sigma/tau multiplicity left over in the second subconstituent.
    """
    local = GraphContext.of(g).subconstituent_spectrum(x, 1, allow_float=False)
    eff1, f_sigma, f_tau, g_sigma, g_tau = srg_local_split(local, p)
    sigma, tau = p.sigma, p.tau
    theta = (AlgebraicScalar(p.k), sigma, tau)

    ka = AlgebraicScalar(p.k)
    descs = [ModuleDescriptor(
        endpoint=0, dual_endpoint=0, diameter=2, dim=3, multiplicity=1,
        local_eigenvalue=None,
        a_seq=(_ZERO, AlgebraicScalar(p.a), AlgebraicScalar(p.k - p.c)),
        x_seq=(ka, AlgebraicScalar((p.k - p.a - 1) * p.c)),
    )]
    _check_a_sum(descs[0].a_seq, theta, 0)
    for lam, mult in eff1.items():  # local eigenvalues outside {sigma, tau}
        a_seq = (lam, sigma + tau - lam)
        x_seq = (AlgebraicScalar(-1) * (lam - sigma) * (lam - tau),)
        _check_a_sum(a_seq, theta, 1)
        descs.append(ModuleDescriptor(
            endpoint=1, dual_endpoint=1, diameter=1, dim=2, multiplicity=mult,
            local_eigenvalue=lam, a_seq=a_seq, x_seq=x_seq,
        ))
    for lam, mult, t in ((sigma, f_sigma, 1), (tau, f_tau, 2)):
        if mult:
            _check_a_sum((lam,), theta, t)
            descs.append(ModuleDescriptor(
                endpoint=1, dual_endpoint=t, diameter=0, dim=1, multiplicity=mult,
                local_eigenvalue=lam, a_seq=(lam,), x_seq=(),
            ))
    for lam, mult, t in ((sigma, g_sigma, 1), (tau, g_tau, 2)):
        if mult:
            descs.append(ModuleDescriptor(
                endpoint=2, dual_endpoint=t, diameter=0, dim=1, multiplicity=mult,
                local_eigenvalue=lam, a_seq=(lam,), x_seq=(),
            ))
    return ModuleDecomposition(n=p.n, descriptors=tuple(descs))


@dataclass(frozen=True)
class DimensionSequence:
    """(l1, l1', l2, l2'): distinct one- and two-dimensional class counts."""

    l1: int
    l1p: int
    l2: int
    l2p: int

    def __post_init__(self):
        if self.l1p != self.l2p:
            raise ValueError(f"l1' = {self.l1p} != l2' = {self.l2p}")

    def tuple(self) -> tuple[int, int, int, int]:
        return (self.l1, self.l1p, self.l2, self.l2p)


def dimension_sequence(md: ModuleDecomposition, p: SrgParams,
                       d2_spectrum: Optional[Spectrum] = None) -> DimensionSequence:
    """Counts of distinct classes per category; l2' is recounted from the
    second-subconstituent spectrum when one is supplied."""
    l1 = sum(1 for d in md.descriptors if d.endpoint == 1 and d.dim == 1)
    l1p = sum(1 for d in md.descriptors if d.dim == 2)
    l2 = sum(1 for d in md.descriptors if d.endpoint == 2 and d.dim == 1)
    if d2_spectrum is not None:
        eff2 = effective_multiplicities(d2_spectrum, p.k - p.c)
        l2p = sum(1 for v in eff2 if v != p.sigma and v != p.tau)
    else:
        l2p = l1p
    return DimensionSequence(l1=l1, l1p=l1p, l2=l2, l2p=l2p)


def srg_dim_formula(ds: DimensionSequence) -> int:
    """dim T(x) = l1 + l2 + 4 l1' + 9."""
    return ds.l1 + ds.l2 + 4 * ds.l1p + 9


# ---------------------------------------------------------------------------
# explicit endpoint-1 module data from a local eigenvector
# ---------------------------------------------------------------------------


def _dot(u: np.ndarray, v: np.ndarray) -> int:
    """Exact inner product of two integer vectors."""
    return int(_imatmul(u.reshape(1, -1), v.reshape(-1, 1))[0, 0])


def _local_eigenvector(ctx: GraphContext, x: int, lam: AlgebraicScalar) -> np.ndarray:
    """A lambda-eigenvector of B_1 as an integer vector, for rational lambda: a
    nonzero column of the product of the factors of the local key other than
    x - lambda, which is a multiple of the lambda-eigenprojection."""
    local = ctx.subconstituent_spectrum(x, 1, allow_float=False)
    factors = [tuple(f[:-1]) for f in local.key]
    others = [f for f in factors if f != (lam.as_fraction(),)]
    if len(others) == len(factors):
        raise ValueError(f"{lam} is not a local eigenvalue at vertex {x}")
    cls1 = ctx.dd.classes_from(x, 1)
    P = _factor_product(ctx.graph.adjacency[np.ix_(cls1, cls1)], others)
    nonzero = np.flatnonzero(P.any(axis=0))
    if len(nonzero) == 0:
        raise ValueError(f"{lam} is not a local eigenvalue at vertex {x}")
    v = P[:, nonzero[0]]
    return v // _gcd_all(v)


def endpoint1_module_data(g: Union[Graph, GraphContext], x: int, lam: AlgebraicScalar,
                          expected_diameter: Optional[int] = None):
    """(a_seq, x_seq) of the thin module generated by a lambda-eigenvector.

    Takes an integer local eigenvector v of B_1 = adjacency of the first
    subconstituent (a column of the product of the other local factors,
    from the exact local spectrum), embeds it as w_0, forms
    w_i = E*_{1+i} A w_{i-1} on integer vectors, and reads a_i(W), x_i(W) off
    as Fractions of exact inner products.  Verifies that v is orthogonal to
    all-ones, that the walk terminates (thin, endpoint 1) and that A maps
    each w_i into span(w_{i-1}, w_i, w_{i+1}) exactly.  Only rational lambda
    is supported here; that covers the tight diameter-4 graphs, whose local
    eigenvalues are integers.
    """
    if not lam.is_rational:
        raise ValueError("explicit module extraction implemented for rational lambda")
    ctx = GraphContext.of(g)
    g, dd = ctx.graph, ctx.dd
    v = _local_eigenvector(ctx, x, lam)
    n = g.n
    w = np.zeros(n, dtype=v.dtype)
    w[dd.classes_from(x, 1)] = v
    if sum(v.tolist()) != 0:
        raise ValueError("local eigenvector is not orthogonal to all-ones")
    A = np.asarray(g.adjacency, dtype=np.int64)
    dist = dd.dist[x]

    def apply_A(vec):
        return _imatmul(A, vec.reshape(-1, 1)).reshape(-1)

    def project(vec, i):
        return np.where(dist == i, vec, 0)

    def three_term_holds(Aw, ahead, j):
        # den * (A w_j - ahead - a_j w_j - x_j w_{j-1}) == 0 in Python ints
        coefs = [a_seq[j].as_fraction()] + ([x_seq[j - 1].as_fraction()] if j else [])
        den = math.lcm(*(c.denominator for c in coefs))
        rest = den * (_to_object(Aw) - _to_object(ahead))
        for c, vec in zip(coefs, (ws[j], ws[j - 1])):
            rest = rest - int(c * den) * _to_object(vec)
        return not rest.any()

    zero = np.zeros(n, dtype=np.int64)
    ws = [w]
    a_seq, x_seq = [], []
    i = 0
    while True:
        Aw = apply_A(ws[i])
        a_seq.append(AlgebraicScalar(Fraction(_dot(Aw, ws[i]), _dot(ws[i], ws[i]))))
        if i > 0:
            x_seq.append(AlgebraicScalar(Fraction(_dot(Aw, ws[i - 1]),
                                                  _dot(ws[i - 1], ws[i - 1]))))
        if i == 0 and project(Aw, i).any():
            raise ValueError("module does not have endpoint 1")
        nxt = project(Aw, i + 2)
        if nxt.any():
            ws.append(nxt)
            i += 1
            continue
        # walk ended; verify A w_i lands exactly in span(w_{i-1}, w_i)
        if not three_term_holds(Aw, zero, i):
            raise ValueError("module is not thin: A w_d leaves the walk span")
        break
    # interior steps: A w_i = w_{i+1} + a_i w_i + x_i w_{i-1} exactly
    for j in range(len(ws) - 1):
        if not three_term_holds(apply_A(ws[j]), ws[j + 1], j):
            raise ValueError("three-term action fails: module is not thin")
    if expected_diameter is not None and len(ws) - 1 != expected_diameter:
        raise ValueError(f"module diameter {len(ws) - 1} != expected {expected_diameter}")
    return tuple(a_seq), tuple(x_seq)


# ---------------------------------------------------------------------------
# diameter 3: Taylor graphs
# ---------------------------------------------------------------------------


def taylor_eigenvalues(k: int, b: int):
    """theta_0 > theta_1 > theta_2 > theta_3 of the Taylor graph {k,b,1;1,b,k}."""
    disc = (k - 2 * b - 1) ** 2 + 4 * k
    rt = sqrt_of_fraction(disc)
    half = AlgebraicScalar(Fraction(1, 2))
    t1 = (AlgebraicScalar(k - 2 * b - 1) + rt) * half
    t3 = (AlgebraicScalar(k - 2 * b - 1) - rt) * half
    return (AlgebraicScalar(k), t1, AlgebraicScalar(-1), t3)


def _taylor_local(k: int, b: int) -> tuple:
    """(theta, local SrgParams, local Spectrum, flags) of the Taylor graph
    {k,b,1;1,b,k}, after the exact checks decompose_taylor documents."""
    theta = taylor_eigenvalues(k, b)
    a1 = k - b - 1
    if a1 % 2 or (3 * a1 - k - 1) % 2:
        raise ValueError(f"Taylor graph ({k}, {b}) has no strongly regular local graph")
    local_params = SrgParams(k, a1, (3 * a1 - k - 1) // 2, a1 // 2)
    sigma, tau = local_params.sigma, local_params.tau
    half = AlgebraicScalar(Fraction(1, 2))
    if sigma != (theta[1] + theta[2]) * half or tau != (theta[2] + theta[3]) * half:
        raise ValueError("2*lambda = theta_t + theta_(t+1) identity failed")
    flags = []
    if sigma != (theta[1] - theta[2]) * half:
        flags.append(
            "taylor-local-eigenvalue-identity: sigma equals (theta1+theta2)/2, "
            "not (theta1-theta2)/2"
        )
    return theta, local_params, srg_spectrum(local_params), tuple(flags)


def decompose_taylor(g: Union[Graph, GraphContext], x: int, k: int,
                     b: int) -> ModuleDecomposition:
    """T(x)-module classes of a Taylor graph: the primary module and one dim-2
    endpoint-1 class per nontrivial local eigenvalue sigma, tau.

    The local graph is strongly regular with parameters
    (k, a_1, (3 a_1 - k - 1)/2, a_1/2), a_1 = k - b - 1, and its spectrum is
    checked against theirs.  The local eigenvalues satisfy
    2*sigma = theta_1 + theta_2 and 2*tau = theta_2 + theta_3 (checked
    exactly); the difference form (theta_1 - theta_2)/2 does not equal
    sigma, and a flag records that.  These graph-level data are built once
    per context (GraphContext.taylor_local) and read by every vertex.
    """
    ctx = GraphContext.of(g)
    params = ctx.params
    if ctx.route != ("taylor", (k, b)):
        raise ValueError(f"not a Taylor graph with (k, b) = ({k}, {b})")
    theta, local_params, expected_local, flags = ctx.taylor_local
    sigma, tau = local_params.sigma, local_params.tau
    local = ctx.subconstituent_spectrum(x, 1, allow_float=False)
    if local != expected_local:
        raise ValueError(f"local spectrum {local} differs from {expected_local}")

    descs = [ModuleDescriptor(
        endpoint=0, dual_endpoint=0, diameter=3, dim=4, multiplicity=1,
        local_eigenvalue=None,
        a_seq=tuple(AlgebraicScalar(a) for a in params.a),
        x_seq=tuple(AlgebraicScalar(params.b[i] * params.c[i]) for i in range(3)),
    )]
    _check_a_sum(descs[0].a_seq, theta, 0)
    _check_palindrome(descs[0].a_seq)
    for lam, mult, t in ((sigma, local_params.m_sigma, 1), (tau, local_params.m_tau, 2)):
        a_seq = (lam, lam)
        x_seq = ((lam - theta[t]) * (lam - theta[t]),)
        _check_a_sum(a_seq, theta, t)
        _check_palindrome(a_seq)
        descs.append(ModuleDescriptor(
            endpoint=1, dual_endpoint=t, diameter=1, dim=2, multiplicity=mult,
            local_eigenvalue=lam, a_seq=a_seq, x_seq=x_seq,
        ))
    return ModuleDecomposition(n=params.n, descriptors=tuple(descs), flags=flags)


# ---------------------------------------------------------------------------
# diameter 4: antipodal tight graphs AT4(p, q, 2)
# ---------------------------------------------------------------------------


def at4_eigenvalues(p: int, q: int) -> tuple[int, int, int, int, int]:
    return (q * (p * q + p + q), p * q + p + q, p, -q, -q * q)


def _at4_local(p: int, q: int) -> tuple:
    """(theta, local SrgParams, local Spectrum) of AT4(p, q, 2): the local
    graph must be SRG(q(pq+p+q), p(q+1), 2p-q, p), whose eigenvalues are
    sigma = p and tau = -q."""
    local_params = SrgParams(q * (p * q + p + q), p * (q + 1), 2 * p - q, p)
    return (tuple(AlgebraicScalar(t) for t in at4_eigenvalues(p, q)), local_params,
            srg_spectrum(local_params))


def decompose_at4(g: Union[Graph, GraphContext], x: int, p: int,
                  q: int) -> ModuleDecomposition:
    """T(x)-module classes of an AT4(p, q, 2) graph.

    Primary module (dim 5); one dim-3 endpoint-1 class per local eigenvalue
    lambda in {p, -q}, with a_1(W) = theta_t + theta_{t+1} + theta_{t+2} -
    2*lambda and explicit a/x data extracted from a local eigenvector; dim-1
    endpoint-2 classes, one per eigenvalue of the second subconstituent on
    the orthogonal complement of the endpoint <= 1 images: the exact Delta_2
    spectrum less a_2 once and a_1(W) m_b+ and m_b- times.  No count may go
    negative, and every eigenvalue left over must lie in {theta_1..theta_4}.
    """
    ctx = GraphContext.of(g)
    params = ctx.params
    if ctx.route != ("at4", (p, q)):
        raise ValueError(f"intersection array does not match AT4({p},{q},2)")
    theta, local_params, expected_local = ctx.at4_local
    m_bp, m_bm = local_params.m_sigma, local_params.m_tau
    local = ctx.subconstituent_spectrum(x, 1, allow_float=False)
    if local != expected_local:
        raise ValueError(f"local spectrum {local} differs from AT4 prediction "
                         f"{expected_local}")

    descs = [ModuleDescriptor(
        endpoint=0, dual_endpoint=0, diameter=4, dim=5, multiplicity=1,
        local_eigenvalue=None,
        a_seq=tuple(AlgebraicScalar(a) for a in params.a),
        x_seq=tuple(AlgebraicScalar(params.b[i] * params.c[i]) for i in range(4)),
    )]
    _check_a_sum(descs[0].a_seq, theta, 0)
    _check_palindrome(descs[0].a_seq)

    a1w = {}
    for lam_int, mult, t in ((p, m_bp, 1), (-q, m_bm, 2)):
        lam = AlgebraicScalar(lam_int)
        expected_a1 = theta[t] + theta[t + 1] + theta[t + 2] - lam - lam
        a_seq, x_seq = endpoint1_module_data(ctx, x, lam, expected_diameter=2)
        if a_seq != (lam, expected_a1, lam):
            raise ValueError(
                f"endpoint-1 a-sequence {tuple(str(a) for a in a_seq)} differs from "
                f"({lam}, {expected_a1}, {lam})"
            )
        _check_a_sum(a_seq, theta, t)
        _check_palindrome(a_seq)
        a1w[lam_int] = expected_a1
        descs.append(ModuleDescriptor(
            endpoint=1, dual_endpoint=t, diameter=2, dim=3, multiplicity=mult,
            local_eigenvalue=lam, a_seq=a_seq, x_seq=x_seq,
        ))

    # endpoint-2 classes: the Delta_2 spectrum less the endpoint <= 1 images,
    # a_2 once and a_1(W) once per endpoint-1 module of each class
    left = dict(ctx.subconstituent_spectrum(x, 2, allow_float=False).pairs)
    for eta, m in ((AlgebraicScalar(params.a[2]), 1), (a1w[p], m_bp), (a1w[-q], m_bm)):
        left[eta] = left.get(eta, 0) - m
    for eta, m in left.items():
        if m < 0 or (m and eta not in theta[1:]):
            raise ValueError(f"second-subconstituent eigenvalue {eta} left with "
                             f"multiplicity {m}: not an AT4 input")
    for t in range(1, 5):
        if left.get(theta[t], 0):
            descs.append(ModuleDescriptor(
                endpoint=2, dual_endpoint=t, diameter=0, dim=1,
                multiplicity=left[theta[t]], local_eigenvalue=theta[t],
                a_seq=(theta[t],), x_seq=(),
            ))
    return ModuleDecomposition(n=params.n, descriptors=tuple(descs))
