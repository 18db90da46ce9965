"""Classification of irreducible T(x)-modules for diameters 2, 3, and 4.

decompose(g, x) is the one entry point.  It follows GraphContext.route to
decompose_srg, decompose_taylor or decompose_at4 (None on the generic
route), and each of them reads its parameters from the context, so no caller
passes them.  Every route reads the graph's eigenvalues theta_0 > ... >
theta_D from GraphContext.eigen, the certified spectrum of the intersection
array; none is written here in closed form.  One _primary builds the primary
module of every route from the intersection numbers, and the Taylor and AT4
routes check each local spectrum against GraphContext.route_local in one
place (_cover_local).

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
)
from .graph_core import Graph
from .scheme import DrgParameters
from .spectra import (
    Spectrum,
    SrgParams,
    effective_multiplicities,
    srg_local_split,
)

__all__ = [
    "ModuleDescriptor",
    "ModuleDecomposition",
    "DimensionSequence",
    "decompose",
    "dimension_sequence",
    "srg_dim_formula",
    "wedderburn_dim",
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
        return (self.endpoint, -self.dim, -lam if lam is not None else _ZERO,
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


def _check_palindrome(descs):
    """a_i(W) == a_(d-i)(W) on every class, as on an antipodal cover."""
    for d in descs:
        if d.a_seq != d.a_seq[::-1]:
            raise ValueError(f"a_i(W) != a_(d-i)(W) in {tuple(str(a) for a in d.a_seq)}")


def _primary(params: DrgParameters, theta) -> ModuleDescriptor:
    """The primary module, dim D + 1: a_i(W) = a_i and x_i(W) = b_(i-1) c_i,
    its a-sum checked against theta_0 + ... + theta_D."""
    desc = ModuleDescriptor(
        endpoint=0, dual_endpoint=0, diameter=params.D, dim=params.D + 1, multiplicity=1,
        local_eigenvalue=None,
        a_seq=tuple(AlgebraicScalar(a) for a in params.a),
        x_seq=tuple(AlgebraicScalar(b * c) for b, c in zip(params.b, params.c)),
    )
    _check_a_sum(desc.a_seq, theta, 0)
    return desc


def decompose(g: Union[Graph, GraphContext], x: int) -> Optional[ModuleDecomposition]:
    """The T(x)-module classes by the context's classification route, or None
    on a graph no theorem covers.  Each route reads its parameters from
    GraphContext.route and GraphContext.params itself.

    decompose_srg reads nothing of x but its local spectrum, so it runs once
    per distinct local Spectrum, memoized in GraphContext.srg_modules.  The
    closure is not involved, so the Wedderburn sum stays independent of it.
    """
    ctx = GraphContext.of(g)
    if ctx.route is None:
        return None
    name = ctx.route[0]
    if name == "srg":
        local = ctx.subconstituent_spectrum(x, 1, allow_float=False)
        if local not in ctx.srg_modules:
            ctx.srg_modules[local] = decompose_srg(ctx, x)
        return ctx.srg_modules[local]
    if name == "taylor":
        return decompose_taylor(ctx, x)
    return decompose_at4(ctx, x)


# ---------------------------------------------------------------------------
# diameter 2: strongly regular graphs
# ---------------------------------------------------------------------------


def decompose_srg(ctx: GraphContext, x: int) -> ModuleDecomposition:
    """Thin irreducible T(x)-module classes of a strongly regular graph.

    Classes and multiplicities: the primary module (dim 3); one dim-2
    endpoint-1 class per local eigenvalue lambda outside {sigma, tau}, with
    action matrix [[lambda, -(lambda-sigma)(lambda-tau)], [1, sigma+tau-lambda]];
    dim-1 endpoint-1 classes for sigma/tau appearing in the local graph
    (eigenvector orthogonal to all-ones); dim-1 endpoint-2 classes for
    sigma/tau multiplicity left over in the second subconstituent.
    """
    p = ctx.route[1]
    local = ctx.subconstituent_spectrum(x, 1, allow_float=False)
    eff1, f_sigma, f_tau, g_sigma, g_tau = srg_local_split(local, p)
    sigma, tau = p.sigma, p.tau
    theta = ctx.eigen.theta

    descs = [_primary(ctx.params, theta)]
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


def _cover_local(ctx: GraphContext, x: int) -> tuple:
    """(theta, local SrgParams, flags) of a Taylor or AT4 route, theta from
    GraphContext.eigen and the rest from GraphContext.route_local, after
    checking the local spectrum at x against the one the route predicts."""
    local_params, expected, flags = ctx.route_local
    local = ctx.subconstituent_spectrum(x, 1, allow_float=False)
    if local != expected:
        raise ValueError(f"local spectrum {local} at vertex {x} differs from the "
                         f"{ctx.route[0]} prediction {expected}")
    return ctx.eigen.theta, local_params, flags


def decompose_taylor(ctx: GraphContext, x: int) -> ModuleDecomposition:
    """T(x)-module classes of a Taylor graph: the primary module and one dim-2
    endpoint-1 class per nontrivial local eigenvalue sigma, tau.

    The local graph is strongly regular with parameters
    (k, a_1, (3 a_1 - k - 1)/2, a_1/2), a_1 = k - b - 1, and its spectrum is
    checked against theirs.  The local eigenvalues satisfy
    2*sigma = theta_1 + theta_2 and 2*tau = theta_2 + theta_3 (checked
    exactly, against the certified spectrum in GraphContext.eigen); the
    difference form (theta_1 - theta_2)/2 does not equal sigma, and a flag
    records that.  These graph-level data are built once per context
    (GraphContext.route_local) and read by every vertex.
    """
    theta, local_params, flags = _cover_local(ctx, x)
    sigma, tau = local_params.sigma, local_params.tau
    descs = [_primary(ctx.params, theta)]
    for lam, mult, t in ((sigma, local_params.m_sigma, 1), (tau, local_params.m_tau, 2)):
        a_seq = (lam, lam)
        x_seq = ((lam - theta[t]) * (lam - theta[t]),)
        _check_a_sum(a_seq, theta, t)
        descs.append(ModuleDescriptor(
            endpoint=1, dual_endpoint=t, diameter=1, dim=2, multiplicity=mult,
            local_eigenvalue=lam, a_seq=a_seq, x_seq=x_seq,
        ))
    _check_palindrome(descs)
    return ModuleDecomposition(n=ctx.params.n, descriptors=tuple(descs), flags=flags)


# ---------------------------------------------------------------------------
# diameter 4: antipodal tight graphs AT4(p, q, 2)
# ---------------------------------------------------------------------------


def decompose_at4(ctx: GraphContext, x: int) -> ModuleDecomposition:
    """T(x)-module classes of an AT4(p, q, 2) graph.

    Primary module (dim 5); one dim-3 endpoint-1 class per local eigenvalue
    lambda in {p, -q}, with a_1(W) = theta_t + theta_{t+1} + theta_{t+2} -
    2*lambda and explicit a/x data extracted from a local eigenvector; dim-1
    endpoint-2 classes, one per eigenvalue of the second subconstituent on
    the orthogonal complement of the endpoint <= 1 images: the exact Delta_2
    spectrum less a_2 once and a_1(W) m_b+ and m_b- times.  No count may go
    negative, and every eigenvalue left over must lie in {theta_1..theta_4}.
    """
    params = ctx.params
    p, q = ctx.route[1]
    theta, local_params, _ = _cover_local(ctx, x)
    m_bp, m_bm = local_params.m_sigma, local_params.m_tau
    descs = [_primary(params, theta)]
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
    _check_palindrome(descs)
    return ModuleDecomposition(n=params.n, descriptors=tuple(descs))
