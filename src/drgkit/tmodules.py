"""Classification of irreducible T(x)-modules for diameters 2, 3, and 4.

decompose(g, x) is the one entry point.  It follows GraphContext.route to
decompose_srg, decompose_taylor or decompose_at4 (None on the generic
route), and each of them reads its parameters from the context, so no caller
passes them.  Every route reads the graph's eigenvalues theta_0 > ... >
theta_D from GraphContext.eigen, the certified spectrum of the intersection
array.  The one closed form is decompose_srg's sigma and tau, read from the
route's SrgParams (which the route builds without GraphContext.eigen, so a
verdict never computes it); decompose_srg checks them once against
GraphContext.eigen.theta.  One _primary builds the primary module of every
route from the intersection numbers, and the Taylor and AT4 routes check
each local spectrum against GraphContext.route_local in one place
(_cover_local).  Each route appends its classes in canonical order (see
ModuleDecomposition), so no decomposition is sorted.

Every decomposition built here is self-certifying:

* each class's a_0(W) + ... + a_d(W) is theta_t + ... + theta_{t+d} (t the
  dual endpoint) by construction: tr L for the primary class, and the
  checks on sigma and tau (SRG, Taylor) or on the AT4 a-sequences for the rest;
* multiplicities times dimensions must sum to n;
* the diameter-4 endpoint-1 classes are computed from an explicit local
  eigenvector (an integer column of the product of the other factors of the
  exact local spectrum), walked once on integer vectors; at every step the
  parts of A w_i on subconstituents i and i+1 are checked to be exact
  multiples of w_(i-1) and w_i, which gives x_i(W) and a_i(W), so thinness
  is witnessed rather than assumed.

wedderburn_dim (sum of squared class dimensions) is the bridge to the
brute-force algebra closure: the two must agree exactly, which ties the
classification to an independent computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

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


@dataclass(frozen=True)
class ModuleDescriptor:
    """One isomorphism class of irreducible T(x)-modules; a thin module has
    one a_i(W) per dimension."""

    endpoint: int
    dual_endpoint: int
    multiplicity: int
    local_eigenvalue: Optional[AlgebraicScalar]
    a_seq: tuple  # a_0(W) .. a_d(W)
    x_seq: tuple  # x_1(W) .. x_d(W)

    @property
    def dim(self) -> int:
        return len(self.a_seq)

    @property
    def diameter(self) -> int:
        return self.dim - 1


@dataclass(frozen=True)
class ModuleDecomposition:
    """Pairwise non-isomorphic classes whose multiplicities fill the standard module.

    Each route builds exactly one primary class, of multiplicity 1, and
    classes whose dimensions times multiplicities sum to the number of
    vertices, in canonical order: endpoint ascending, then dim descending,
    then local eigenvalue descending, then dual endpoint."""

    descriptors: tuple
    flags: tuple = ()


def wedderburn_dim(md: ModuleDecomposition) -> int:
    """dim T(x) = sum of (class dimension)^2 over non-isomorphic classes."""
    return sum(d.dim * d.dim for d in md.descriptors)


def _primary(params: DrgParameters) -> ModuleDescriptor:
    """The primary module, dim D + 1: a_i(W) = a_i and x_i(W) = b_(i-1) c_i."""
    return ModuleDescriptor(
        endpoint=0, dual_endpoint=0, multiplicity=1, local_eigenvalue=None,
        a_seq=tuple(AlgebraicScalar(a) for a in params.a),
        x_seq=tuple(AlgebraicScalar(b * c) for b, c in zip(params.b, params.c)),
    )


def decompose(g: Union[Graph, GraphContext], x: int) -> Optional[ModuleDecomposition]:
    """The T(x)-module classes by the context's classification route, or None
    on a graph no theorem covers.  Each route reads its parameters from
    GraphContext.route and GraphContext.params itself.

    decompose_srg and decompose_taylor read nothing of x but its local
    spectrum, so each runs once per distinct local Spectrum (memoized in
    GraphContext.modules); decompose_at4's walk is a per-vertex thinness
    witness.  The closure is not involved, so the Wedderburn sum stays
    independent of it.
    """
    ctx = GraphContext.of(g)
    if ctx.route is None:
        return None
    name = ctx.route[0]
    if name == "at4":
        return decompose_at4(ctx, x)
    local = ctx.subconstituent_spectrum(x, 1)
    if local not in ctx.modules:
        ctx.modules[local] = (decompose_srg if name == "srg" else decompose_taylor)(ctx, x)
    return ctx.modules[local]


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
    sigma/tau multiplicity left over in the second subconstituent.  sigma and
    tau, from the route's SrgParams, must be theta_1 and theta_2, so sigma > tau.
    """
    p = ctx.route[1]
    sigma, tau, theta = p.sigma, p.tau, ctx.eigen.theta
    if (sigma, tau) != theta[1:]:
        raise ValueError(f"sigma, tau = {sigma}, {tau} are not "
                         f"theta_1, theta_2 = {theta[1]}, {theta[2]}")
    local = ctx.subconstituent_spectrum(x, 1)
    eff1, f_sigma, f_tau, g_sigma, g_tau = srg_local_split(local, p)

    descs = [_primary(ctx.params)]
    for lam, mult in eff1.items():  # local eigenvalues outside {sigma, tau}
        a_seq = (lam, sigma + tau - lam)
        x_seq = (AlgebraicScalar(-1) * (lam - sigma) * (lam - tau),)
        descs.append(ModuleDescriptor(
            endpoint=1, dual_endpoint=1, multiplicity=mult,
            local_eigenvalue=lam, a_seq=a_seq, x_seq=x_seq,
        ))
    for endpoint, lam, mult, t in ((1, sigma, f_sigma, 1), (1, tau, f_tau, 2),
                                   (2, sigma, g_sigma, 1), (2, tau, g_tau, 2)):
        if mult:
            descs.append(ModuleDescriptor(
                endpoint=endpoint, dual_endpoint=t, multiplicity=mult,
                local_eigenvalue=lam, a_seq=(lam,), x_seq=(),
            ))
    return ModuleDecomposition(descriptors=tuple(descs))


class DimensionSequence(NamedTuple):
    """(l1, l1', l2, l2'): distinct one- and two-dimensional class counts."""

    l1: int
    l1p: int
    l2: int
    l2p: int


def dimension_sequence(md: ModuleDecomposition, p: SrgParams,
                       d2_spectrum: Spectrum) -> DimensionSequence:
    """Counts of distinct classes per category; l2' is counted from the
    second-subconstituent spectrum, an independent count that must equal l1'."""
    l1 = sum(1 for d in md.descriptors if d.endpoint == 1 and d.dim == 1)
    l1p = sum(1 for d in md.descriptors if d.dim == 2)
    l2 = sum(1 for d in md.descriptors if d.endpoint == 2 and d.dim == 1)
    eff2 = effective_multiplicities(d2_spectrum, p.k - p.c)
    l2p = sum(1 for v in eff2 if v != p.sigma and v != p.tau)
    if l1p != l2p:
        raise ValueError(f"l1' = {l1p} != l2' = {l2p}")
    return DimensionSequence(l1, l1p, l2, l2p)


def srg_dim_formula(ds: DimensionSequence) -> int:
    """dim T(x) = l1 + l2 + 4 l1' + 9."""
    return ds.l1 + ds.l2 + 4 * ds.l1p + 9


# ---------------------------------------------------------------------------
# explicit endpoint-1 module data from a local eigenvector
# ---------------------------------------------------------------------------


def _local_eigenvector(ctx: GraphContext, x: int, lam: int) -> np.ndarray:
    """A lambda-eigenvector of B_1 as an integer vector: a nonzero column of the
    product of the factors of the local key other than x - lambda, which is a
    multiple of the lambda-eigenprojection."""
    local = ctx.subconstituent_spectrum(x, 1)
    factors = [tuple(f[:-1]) for f in local.key]
    others = [f for f in factors if f != (lam,)]
    if len(others) == len(factors):
        raise ValueError(f"{lam} is not a local eigenvalue at vertex {x}")
    cls1 = ctx.dd.classes_from(x, 1)
    P = _factor_product(ctx.graph.adjacency[np.ix_(cls1, cls1)], others)
    nonzero = np.flatnonzero(P.any(axis=0))
    if len(nonzero) == 0:
        raise ValueError(f"{lam} is not a local eigenvalue at vertex {x}")
    v = P[:, nonzero[0]]
    return v // _gcd_all(v)


def _multiple(u: np.ndarray, w: np.ndarray) -> AlgebraicScalar:
    """c with u = c w, checked as u <w, w> = <u, w> w on Python ints."""
    u, w = _to_object(u), _to_object(w)
    uw, ww = int(u.dot(w)), int(w.dot(w))
    if (u * ww != uw * w).any():
        raise ValueError("module is not thin: A w_i leaves span(w_(i-1), w_i, w_(i+1))")
    return AlgebraicScalar(Fraction(uw, ww))


def endpoint1_module_data(ctx: GraphContext, x: int, lam: int):
    """(a_seq, x_seq) of the thin module generated by a lambda-eigenvector.

    Embeds the integer local eigenvector v of B_1 (_local_eigenvector), which
    must be orthogonal to all-ones (endpoint 1), as w_0 and walks
    w_(i+1) = E*_(i+2) A w_i on integer vectors until it vanishes.  A maps
    subconstituent i+1 only into subconstituents i, i+1 and i+2, so the module
    is thin exactly when, at every step, the part of A w_i on subconstituent
    i+1 is a_i(W) w_i and the part on subconstituent i is x_i(W) w_(i-1); a
    step where either is not such a multiple raises ValueError.
    """
    v = _local_eigenvector(ctx, x, lam)
    if sum(v.tolist()) != 0:
        raise ValueError("local eigenvector is not orthogonal to all-ones")
    dist = ctx.dd.dist[x]
    A = np.asarray(ctx.graph.adjacency, dtype=np.int64)
    w = np.zeros(ctx.graph.n, dtype=v.dtype)
    w[ctx.dd.classes_from(x, 1)] = v
    ws, a_seq, x_seq = [w], [], []
    while True:
        i = len(ws) - 1
        Aw = _imatmul(A, ws[i].reshape(-1, 1)).reshape(-1)
        a_seq.append(_multiple(np.where(dist == i + 1, Aw, 0), ws[i]))
        if i:
            x_seq.append(_multiple(np.where(dist == i, Aw, 0), ws[i - 1]))
        nxt = np.where(dist == i + 2, Aw, 0)
        if not nxt.any():
            return tuple(a_seq), tuple(x_seq)
        ws.append(nxt)


# ---------------------------------------------------------------------------
# diameter 3: Taylor graphs
# ---------------------------------------------------------------------------


def _cover_local(ctx: GraphContext, x: int) -> tuple:
    """(theta, local SrgParams, flags) of a Taylor or AT4 route, theta from
    GraphContext.eigen and the rest from GraphContext.route_local, after
    checking the local spectrum at x against the one the route predicts."""
    local_params, expected, flags = ctx.route_local
    local = ctx.subconstituent_spectrum(x, 1)
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
    (GraphContext.route_local); x enters only through its local spectrum.
    """
    theta, local_params, flags = _cover_local(ctx, x)
    sigma, tau = local_params.sigma, local_params.tau
    descs = [_primary(ctx.params)]
    for lam, mult, t in ((sigma, local_params.m_sigma, 1), (tau, local_params.m_tau, 2)):
        a_seq = (lam, lam)
        x_seq = ((lam - theta[t]) * (lam - theta[t]),)
        descs.append(ModuleDescriptor(
            endpoint=1, dual_endpoint=t, multiplicity=mult,
            local_eigenvalue=lam, a_seq=a_seq, x_seq=x_seq,
        ))
    return ModuleDecomposition(descriptors=tuple(descs), flags=flags)


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
    descs = [_primary(params)]
    a1w = {}
    for lam_int, mult, t in ((p, m_bp, 1), (-q, m_bm, 2)):
        lam = AlgebraicScalar(lam_int)
        expected_a1 = theta[t] + theta[t + 1] + theta[t + 2] - lam - lam
        a_seq, x_seq = endpoint1_module_data(ctx, x, lam_int)
        if a_seq != (lam, expected_a1, lam):
            raise ValueError(
                f"endpoint-1 a-sequence {tuple(str(a) for a in a_seq)} differs from "
                f"({lam}, {expected_a1}, {lam})"
            )
        a1w[lam_int] = expected_a1
        descs.append(ModuleDescriptor(
            endpoint=1, dual_endpoint=t, multiplicity=mult,
            local_eigenvalue=lam, a_seq=a_seq, x_seq=x_seq,
        ))

    # endpoint-2 classes: the Delta_2 spectrum less the endpoint <= 1 images,
    # a_2 once and a_1(W) once per endpoint-1 module of each class
    left = dict(ctx.subconstituent_spectrum(x, 2).pairs)
    for eta, m in ((AlgebraicScalar(params.a[2]), 1), (a1w[p], m_bp), (a1w[-q], m_bm)):
        left[eta] = left.get(eta, 0) - m
    for eta, m in left.items():
        if m < 0 or (m and eta not in theta[1:]):
            raise ValueError(f"second-subconstituent eigenvalue {eta} left with "
                             f"multiplicity {m}: not an AT4 input")
    for t in range(1, 5):
        if left.get(theta[t], 0):
            descs.append(ModuleDescriptor(
                endpoint=2, dual_endpoint=t, multiplicity=left[theta[t]],
                local_eigenvalue=theta[t], a_seq=(theta[t],), x_seq=(),
            ))
    return ModuleDecomposition(descriptors=tuple(descs))
