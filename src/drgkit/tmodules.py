"""Classification of irreducible T(x)-modules for diameters 2, 3, and 4.

decompose(g, vertices) is the one entry point: one decomposition per vertex
of the list, or None on the generic route.  It follows GraphContext.route to
decompose_srg, decompose_taylor or decompose_at4, which each take the whole
list and return one decomposition per vertex, and each reads its parameters
from the context, so no caller passes them.  Within one request
decompose_srg builds one decomposition per distinct local spectrum,
decompose_taylor one for every vertex (all share the predicted local
spectrum), and decompose_at4 one per vertex from one stacked walk per local
eigenvalue; none is kept past the request.  Every route reads
the graph's eigenvalues theta_0 > ... > theta_D from GraphContext.eigen, the
certified spectrum of the intersection array.  The one closed form is
decompose_srg's sigma and tau, read from the route's SrgParams (which the
route builds without GraphContext.eigen, so a verdict never computes it);
decompose_srg checks them once against GraphContext.eigen.theta.  One
_primary builds the primary module of every route from the intersection
numbers, and _cover_local builds the local graph a Taylor or AT4 array
predicts and checks each vertex's local spectrum against it, in one place
for both routes.  Each route appends
its classes in canonical order (see ModuleDecomposition), so none is sorted.

Every decomposition built here is self-certifying:

* each class's a_0(W) + ... + a_d(W) is theta_t + ... + theta_{t+d} (t the
  dual endpoint) by construction: tr L for the primary class, and the
  checks on sigma and tau (SRG, Taylor) or on the AT4 a-sequences for the rest;
* multiplicities times dimensions must sum to n;
* the diameter-4 endpoint-1 classes are computed from explicit local
  eigenvectors (integer columns of the product of the other factors of the
  exact local spectrum), walked as one stack of integer vectors; at every
  step the parts of A w_i on subconstituents i and i+1 are checked to be
  exact multiples of w_(i-1) and w_i, which gives x_i(W) and a_i(W), so
  thinness is witnessed at every vertex rather than assumed.

wedderburn_dim (sum of squared class dimensions) is the bridge to the
brute-force algebra closure: the two must agree exactly, which ties the
classification to an independent computation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

import numpy as np

from .context import GraphContext
from .exactla import AlgebraicScalar, _factor_product, _imatmul, _to_object
from .graph_core import Graph, checked_vertices
from .scheme import DrgParameters
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


def decompose(g: Union[Graph, GraphContext], vertices=None) -> tuple:
    """The T(x)-module classes of the given vertices (default: every vertex),
    one ModuleDecomposition each in their order by the context's route, or
    None each on a graph no theorem covers.

    Each route takes the whole list and reads its local blocks as one stack.
    The closure is not involved, so the Wedderburn sum stays independent of it.
    """
    ctx = GraphContext.of(g)
    vertices = checked_vertices(ctx.params.n, range(ctx.params.n) if vertices is None
                                else vertices)
    if ctx.route is None or not vertices:
        return (None,) * len(vertices)
    kind = ctx.route[0]
    route = (decompose_srg if kind == "srg" else decompose_taylor if kind == "taylor"
             else decompose_at4)
    return route(ctx, vertices)


def _local_spectra(ctx: GraphContext, vertices: list) -> list:
    """The exact local spectrum of each vertex, their blocks read as one
    stack; a float one raises ValueError."""
    ctx.subconstituent_spectra(1, vertices)
    return [ctx.subconstituent_spectrum(x, 1) for x in vertices]


# ---------------------------------------------------------------------------
# diameter 2: strongly regular graphs
# ---------------------------------------------------------------------------


def decompose_srg(ctx: GraphContext, vertices: list) -> tuple:
    """Thin irreducible T(x)-module classes of a strongly regular graph, one
    decomposition per vertex, built once per distinct local spectrum (the only
    thing of x that they read).

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

    def classes(local: Spectrum) -> ModuleDecomposition:
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
                descs.append(ModuleDescriptor(endpoint=endpoint, dual_endpoint=t,
                                              multiplicity=mult, local_eigenvalue=lam,
                                              a_seq=(lam,), x_seq=()))
        return ModuleDecomposition(descriptors=tuple(descs))

    local = _local_spectra(ctx, vertices)
    built = {s: classes(s) for s in dict.fromkeys(local)}
    return tuple(built[s] for s in local)


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
# explicit endpoint-1 module data, one stacked walk per request
# ---------------------------------------------------------------------------


def _local_eigenvectors(ctx: GraphContext, vertices: list, lam: int) -> np.ndarray:
    """(m, k_1) integer lambda-eigenvectors of the local blocks B_1 of vertices
    that share one exact local spectrum: each the first nonzero column of the
    product of its factors other than x - lambda (a multiple of the
    lambda-eigenprojection) over its gcd, or 0 where lambda is no root."""
    local = ctx.subconstituent_spectra(1, vertices)
    first = ctx.subconstituent_spectrum(vertices[0], 1)  # refuses a float one
    for x, s in zip(vertices, local):
        if s != first:
            raise ValueError(f"local spectrum {s} at vertex {x} differs from {first}")
    cls = np.nonzero(ctx.dd.dist[vertices] == 1)[1].reshape(len(vertices), -1)
    P = _factor_product(ctx.graph.adjacency[cls[:, :, None], cls[:, None, :]],
                        [f[:-1] for f in first.key if f[:-1] != (lam,)])
    V = P[np.arange(len(vertices)), :, (P != 0).any(axis=1).argmax(axis=1)]
    return V // np.maximum(np.gcd.reduce(V, axis=1, keepdims=True), 1)


def _multiples(U: np.ndarray, W: np.ndarray) -> tuple:
    """(c, faulty rows) with U[r] = c[r] W[r], checked as U[r] <W[r], W[r]> =
    <U[r], W[r]> W[r] on Python ints; no row of W is zero."""
    U, W = _to_object(U), _to_object(W)
    uw, ww = (U * W).sum(axis=1), (W * W).sum(axis=1)
    return ([AlgebraicScalar(Fraction(int(a), int(b))) for a, b in zip(uw, ww)],
            (U * ww[:, None] != uw[:, None] * W).any(axis=1))


def endpoint1_module_data(ctx: GraphContext, vertices, lam: int) -> list:
    """[(a_seq, x_seq)] of the thin modules generated by lambda-eigenvectors,
    one per vertex, in their order.

    Embeds the local eigenvectors (_local_eigenvectors), which must be
    orthogonal to all-ones (endpoint 1), as the rows w_0 of an (m, n) stack
    and walks w_(i+1) = E*_(i+2) A w_i, one product per step, until it
    vanishes.  A maps subconstituent i+1 only into subconstituents i, i+1 and
    i+2, so a module is thin exactly when, at every step, the part of A w_i
    on subconstituent i+1 is a_i(W) w_i and the part on subconstituent i is
    x_i(W) w_(i-1).  A fault (a row that vanishes before the others, too)
    raises ValueError for the first faulty vertex, after walking the ones
    before it alone, as they may fail at a later step.
    """
    vertices = list(vertices)

    def check(bad, message):
        if np.any(bad):
            r = int(np.flatnonzero(bad)[0])
            for x in vertices[:r]:
                endpoint1_module_data(ctx, [x], lam)
            raise ValueError(f"{message} at vertex {vertices[r]}")

    V = _local_eigenvectors(ctx, vertices, lam)
    check([sum(v) != 0 for v in V.tolist()], "local eigenvector is not orthogonal to all-ones")
    dist, A = ctx.dd.dist[vertices], np.asarray(ctx.graph.adjacency, dtype=np.int64)
    W, prev, a_cols, x_cols = np.zeros(dist.shape, dtype=V.dtype), None, [], []
    W[dist == 1] = V.ravel()
    for i in itertools.count():
        alive = (W != 0).any(axis=1)
        if i and not alive.any():
            return [(tuple(a[r] for a in a_cols), tuple(x[r] for x in x_cols))
                    for r in range(len(vertices))]
        check(~alive, f"endpoint-1 walk stops after {i} steps, before the others,"
              if i else f"{lam} is not a local eigenvalue")
        AW = _imatmul(W, A)  # row r is (A w_r)^T, as A is symmetric
        a, bad = _multiples(np.where(dist == i + 1, AW, 0), W)
        a_cols.append(a)
        if i:
            x, bad_x = _multiples(np.where(dist == i, AW, 0), prev)
            x_cols.append(x)
            bad = bad | bad_x
        check(bad, "module is not thin: A w_i leaves span(w_(i-1), w_i, w_(i+1))")
        W, prev = np.where(dist == i + 2, AW, 0), W


# ---------------------------------------------------------------------------
# diameter 3: Taylor graphs
# ---------------------------------------------------------------------------


def _cover_local(ctx: GraphContext, vertices: list) -> tuple:
    """(theta, local SrgParams, flags) of a Taylor or AT4 route, after
    checking each vertex's local spectrum against the one the route predicts.

    Every vertex of a Taylor or AT4 graph has one local graph, strongly
    regular with parameters read off the intersection array: for Taylor
    {k,b,1;1,b,k}, (k, a_1, (3 a_1 - k - 1)/2, a_1/2) with a_1 = k - b - 1,
    whose eigenvalues must satisfy 2*sigma = theta_1 + theta_2 and
    2*tau = theta_2 + theta_3 (checked exactly, against GraphContext.eigen),
    and a flag records that sigma is not the difference form
    (theta_1 - theta_2)/2; for AT4(p, q, 2), (q(pq+p+q), p(q+1), 2p-q, p),
    whose eigenvalues are sigma = p and tau = -q.
    """
    kind, args = ctx.route
    theta, flags = ctx.eigen.theta, ()
    if kind == "taylor":
        k, b = args
        a1 = k - b - 1
        if a1 % 2 or (3 * a1 - k - 1) % 2:
            raise ValueError(f"Taylor graph ({k}, {b}) has no strongly regular local graph")
        local_params = SrgParams(k, a1, (3 * a1 - k - 1) // 2, a1 // 2)
        sigma, tau = local_params.sigma, local_params.tau
        half = AlgebraicScalar(Fraction(1, 2))
        if sigma != (theta[1] + theta[2]) * half or tau != (theta[2] + theta[3]) * half:
            raise ValueError("2*lambda = theta_t + theta_(t+1) identity failed")
        if sigma != (theta[1] - theta[2]) * half:
            flags = ("taylor-local-eigenvalue-identity: sigma equals (theta1+theta2)/2, "
                     "not (theta1-theta2)/2",)
    else:
        p, q = args
        local_params = SrgParams(q * (p * q + p + q), p * (q + 1), 2 * p - q, p)
    expected = srg_spectrum(local_params)
    for x, local in zip(vertices, _local_spectra(ctx, vertices)):
        if local != expected:
            raise ValueError(f"local spectrum {local} at vertex {x} differs from the "
                             f"{kind} prediction {expected}")
    return theta, local_params, flags


def decompose_taylor(ctx: GraphContext, vertices: list) -> tuple:
    """T(x)-module classes of a Taylor graph: the primary module and one dim-2
    endpoint-1 class per nontrivial local eigenvalue sigma, tau.

    Every vertex has the local spectrum _cover_local checks, so one
    decomposition serves every vertex of the list.  The difference form
    (theta_1 - theta_2)/2 does not equal sigma, and a flag records that.
    """
    theta, local_params, flags = _cover_local(ctx, vertices)
    sigma, tau = local_params.sigma, local_params.tau
    descs = [_primary(ctx.params)]
    for lam, mult, t in ((sigma, local_params.m_sigma, 1), (tau, local_params.m_tau, 2)):
        descs.append(ModuleDescriptor(endpoint=1, dual_endpoint=t, multiplicity=mult,
                                      local_eigenvalue=lam, a_seq=(lam, lam),
                                      x_seq=((lam - theta[t]) * (lam - theta[t]),)))
    return (ModuleDecomposition(descriptors=tuple(descs), flags=flags),) * len(vertices)


# ---------------------------------------------------------------------------
# diameter 4: antipodal tight graphs AT4(p, q, 2)
# ---------------------------------------------------------------------------


def decompose_at4(ctx: GraphContext, vertices: list) -> tuple:
    """T(x)-module classes of an AT4(p, q, 2) graph, one decomposition per vertex.

    Primary module (dim 5); one dim-3 endpoint-1 class per local eigenvalue
    lambda in {p, -q}, with a_1(W) = theta_t + theta_{t+1} + theta_{t+2} -
    2*lambda and explicit a/x data from one stacked walk per lambda; dim-1
    endpoint-2 classes, one per eigenvalue of the second subconstituent on
    the orthogonal complement of the endpoint <= 1 images: the exact Delta_2
    spectrum less a_2 once and a_1(W) m_b+ and m_b- times.  No count may go
    negative, and every eigenvalue left over must lie in {theta_1..theta_4}.
    The local spectra are checked first, then both walks run, then each
    vertex's a-sequences and Delta_2 counts; each fault names its vertex.
    """
    params, (p, q) = ctx.params, ctx.route[1]
    theta, local_params, _ = _cover_local(ctx, vertices)
    classes, walks = [], []  # (lambda, multiplicity, dual endpoint, a_1(W)); walks per lambda
    for lam, mult, t in ((p, local_params.m_sigma, 1), (-q, local_params.m_tau, 2)):
        walks.append(endpoint1_module_data(ctx, vertices, lam))
        lam = AlgebraicScalar(lam)
        classes.append((lam, mult, t, theta[t] + theta[t + 1] + theta[t + 2] - lam - lam))
    mds = []
    for x, *data in zip(vertices, *walks):
        descs = [_primary(params)]
        for (lam, mult, t, a1w), (a_seq, x_seq) in zip(classes, data):
            if a_seq != (lam, a1w, lam):
                raise ValueError(f"endpoint-1 a-sequence {tuple(map(str, a_seq))} differs "
                                 f"from ({lam}, {a1w}, {lam}) at vertex {x}")
            descs.append(ModuleDescriptor(endpoint=1, dual_endpoint=t, multiplicity=mult,
                                          local_eigenvalue=lam, a_seq=a_seq, x_seq=x_seq))
        # endpoint-2 classes: the Delta_2 spectrum less the endpoint <= 1 images,
        # a_2 once and a_1(W) once per endpoint-1 module of each class
        left = dict(ctx.subconstituent_spectrum(x, 2).pairs)
        for eta, m in [(AlgebraicScalar(params.a[2]), 1)] + [(c[3], c[1]) for c in classes]:
            left[eta] = left.get(eta, 0) - m
        for eta, m in left.items():
            if m < 0 or (m and eta not in theta[1:]):
                raise ValueError(f"second-subconstituent eigenvalue {eta} left with "
                                 f"multiplicity {m} at vertex {x}: not an AT4 input")
        descs += [ModuleDescriptor(endpoint=2, dual_endpoint=t, multiplicity=left[theta[t]],
                                   local_eigenvalue=theta[t], a_seq=(theta[t],), x_seq=())
                  for t in range(1, 5) if left.get(theta[t], 0)]
        mds.append(ModuleDecomposition(descriptors=tuple(descs)))
    return tuple(mds)
