"""One graph's shared data and memos, for the length of one command.

A GraphContext holds what every layer asks of a graph.  Its distance data and
distance-regular parameters are computed when the context is built.  Two more
graph-level values are computed on first access and kept:

* eigen: the scheme.EigenData of the intersection array, the one source of
  the graph's eigenvalues theta_0 > ... > theta_D.  analysis, the tables and
  the decompositions of tmodules read it; pvt and tiso never do, so a
  verdict never computes it;
* route: which classification theorem applies, decided here and nowhere else:
  ("srg", SrgParams) for diameter 2, ("taylor", (k, b)) for a Taylor array,
  ("at4", (p, q)) for an AT4(p, q, 2) array, or None.  analysis, pvt and
  tmodules.decompose read it instead of deciding again, and each route's
  decomposition takes its parameters from here, never from its caller.

It also memoizes the per-vertex results that analysis, pvt, tmodules and
tables ask for more than once.  One helper fills both per-vertex memos: it
reads the requested vertices once and computes those not yet in the memo,
each once, as one stack.  A lone missing vertex takes the stack's one-vertex
function (spectra.subconstituent_spectrum, terwilliger.terwilliger_dimension),
because the benchmark's layer tracer counts spectra and closures by those
names; that one line is the only place where the two differ.

* subconstituent spectra, keyed by (x, i), from
  spectra.subconstituent_spectra, whose blocks with one key share one
  Spectrum.  subconstituent_spectra(i, vertices) returns float spectra as
  they are; subconstituent_spectrum(x, i) is the exact one-vertex accessor,
  which raises ValueError on a float one.  Equality of spectra does not rest
  on sharing: Spectrum == compares keys, so it holds across stacks and
  contexts too;
* dim T(x) from the algebra closure, keyed by x, from
  terwilliger.terwilliger_dimensions, so check_pvt's request for every
  vertex is one stacked closure;
* srg_modules: tmodules.decompose's SRG module decompositions, keyed by the
  exact local Spectrum, which with the route's SrgParams is all that
  decompose_srg reads;
* route_local, the graph-level data of a Taylor or AT4 route: the local
  SrgParams, local spectrum and flags that tmodules checks every vertex
  against.

The memos live on the context object and nowhere else.  A command builds one
context per input graph and drops it when it returns, so two commands run in
one process (a test suite, a benchmark loop) never answer from each other's
results.  Entry points take a Graph or a GraphContext; GraphContext.of turns
either into a context.

The closure memo only ever holds the stacked closure's results, and the module
decompositions never read it: the Wedderburn sum and the closure stay two
independent computations of dim T(x).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

from .graph_core import DistanceData, Graph, distances
from .scheme import (
    DrgParameters,
    EigenData,
    _at4_local,
    _taylor_local,
    at4_parameters,
    eigen_data,
    taylor_parameters,
    verify_drg,
)
from .spectra import (
    FLOAT_REFUSED,
    Spectrum,
    SrgParams,
    subconstituent_spectra,
    subconstituent_spectrum,
)
from .terwilliger import terwilliger_dimension, terwilliger_dimensions

__all__ = ["GraphContext"]


@dataclass(frozen=True, eq=False)
class GraphContext:
    """A distance-regular graph with its distance data, parameters and memos."""

    graph: Graph
    dd: DistanceData
    params: DrgParameters
    _spectra: dict = field(default_factory=dict, init=False, repr=False)
    _dims: dict = field(default_factory=dict, init=False, repr=False)
    srg_modules: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def of(cls, g: Union[Graph, "GraphContext"]) -> "GraphContext":
        """The given context, or a new one for a graph (checks distance-regularity)."""
        if isinstance(g, cls):
            return g
        dd = distances(g)
        return cls(graph=g, dd=dd, params=verify_drg(g, dd))

    @cached_property
    def eigen(self) -> EigenData:
        """Eigenvalues and multiplicities from the intersection array."""
        return eigen_data(self.params)

    @cached_property
    def route(self) -> Optional[tuple]:
        """The classification route: ("srg", SrgParams), ("taylor", (k, b)),
        ("at4", (p, q)) or None.

        Neither Taylor nor AT4 arrays are bipartite (a_1 = k - b - 1 >= 1 and
        a_1 = p(q + 1) >= 2), so bipartiteness never enters the decision.
        """
        params = self.params
        if params.D == 2:
            return "srg", SrgParams(params.n, params.k, params.a[1], params.c[1])
        if (kb := taylor_parameters(params)) is not None:
            return "taylor", kb
        if (pq := at4_parameters(params)) is not None:
            return "at4", pq
        return None

    def subconstituent_spectrum(self, x: int, i: int) -> Spectrum:
        """The exact spectrum of the distance-i class of x, from
        subconstituent_spectra; a float one raises ValueError."""
        spec = self.subconstituent_spectra(i, [x])[0]
        if not spec.exact:
            raise ValueError(FLOAT_REFUSED)
        return spec

    def subconstituent_spectra(self, i: int, vertices=None) -> tuple:
        """The spectra of the distance-i classes of the given vertices
        (default: every vertex), in their order, float ones as they are, for
        the caller to refuse or flag.  The memo is keyed by (x, i)."""
        return self._fill(self._spectra, lambda x: (x, i), vertices,
                          lambda x: subconstituent_spectrum(self.graph, x, i, self.dd),
                          lambda xs: subconstituent_spectra(self.graph, i, self.dd, xs))

    def terwilliger_dimensions(self, vertices=None) -> tuple:
        """dim T(x) by the algebra closure for the given vertices (default:
        every vertex), in their order.  The memo is keyed by x."""
        return self._fill(self._dims, lambda x: x, vertices,
                          lambda x: terwilliger_dimension(self.graph, x, self.dd),
                          lambda xs: terwilliger_dimensions(self.graph, xs, self.dd))

    def _fill(self, memo: dict, key, vertices, one, stack) -> tuple:
        """memo[key(x)] for the given vertices (default: every vertex), in
        their order; any iterable of vertices is read once.  stack(missing)
        computes the missing ones, each once; a lone one takes one(x), the
        name the benchmark's layer tracer counts (see the module docstring).
        """
        vertices = range(self.params.n) if vertices is None else list(vertices)
        missing = list(dict.fromkeys(x for x in vertices if key(x) not in memo))
        if missing:
            memo.update(zip(map(key, missing),
                            [one(missing[0])] if len(missing) == 1 else stack(missing)))
        return tuple(memo[key(x)] for x in vertices)

    @cached_property
    def route_local(self) -> tuple:
        """tmodules' (local SrgParams, local Spectrum, flags) for a Taylor or
        AT4 route, built once by scheme._taylor_local or scheme._at4_local."""
        kind, args = self.route
        return _taylor_local(args, self.eigen.theta) if kind == "taylor" else _at4_local(args)
