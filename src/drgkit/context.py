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
tables ask for more than once:

* subconstituent spectra, keyed by (x, i).  subconstituent_spectrum(x, i)
  fills one entry; subconstituent_spectra(i) fills every vertex's entry of
  class i still missing from one stacked certificate, for the callers that
  need all of them (check_pvt's SRG and generic routes, and so
  t_isomorphic_srg; analyze_graph when its report covers every vertex);
* the finished Spectrum of each certified factor key ((r, m), ...,
  (s, p, m), ...) and of each charpoly_int coefficient tuple of a block that
  exactla.certified_factors declined, float spectra included.  Blocks with
  one key share one Spectrum, so its eigenvalues are decoded (and sorted)
  once, and sympy factors each declined polynomial once.  Equality of
  spectra does not rest on this sharing: Spectrum == compares keys, so it
  holds across contexts too;
* dim T(x) from the algebra closure, keyed by x;
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

The closure memo only ever holds terwilliger_dimension results, and the module
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
from .terwilliger import terwilliger_dimension

__all__ = ["GraphContext"]


@dataclass(frozen=True, eq=False)
class GraphContext:
    """A distance-regular graph with its distance data, parameters and memos."""

    graph: Graph
    dd: DistanceData
    params: DrgParameters
    _spectra: dict = field(default_factory=dict, init=False, repr=False)
    _by_key: dict = field(default_factory=dict, init=False, repr=False)
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

    def subconstituent_spectrum(self, x: int, i: int, allow_float: bool = True) -> Spectrum:
        """Spectrum of the distance-i class of x, computed once per (x, i).

        One memo entry serves both settings of allow_float: an exact spectrum
        is the answer under either, and a float one raises ValueError when
        the caller does not allow it.
        """
        key = (x, i)
        spec = self._spectra.get(key)
        if spec is None:
            spec = subconstituent_spectrum(self.graph, x, i, self.dd, memo=self._by_key)
            self._spectra[key] = spec
        if not (spec.exact or allow_float):
            raise ValueError(FLOAT_REFUSED)
        return spec

    def subconstituent_spectra(self, i: int) -> tuple:
        """The spectra of the distance-i classes of all vertices, x = 0..n-1.

        Fills the (x, i) memo for every x not yet in it from one stack
        (spectra.subconstituent_spectra).  For callers that need every
        vertex; float spectra are returned as they are, for the caller to
        refuse or flag.
        """
        missing = [x for x in range(self.params.n) if (x, i) not in self._spectra]
        if missing:
            specs = subconstituent_spectra(self.graph, i, self.dd, self._by_key, missing)
            self._spectra.update(((x, i), spec) for x, spec in zip(missing, specs))
        return tuple(self._spectra[(x, i)] for x in range(self.params.n))

    def terwilliger_dimension(self, x: int) -> int:
        """dim T(x) by the algebra closure, computed once per x."""
        if x not in self._dims:
            self._dims[x] = terwilliger_dimension(self.graph, x, self.dd)
        return self._dims[x]

    @cached_property
    def route_local(self) -> tuple:
        """tmodules' (local SrgParams, local Spectrum, flags) for a Taylor or
        AT4 route, built once by scheme._taylor_local or scheme._at4_local."""
        kind, args = self.route
        return _taylor_local(args, self.eigen.theta) if kind == "taylor" else _at4_local(args)
