"""Pseudo-vertex-transitivity and T-isomorphism verdicts.

Positive verdicts only come from the three proven routes: equal local spectra
for diameter 2, the Taylor classification for diameter 3, and the AT4
classification for diameter 4 antipodal tight covers.  Everything else gets
at most 'necessary_conditions_pass' (equal subconstituent spectra for every
distance class plus a constant Terwilliger dimension), never 'pvt'.

Both verdicts read their distances, parameters, local spectra and closure
dimensions from a context.GraphContext, which memoizes them for one command.
The SRG and generic routes compare every vertex, so they take each distance
class's spectra at once from GraphContext.subconstituent_spectra (one stacked
certificate per class) and then scan the vertices in order: the first
differing vertex, and in the generic route its first differing class, is the
witness, as in a vertex-by-vertex scan.  The generic route then asks
GraphContext.terwilliger_dimensions for every vertex in one request, one
stacked closure, and its witness is the first vertex whose dim T differs
from vertex 0's.
Spectra are compared with ==, which compares their exact keys (the factor
key, or the characteristic polynomial of a float spectrum; see spectra), so
no verdict rests on a float.
check_pvt and t_isomorphic_srg take the route from the memoized
GraphContext.route; they never read the eigen data, nor bipartiteness (no
Taylor or AT4 array is bipartite).  analyze_graph hands its own context to
check_pvt, so the per-vertex report reuses the route, spectra and closures
the verdict computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .context import GraphContext
from .graph_core import Graph
from .spectra import InfeasibleSrgError, SrgParams

__all__ = ["PvtVerdict", "TIsoResult", "check_pvt", "t_isomorphic_srg", "gq_dim"]

VERDICT_PVT = "pvt"
VERDICT_NOT_PVT = "not_pvt"
VERDICT_NECESSARY = "necessary_conditions_pass"

METHOD_SRG = "srg_theorem"
METHOD_TAYLOR = "taylor_theorem"
METHOD_AT4 = "at4_theorem"
METHOD_GENERIC = "generic_necessary"


@dataclass(frozen=True)
class PvtVerdict:
    verdict: str
    method: str
    witness: Optional[dict] = None
    detail: str = ""

    def __post_init__(self):
        if self.verdict == VERDICT_NOT_PVT and self.witness is None:
            raise ValueError("not_pvt verdict requires a witness")
        if self.verdict == VERDICT_PVT and self.method not in (
            METHOD_SRG, METHOD_TAYLOR, METHOD_AT4
        ):
            raise ValueError("pvt verdict must cite a theorem-backed method")


def check_pvt(g: Union[Graph, GraphContext]) -> PvtVerdict:
    """Decide pseudo-vertex-transitivity where a theorem applies.

    Diameter 2: all local spectra equal <=> pvt.  Taylor arrays
    {k,b,1;1,b,k} with 0 < b < k-1: pvt.  AT4(p,q,2) arrays: pvt.
    Otherwise: report whether the necessary conditions (equal subconstituent
    spectra for every i, constant dim T(x)) hold.
    """
    ctx = GraphContext.of(g)
    params = ctx.params
    route, route_params = ctx.route or (None, None)
    if route == "srg":
        base, *others = ctx.subconstituent_spectra(1)
        for x, spec in enumerate(others, 1):
            if spec != base:
                return PvtVerdict(
                    verdict=VERDICT_NOT_PVT,
                    method=METHOD_SRG,
                    witness={"x": 0, "y": x,
                             "local_spectrum_x": str(base),
                             "local_spectrum_y": str(spec)},
                    detail="local spectra differ",
                )
        return PvtVerdict(verdict=VERDICT_PVT, method=METHOD_SRG,
                          detail="all local spectra equal")
    if route == "taylor":
        return PvtVerdict(verdict=VERDICT_PVT, method=METHOD_TAYLOR,
                          detail=f"Taylor graph with (k, b) = {route_params}")
    if route == "at4":
        return PvtVerdict(verdict=VERDICT_PVT, method=METHOD_AT4,
                          detail=f"antipodal tight cover with (p, q) = {route_params}")
    # generic necessary conditions
    by_class = [ctx.subconstituent_spectra(i) for i in range(1, params.D + 1)]
    for x in range(1, params.n):
        for i, specs in enumerate(by_class, 1):
            if specs[x] != specs[0]:
                return PvtVerdict(
                    verdict=VERDICT_NOT_PVT,
                    method=METHOD_GENERIC,
                    witness={"x": 0, "y": x, "class": i,
                             "spectrum_x": str(specs[0]),
                             "spectrum_y": str(specs[x])},
                    detail=f"subconstituent {i} spectra differ",
                )
    dims = ctx.terwilliger_dimensions()  # every vertex, as one stack
    for x, dim in enumerate(dims):
        if dim != dims[0]:
            return PvtVerdict(
                verdict=VERDICT_NOT_PVT,
                method=METHOD_GENERIC,
                witness={"x": 0, "y": x, "dim_T_x": dims[0], "dim_T_y": dim},
                detail="Terwilliger dimensions differ",
            )
    return PvtVerdict(
        verdict=VERDICT_NECESSARY, method=METHOD_GENERIC,
        detail="equal subconstituent spectra and constant dim T(x); "
               "sufficiency is not proven for this family",
    )


@dataclass(frozen=True)
class TIsoResult:
    isomorphic: bool
    witness: Optional[dict] = None
    note: str = ""


def _srg_route(ctx: GraphContext) -> SrgParams:
    name, params = ctx.route or (None, None)
    if name != "srg":
        raise InfeasibleSrgError(f"diameter {ctx.params.D}, not a strongly regular graph")
    return params


def t_isomorphic_srg(g1: Union[Graph, GraphContext],
                     g2: Union[Graph, GraphContext]) -> TIsoResult:
    """T-isomorphism of two connected strongly regular graphs.

    True iff the parameters agree and the local spectra match.  The theorem's
    quantifier runs over every pair of base vertices, so for graphs that are
    not pseudo-vertex-transitive the per-vertex local spectra of both graphs
    must all be one and the same spectrum.  check_pvt decides that for each
    graph in turn, and the first not_pvt witness, with "graph": 1 or 2 added,
    is the answer's witness; a note flags the non-pvt situation.
    """
    c1, c2 = GraphContext.of(g1), GraphContext.of(g2)
    p1, p2 = _srg_route(c1), _srg_route(c2)
    if p1.tuple() != p2.tuple():
        return TIsoResult(False, witness={"parameters": [p1.tuple(), p2.tuple()]},
                          note="parameters differ")
    for label, ctx in ((1, c1), (2, c2)):
        verdict = check_pvt(ctx)
        if verdict.verdict == VERDICT_NOT_PVT:
            return TIsoResult(
                False,
                witness={"graph": label, **verdict.witness},
                note="a graph in the pair is not pseudo-vertex-transitive, so some "
                     "pair of base vertices has differing local spectra",
            )
    (s1,), (s2,) = c1.subconstituent_spectra(1, [0]), c2.subconstituent_spectra(1, [0])
    if s1 == s2:
        return TIsoResult(True)
    return TIsoResult(False,
                      witness={"local_spectrum_g1": str(s1), "local_spectrum_g2": str(s2)},
                      note="local spectra differ")


def gq_dim(s: int, t: int) -> int:
    """dim T(x) for the collinearity graph of a generalized quadrangle GQ(s, t)."""
    if s < 1 or t < 1:
        raise ValueError("GQ orders must be >= 1")
    if s == 1 and t == 1:
        return 10
    if t == 1 or (s != 1 and s * s == t):
        return 15
    if s == 1:
        return 11
    return 16
